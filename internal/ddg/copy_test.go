package ddg_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/widen"
)

// copyAndCheck makes w a copy of src and checks it: the same loop, a
// snapshot of its shape that is w's old one when w held one, started from
// src's recurrence analyses exactly when src held a current snapshot with
// its recurrence ops, and analyses equal to a fresh build.
func copyAndCheck(t *testing.T, w, src *ddg.Loop, step string) {
	t.Helper()
	_, srcCurrent := ddg.Snapshot(src)
	from := ddg.StartedFromSource(src) && srcCurrent
	old, _ := ddg.Snapshot(w)
	w.CopyFrom(src)
	if w.Name != src.Name || w.Trips != src.Trips || !slices.Equal(w.Ops, src.Ops) || !slices.Equal(w.Edges, src.Edges) {
		t.Fatalf("%s: the copy differs from its source", step)
	}
	if a, current := ddg.Snapshot(w); !current || (old != nil && a != old) {
		t.Fatalf("%s: CopyFrom did not reset the loop's own snapshot to the copy", step)
	}
	if got := ddg.StartedFromSource(w); got != from {
		t.Fatalf("%s: snapshot started from the source's = %v, want %v", step, got, from)
	}
	checkAnalysis(t, w, step)
}

// sizeAlternating returns loops ordered largest, smallest, second largest,
// second smallest, and so on, so a working loop copied into in that order
// keeps stale storage from a larger loop and must grow for the next one.
func sizeAlternating(loops []*ddg.Loop) []*ddg.Loop {
	sorted := slices.Clone(loops)
	slices.SortStableFunc(sorted, func(a, b *ddg.Loop) int { return len(b.Ops) + len(b.Edges) - len(a.Ops) - len(a.Edges) })
	out := make([]*ddg.Loop, 0, len(sorted))
	for i, j := 0, len(sorted)-1; i <= j; i, j = i+1, j-1 {
		out = append(out, sorted[i])
		if i != j {
			out = append(out, sorted[j])
		}
	}
	return out
}

// TestCopyFromMatchesFreshBuild reuses one working loop across the 40-loop
// default slice widened for every factor of the paper's configurations,
// alternating larger and smaller loops. After each CopyFrom, and after
// each Spill of a chain of values on the copy, the copy's analyses must
// equal a fresh build. The sources are warmed and never change: each is
// compared with a fresh build after its copy spills and after every later
// copy.
func TestCopyFromMatchesFreshBuild(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 40
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []*ddg.Loop
	for _, width := range []int{1, 2, 4, 8} {
		for _, l := range loops {
			wl, _ := widen.Transform(l, width)
			warm(wl)
			wl.RecurrenceOps()
			srcs = append(srcs, wl)
		}
	}
	var w ddg.Loop
	for _, src := range sizeAlternating(srcs) {
		ops, edges := slices.Clone(src.Ops), slices.Clone(src.Edges)
		copyAndCheck(t, &w, src, src.Name+" copied")
		rec := w.RecurrenceOps()
		spilled := 0
		for v := 0; v < len(src.Ops) && spilled < 8; v++ {
			if rec[v] || !w.Ops[v].Kind.HasResult() || len(w.Succs()[v]) == 0 {
				continue
			}
			if !spillAndCheck(t, &w, v) {
				t.Fatalf("%s: spilling op %d of the copy did not keep its recurrence analyses", src.Name, v)
			}
			spilled++
		}
		if !slices.Equal(src.Ops, ops) || !slices.Equal(src.Edges, edges) {
			t.Fatalf("%s: spilling the copy changed the source", src.Name)
		}
		checkAnalysis(t, src, src.Name+" after its copy spilled")
	}
	// A copy shares its source's recurrence-op map until the next copy
	// resets the working loop's snapshot, which must leave the map alone.
	for _, src := range srcs {
		checkAnalysis(t, src, src.Name+" after later copies")
	}
}

// TestCopyFromSources covers the sources a copy cannot start from, or
// starts from with few analyses computed, on a working loop that already
// holds a larger loop's storage: a loop without a snapshot, one whose
// snapshot holds recurrence ops but no predecessor lists, and a zero-trip
// loop that fails Validate.
func TestCopyFromSources(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 6
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	big, _ := widen.Transform(loops[0], 8)
	warm(big)
	big.RecurrenceOps()

	noSnapshot := loops[1].Clone()
	recOnly := loops[2].Clone()
	recOnly.RecurrenceOps() // builds the successor lists, not the predecessor lists
	zeroTrip, ld, _ := recurrentLoop()
	zeroTrip.Trips = 0
	warm(zeroTrip)
	zeroTrip.RecurrenceOps()

	for _, tc := range []struct {
		name string
		src  *ddg.Loop
		def  int
	}{
		{"no snapshot", noSnapshot, firstSpillable(noSnapshot)},
		{"recurrence ops without predecessor lists", recOnly, firstSpillable(recOnly)},
		{"zero trips", zeroTrip, ld},
	} {
		var w ddg.Loop
		copyAndCheck(t, &w, big, tc.name+": the large loop")
		copyAndCheck(t, &w, tc.src, tc.name)
		if !spillAndCheck(t, &w, tc.def) {
			t.Fatalf("%s: spilling op %d of the copy did not keep its recurrence analyses", tc.name, tc.def)
		}
	}
	if zeroTrip.Analysis().Validate() == nil {
		t.Fatal("premise broken: the zero-trip loop validates")
	}
}

// firstSpillable returns the first op of l with a result, on no
// recurrence, whose value some other op consumes.
func firstSpillable(l *ddg.Loop) int {
	c := l.Clone()
	rec, succs := c.RecurrenceOps(), c.Succs()
	for v, op := range c.Ops {
		if op.Kind.HasResult() && !rec[v] && len(succs[v]) > 0 {
			return v
		}
	}
	panic(fmt.Sprintf("loop %s has no spillable value", l.Name))
}
