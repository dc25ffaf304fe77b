package ddg_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/widen"
)

// copyAndCheck makes w a copy of src and checks it: the same loop, w's
// old snapshot reset to the copy's shape (none when w held none), analyses
// equal to a fresh build, and a recurrence-op map that is not src's.
func copyAndCheck(t *testing.T, w, src *ddg.Loop, step string) {
	t.Helper()
	old, _ := ddg.Snapshot(w)
	w.CopyFrom(src)
	if w.Name != src.Name || w.Trips != src.Trips || !slices.Equal(w.Ops, src.Ops) || !slices.Equal(w.Edges, src.Edges) {
		t.Fatalf("%s: the copy differs from its source", step)
	}
	if a, current := ddg.Snapshot(w); a != old || (old != nil && !current) {
		t.Fatalf("%s: CopyFrom did not reset the loop's own snapshot to the copy", step)
	}
	checkAnalysis(t, w, step)
	if sa, _ := ddg.Snapshot(src); sa != nil &&
		reflect.ValueOf(w.RecurrenceOps()).UnsafePointer() == reflect.ValueOf(sa.RecurrenceOps()).UnsafePointer() {
		t.Fatalf("%s: the copy shares its source's recurrence-op map", step)
	}
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
// copy, so no copy writes its source's analyses.
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
		rec := maps.Clone(w.RecurrenceOps()) // each check refills the map
		spilled := 0
		for v := 0; v < len(src.Ops) && spilled < 8; v++ {
			if rec[v] || !w.Ops[v].Kind.HasResult() || len(w.Succs()[v]) == 0 {
				continue
			}
			spillAndCheck(t, &w, v)
			spilled++
		}
		if !slices.Equal(src.Ops, ops) || !slices.Equal(src.Edges, edges) {
			t.Fatalf("%s: spilling the copy changed the source", src.Name)
		}
		checkAnalysis(t, src, src.Name+" after its copy spilled")
	}
	for _, src := range srcs {
		checkAnalysis(t, src, src.Name+" after later copies")
	}
}

// TestCopyFromSources copies sources whose snapshots hold few analyses or
// none, on a working loop that already holds a larger loop's storage: a
// loop without a snapshot, one whose snapshot holds recurrence ops but no
// predecessor lists, and a zero-trip loop that fails Validate. The copy
// reads nothing of a source's snapshot, so each must match a fresh build
// all the same.
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
		spillAndCheck(t, &w, tc.def)
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
