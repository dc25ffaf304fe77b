package ddg_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/widen"
)

// slots are the (buses, FPUs) pairs the differential checks read MII at.
var slots = [][2]int{{1, 2}, {2, 4}, {4, 8}}

// warm reads every analysis a reschedule reads, under every cycle model,
// so a following Spill or CopyFrom has a snapshot to reset with every
// analysis computed, each of which the reset must drop.
func warm(l *ddg.Loop) {
	a := l.Analysis()
	a.Validate()
	a.Preds()
	for _, model := range machine.CycleModels() {
		a.ALAP(model)
		a.HRMSOrder(model)
		a.RecPrio(model)
		a.CriticalPath(model)
		for _, s := range slots {
			a.MII(model, s[0], s[1])
		}
	}
}

// sameLists reports whether two per-node edge lists hold the same edges
// in the same order.
func sameLists(a, b [][]ddg.Edge) bool {
	return slices.EqualFunc(a, b, func(x, y []ddg.Edge) bool { return slices.Equal(x, y) })
}

// checks counts checkAnalysis calls. A fuzz input resets it, so each input
// checks the same cycle models whenever it runs.
var checks int

// checkAnalysis compares every analysis of l's current snapshot with a
// fresh build over a clone of l. The tables and the HRMS order, whose
// sort makes it the costliest analysis to compare, it compares at one
// cycle model per call, rotating through the four: a Spill or a CopyFrom
// drops every model's arrays together, so a chain of checks reaches each
// model within four.
func checkAnalysis(t *testing.T, l *ddg.Loop, step string) {
	t.Helper()
	models := machine.CycleModels()
	rotated := models[checks%len(models)]
	checks++
	got, want := l.Analysis(), l.Clone().Analysis()
	if g, w := fmt.Sprint(got.Validate()), fmt.Sprint(want.Validate()); g != w {
		t.Fatalf("%s: Validate = %s, fresh %s", step, g, w)
	}
	if !sameLists(got.Preds(), want.Preds()) {
		t.Fatalf("%s: Preds = %v, fresh %v", step, got.Preds(), want.Preds())
	}
	if !sameLists(got.Succs(), want.Succs()) {
		t.Fatalf("%s: Succs = %v, fresh %v", step, got.Succs(), want.Succs())
	}
	if !slices.EqualFunc(got.SCCs(), want.SCCs(), slices.Equal) {
		t.Fatalf("%s: SCCs = %v, fresh %v", step, got.SCCs(), want.SCCs())
	}
	if !maps.Equal(got.RecurrenceOps(), want.RecurrenceOps()) {
		t.Fatalf("%s: RecurrenceOps = %v, fresh %v", step, got.RecurrenceOps(), want.RecurrenceOps())
	}
	for _, model := range models {
		if g, w := got.ASAP(model), want.ASAP(model); !slices.Equal(g, w) {
			t.Fatalf("%s, %v: ASAP = %v, fresh %v", step, model, g, w)
		}
		if g, w := got.ALAP(model), want.ALAP(model); !slices.Equal(g, w) {
			t.Fatalf("%s, %v: ALAP = %v, fresh %v", step, model, g, w)
		}
		if g, w := got.CriticalPath(model), want.CriticalPath(model); g != w {
			t.Fatalf("%s, %v: CriticalPath = %d, fresh %d", step, model, g, w)
		}
		if g, w := got.RecPrio(model), want.RecPrio(model); !slices.Equal(g, w) {
			t.Fatalf("%s, %v: RecPrio = %v, fresh %v", step, model, g, w)
		}
		if g, w := got.RecMII(model), want.RecMII(model); g != w {
			t.Fatalf("%s, %v: RecMII = %d, fresh %d", step, model, g, w)
		}
		for _, s := range slots {
			if g, w := got.MII(model, s[0], s[1]), want.MII(model, s[0], s[1]); g != w {
				t.Fatalf("%s, %v, %v: MII = %d, fresh %d", step, model, s, g, w)
			}
		}
	}
	gl, gocc := got.Tables(rotated)
	wl, wocc := want.Tables(rotated)
	if !slices.Equal(gl, wl) || !slices.Equal(gocc, wocc) {
		t.Fatalf("%s, %v: Tables = %v %v, fresh %v %v", step, rotated, gl, gocc, wl, wocc)
	}
	if g, w := got.HRMSOrder(rotated), want.HRMSOrder(rotated); !slices.Equal(g, w) {
		t.Fatalf("%s, %v: HRMSOrder = %v, fresh %v", step, rotated, g, w)
	}
}

// spillAndCheck spills def and checks the loop's analyses against a fresh
// build. When Spill rewrote the loop, a loop that held a snapshot must
// still hold the same one, reset to the loop's shape, and a loop that held
// none must still hold none.
func spillAndCheck(t *testing.T, l *ddg.Loop, def int) {
	t.Helper()
	old, _ := ddg.Snapshot(l)
	if stores, _ := l.Spill(def); stores > 0 {
		if a, current := ddg.Snapshot(l); a != old || (old != nil && !current) {
			t.Fatalf("spill of op %d in %s: the loop's snapshot was not reset in place", def, l.Name)
		}
	}
	checkAnalysis(t, l, fmt.Sprintf("%s after spilling op %d", l.Name, def))
}

// TestSpillDerivesAnalysis spills chains of values on the 40-loop default
// slice, widened for every factor of the paper's configurations, and after
// every Spill compares the reset snapshot with a fresh build.
func TestSpillDerivesAnalysis(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 40
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2, 4, 8} {
		for _, src := range loops {
			wl, _ := widen.Transform(src, width)
			l := wl.Clone()
			warm(l)
			rec := maps.Clone(l.RecurrenceOps()) // each check refills the map
			spilled := 0
			for v := 0; v < len(l.Ops) && spilled < 8; v++ {
				if rec[v] || !l.Ops[v].Kind.HasResult() || l.Ops[v].Spill {
					continue
				}
				spillAndCheck(t, l, v)
				spilled++
			}
		}
	}
}

// recurrentLoop builds ld -> acc -> st with acc accumulating across
// iterations, plus a second consumer of acc.
func recurrentLoop() (l *ddg.Loop, ld, acc int) {
	b := ddg.NewBuilder("rec", 100)
	ld = b.Load(1, "ld")
	acc = b.Op(machine.Add, "acc")
	use := b.Op(machine.Mul, "use")
	st := b.Store(1, "st")
	b.Flow(ld, acc, 0)
	b.Flow(acc, acc, 1)
	b.Flow(acc, use, 0)
	b.Flow(use, st, 0)
	return b.Build(), ld, acc
}

// TestSpillRecurrentRebuilds: spilling a recurrence value resets the
// snapshot, and the rebuild of its recurrence analyses matches a fresh
// build.
func TestSpillRecurrentRebuilds(t *testing.T) {
	l, _, acc := recurrentLoop()
	warm(l)
	spillAndCheck(t, l, acc)
}

// TestSpillWithoutSnapshot: a loop that never built an analysis is only
// rewritten, and a later spill resets the snapshot built after it.
func TestSpillWithoutSnapshot(t *testing.T) {
	l, ld, acc := recurrentLoop()
	spillAndCheck(t, l, ld)
	warm(l)
	spillAndCheck(t, l, acc+1) // use, which feeds the store
}

// TestSpillConsumedBySpillOps: a value whose consumers are all spill ops
// has nothing to reroute; the loop and its snapshot stay as they were.
func TestSpillConsumedBySpillOps(t *testing.T) {
	l, ld, _ := recurrentLoop()
	warm(l)
	if st, lds := l.Spill(ld); st != 1 || lds != 1 {
		t.Fatalf("first spill added %d stores and %d loads, want 1 and 1", st, lds)
	}
	a, nOps, nEdges := l.Analysis(), len(l.Ops), len(l.Edges)
	if st, lds := l.Spill(ld); st != 0 || lds != 0 {
		t.Fatalf("re-spill added %d stores and %d loads", st, lds)
	}
	if l.Analysis() != a || len(l.Ops) != nOps || len(l.Edges) != nEdges {
		t.Fatal("a spill with nothing to reroute changed the loop or its snapshot")
	}
}

// TestSpillKeepsValidating: a reset snapshot validates the loop again, so
// a shape error reported before a spill is still reported after it.
func TestSpillKeepsValidating(t *testing.T) {
	l, ld, _ := recurrentLoop()
	l.Trips = 0
	warm(l)
	spillAndCheck(t, l, ld)
	if l.Analysis().Validate() == nil {
		t.Fatal("the reset snapshot accepts a loop with no trips")
	}
}

// TestSpillValueGroupsReloads: one reload per distinct consumer distance,
// not per consumer.
func TestSpillValueGroupsReloads(t *testing.T) {
	b := ddg.NewBuilder("multi", 10)
	ld := b.Load(1, "src")
	u1 := b.Op(machine.Add, "")
	u2 := b.Op(machine.Add, "")
	u3 := b.Op(machine.Add, "")
	b.Flow(ld, u1, 0)
	b.Flow(ld, u2, 0)
	b.Flow(ld, u3, 2)
	l := b.Build()

	stores, loads := l.Spill(ld)
	if stores != 1 {
		t.Errorf("stores = %d, want 1", stores)
	}
	if loads != 2 { // one for the two dist-0 uses, one for the dist-2 use
		t.Errorf("loads = %d, want 2 (grouped by distance)", loads)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// The original producer now feeds only its spill store.
	for _, e := range l.Edges {
		if e.From == ld && !l.Ops[e.To].Spill {
			t.Errorf("unrerouted consumer edge %d->%d", e.From, e.To)
		}
	}
	names := []string{l.Ops[4].Name, l.Ops[5].Name, l.Ops[6].Name}
	if want := []string{"spst0", "spld0.0", "spld0.2"}; !slices.Equal(names, want) {
		t.Errorf("spill op names = %v, want %v", names, want)
	}
}

// TestSpillValueNoConsumers: nothing to reroute, nothing added.
func TestSpillValueNoConsumers(t *testing.T) {
	b := ddg.NewBuilder("dead", 10)
	ld := b.Load(1, "")
	l := b.Build()
	stores, loads := l.Spill(ld)
	if stores != 0 || loads != 0 {
		t.Errorf("spill of a dead value added %d stores %d loads", stores, loads)
	}
}

// FuzzSpillDerivesAnalysis spills random ops, recurrent or not, of
// generated loops in a random order, and after every Spill that is
// followed by a read compares the loop's analyses with a fresh build. It
// then replays each loop's spill sequence on one working loop reused
// across the input's loops, made a copy of the pristine loop with
// CopyFrom, and checks the replay the same way and against the original.
func FuzzSpillDerivesAnalysis(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(5), uint8(0), int64(1))
	f.Add(int64(7), uint8(66), uint8(25), uint8(2), int64(3))
	f.Add(int64(1998), uint8(40), uint8(12), uint8(3), int64(42))
	f.Fuzz(func(t *testing.T, seed int64, maxOps, recur, widthExp uint8, order int64) {
		checks = 0
		p := loopgen.Defaults()
		p.Loops, p.Seed = 3, seed
		p.MaxOps = p.MinOps + int(maxOps)%67
		p.RecurFrac = float64(recur%27) / 100
		loops, err := loopgen.Workbench(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(order))
		type step struct {
			def  int
			read bool
		}
		var w ddg.Loop
		for _, src := range loops {
			wl, _ := widen.Transform(src, 1<<(widthExp%4))
			warm(wl)
			wl.RecurrenceOps()
			l := wl.Clone()
			warm(l)
			var steps []step
			for i := 0; i < 12; i++ {
				s := step{rng.Intn(len(l.Ops)), rng.Intn(4) != 0}
				steps = append(steps, s)
				if !s.read {
					l.Spill(s.def) // chain without reading in between
					continue
				}
				spillAndCheck(t, l, s.def)
			}
			checkAnalysis(t, l, l.Name+" at the end")

			w.CopyFrom(wl)
			checkAnalysis(t, &w, wl.Name+" copied")
			for _, s := range steps {
				if !s.read {
					w.Spill(s.def)
					continue
				}
				spillAndCheck(t, &w, s.def)
			}
			checkAnalysis(t, &w, wl.Name+" replayed at the end")
			if !slices.Equal(w.Ops, l.Ops) || !slices.Equal(w.Edges, l.Edges) {
				t.Fatalf("%s: the replay on the working loop differs from the original", wl.Name)
			}
		}
	})
}

// TestSteadyStateAllocsSpill bounds one Spill plus the analyses the
// reschedule after it reads, over chains of up to eight spills on each
// loop of the 40-loop default slice. Rebuilding the analysis after every
// spill cost 27 allocations per step; resetting the snapshot in place
// measures 3: the new ops' names and the amortized growth of the loop's
// and the snapshot's slices. The edge lists are rebuilt in the snapshot's
// own slabs, so no step allocates an edge slab of its own.
func TestSteadyStateAllocsSpill(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are pinned without the race detector")
	}
	p := loopgen.Defaults()
	p.Loops = 40
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		l   *ddg.Loop
		def int
	}
	var steps []step
	for _, src := range loops {
		l := src.Clone()
		warm(l)
		rec, succs := l.RecurrenceOps(), l.Succs()
		chain := 0
		for v, op := range l.Ops {
			if chain < 8 && !rec[v] && op.Kind.HasResult() && len(succs[v]) > 0 {
				steps = append(steps, step{l, v})
				chain++
			}
		}
	}
	model := machine.FourCycle
	next := 0
	allocs := testing.AllocsPerRun(len(steps)-1, func() {
		s := steps[next]
		next++
		s.l.Spill(s.def)
		a := s.l.Analysis()
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		a.Preds()
		a.Succs()
		a.ALAP(model)
		a.RecPrio(model)
		a.MII(model, 2, 4)
		a.CriticalPath(model)
	})
	if allocs > 10 {
		t.Errorf("Spill plus a reschedule's analyses allocates %.1f times, want <= 10", allocs)
	}
}

// TestSteadyStateAllocsCopyFrom bounds one CopyFrom into a warm working
// loop plus the HRMS order of the copy, over the 40-loop default slice
// widened for factor 2. The copy resets the working loop's own snapshot,
// and the order recomputes the edge lists, SCCs and RecPrio into it; once
// every array, slab and the counting scratch have grown to the largest
// loop, a step allocates nothing.
func TestSteadyStateAllocsCopyFrom(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are pinned without the race detector")
	}
	p := loopgen.Defaults()
	p.Loops = 40
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	model := machine.FourCycle
	var srcs []*ddg.Loop
	for _, l := range loops {
		wl, _ := widen.Transform(l, 2)
		srcs = append(srcs, wl)
	}
	var w ddg.Loop
	step := func(src *ddg.Loop) {
		w.CopyFrom(src)
		w.Analysis().HRMSOrder(model)
	}
	for _, src := range srcs {
		step(src)
	}
	next := 0
	allocs := testing.AllocsPerRun(len(srcs)-1, func() {
		step(srcs[next%len(srcs)])
		next++
	})
	if allocs > 0 {
		t.Errorf("CopyFrom plus the copy's HRMS order allocates %.2f times, want 0", allocs)
	}
}
