package spill

import (
	"errors"
	"testing"

	"repro/internal/ddg"
	"repro/internal/lifetimes"
	"repro/internal/machine"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/widen"
	"repro/internal/workload"
)

// carriedLoop builds a loop whose register pressure is dominated by
// cross-iteration values: n producers each consumed two iterations later.
func carriedLoop(n int) *ddg.Loop {
	b := ddg.NewBuilder("carried", 100)
	for i := 0; i < n; i++ {
		ld := b.Load(1, "")
		a := b.Op(machine.Add, "")
		st := b.Store(1, "")
		b.Flow(ld, a, 2) // the load's value crosses two iterations
		b.Flow(a, st, 0)
	}
	return b.Build()
}

// TestFallback3SpillsCarriedValues: a register file smaller than the
// cross-iteration floor forces the dist-value spill fallback; the result
// must fit and carry spill code.
func TestFallback3SpillsCarriedValues(t *testing.T) {
	l := carriedLoop(12) // floor ~ 24 live carried values
	m := machine.New(machine.Config{Buses: 2, Width: 1}, 12, machine.FourCycle)
	r, err := Schedule(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatal("carried-value loop must fit 12 registers after spilling")
	}
	if r.Regs > 12 {
		t.Errorf("Regs = %d", r.Regs)
	}
	if err := r.Sched.Validate(); err != nil {
		t.Fatal(err)
	}
	// The final allocation must genuinely fit.
	ls := lifetimes.Compute(r.Sched)
	if _, ok := regalloc.TryAllocate(ls, 12, regalloc.EndFit); !ok {
		t.Error("final schedule does not fit the register file")
	}
}

// TestGrowIIFineStepsNearBoundary: growII must find narrow fitting windows
// (pressure is not locally monotone in the II).
func TestGrowIIFineSteps(t *testing.T) {
	l := carriedLoop(4)
	m := machine.New(machine.Config{Buses: 1, Width: 1}, 10, machine.FourCycle)
	o := (&Options{}).withDefaults()
	base, err := sched.ModuloSchedule(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ls lifetimes.Set
	r, ok := growII(l, m, &o, 10, base.II, base.II*o.MaxIIGrowth+16,
		&ls, regalloc.NewSearch(&ls))
	if ok {
		if r.regs > 10 {
			t.Errorf("growII returned %d regs for a 10-register file", r.regs)
		}
		if err := r.sched.Validate(); err != nil {
			t.Error(err)
		}
	}
}

// TestSpillValueGroupsReloadsByDistance: one reload per distinct consumer
// distance, not per consumer.
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

	stores, loads := spillValue(l, candidate{op: ld})
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
}

// TestSpillValueNoConsumers: nothing to reroute, nothing added.
func TestSpillValueNoConsumers(t *testing.T) {
	b := ddg.NewBuilder("dead", 10)
	ld := b.Load(1, "")
	l := b.Build()
	stores, loads := spillValue(l, candidate{op: ld})
	if stores != 0 || loads != 0 {
		t.Errorf("spill of a dead value added %d stores %d loads", stores, loads)
	}
}

// TestCandidatesExclusions: recurrence values, spill ops, dead values and
// short lifetimes are not candidates.
func TestCandidatesExclusions(t *testing.T) {
	b := ddg.NewBuilder("mix", 100)
	acc := b.Op(machine.Add, "acc")
	b.Flow(acc, acc, 1)
	ld := b.Load(1, "long")
	// The load feeds both ends of a dependence chain: the early consumer
	// pins the load early, the late consumer stretches its lifetime to
	// the chain's span (a single consumer would just be scheduled next to
	// the load — the scheduler shortening lifetimes is it doing its job).
	c1 := b.Op(machine.Mul, "")
	c2 := b.Op(machine.Mul, "")
	c3 := b.Op(machine.Mul, "")
	b.Flow(ld, c1, 0)
	b.Flow(c1, c2, 0)
	b.Flow(c2, c3, 0)
	use := b.Op(machine.Add, "use")
	b.Flow(c3, use, 0)
	b.Flow(ld, use, 0) // lifetime spans the whole chain: >= 16 cycles
	b.Flow(use, acc, 0)
	dead := b.Op(machine.Mul, "dead")
	_ = dead
	l := b.Build()

	m := machine.New(machine.Config{Buses: 1, Width: 1}, 256, machine.FourCycle)
	s, err := sched.ModuloSchedule(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls := lifetimes.Compute(s)
	cands := candidates(l, ls, s.Model)
	for _, c := range cands {
		if c.op == acc {
			t.Error("recurrence value must not be a candidate")
		}
		if c.op == dead {
			t.Error("dead value must not be a candidate")
		}
	}
	found := false
	for _, c := range cands {
		if c.op == ld {
			found = true
		}
	}
	if !found {
		t.Error("the long-lived load must be the prime candidate")
	}
}

// TestRescheduleExhaustsIIBudget pins the slowest cell of Figure 9: loop
// scalar0020 of the 30-loop default workbench, widened for 1w16 with 32
// registers under the 3-cycle model. Its eighth spill reschedule walks
// every II from MII to the sched.safeMaxII cap and fails, so the cap is a
// search budget, not a proof that placement succeeds; the cell then takes
// the flat fallback, whose schedule must exist.
func TestRescheduleExhaustsIIBudget(t *testing.T) {
	w, err := workload.Build("default", 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Config{Buses: 1, Width: 16}
	l, _ := widen.Transform(w.Loops[20], cfg.Width)
	_, err = Schedule(l, machine.New(cfg, 32, machine.ThreeCycle), nil)
	want := `spill: reschedule round 8: sched: no feasible schedule within II budget (MII=378, cap=1263, loop "scalar0020/w16")`
	if err == nil || err.Error() != want || !errors.Is(err, sched.ErrNoSchedule) {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if _, err := sched.ModuloSchedule(l, machine.New(cfg, 1<<20, machine.ThreeCycle), nil); err != nil {
		t.Fatalf("flat fallback: %v", err)
	}
}
