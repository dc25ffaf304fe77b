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
	base, err := sched.ModuloSchedule(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := NewScratch().growII(l, m, 10, base.II, base.II*8+16); g != nil {
		if got := regalloc.MinRegs(lifetimes.Compute(g), regalloc.EndFit); got > 10 {
			t.Errorf("growII returned %d regs for a 10-register file", got)
		}
		if err := g.Validate(); err != nil {
			t.Error(err)
		}
	}
}

// TestSteadyStateAllocsGrowII bounds a failing growII walk: 8 carried
// values on 1w1 with 4 registers, walked from above the base II to just
// below the first II that fits (seven candidates). Every candidate
// reschedules into the pass's buffer with a warm workspace, so the walk
// allocates at most a few times however many IIs it visits (measured:
// 0). A fresh Schedule per candidate would cost 4 allocations each, 28 in
// all.
func TestSteadyStateAllocsGrowII(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are pinned without the race detector")
	}
	l := carriedLoop(8)
	m := machine.New(machine.Config{Buses: 1, Width: 1}, 4, machine.FourCycle)
	base, err := sched.ModuloSchedule(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	scr := NewScratch()
	fit := scr.growII(l, m, 4, base.II+1, base.II*8+16)
	if fit == nil || fit.II < base.II+4 {
		t.Fatalf("premise broken: want a fit well above the base II %d, got %v", base.II, fit)
	}
	fitII := fit.II
	allocs := testing.AllocsPerRun(10, func() {
		if scr.growII(l, m, 4, base.II+1, fitII-1) != nil {
			t.Fatal("a walk below the first fitting II fits")
		}
	})
	if allocs > 4 {
		t.Errorf("a failing growII walk over %d IIs allocates %v times, want <= 4", fitII-base.II-1, allocs)
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
	cands := candidates(l, ls, s.Model, nil)
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
// registers under the 3-cycle model. Its eighth spill reschedule fails at
// every II from MII to the sched.safeMaxII cap, so the cap is a search
// budget, not a proof that placement succeeds; the cell then takes the
// flat fallback, whose schedule must exist. The reschedule's attempt at
// MII does not depend on the II, so it ends the search; the ground truth
// below makes the attempt at each II of the range on its own, and each
// must fail.
func TestRescheduleExhaustsIIBudget(t *testing.T) {
	w, err := workload.Build("default", 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Config{Buses: 1, Width: 16}
	l, _ := widen.Transform(w.Loops[20], cfg.Width)
	m := machine.New(cfg, 32, machine.ThreeCycle)
	// The pass runs in a scratch, whose working loop keeps the loop of the
	// failing round.
	scr := NewScratch()
	base, err := sched.ModuloSchedule(l.Clone(), m, &sched.Options{Workspace: scr.Workspace()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = scr.ScheduleFrom(base, m)
	want := `spill: reschedule round 8: sched: no feasible schedule within II budget (MII=378, cap=1263, loop "scalar0020/w16")`
	if err == nil || err.Error() != want || !errors.Is(err, sched.ErrNoSchedule) {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if _, err := sched.ModuloSchedule(l, machine.New(cfg, 1<<20, machine.ThreeCycle), nil); err != nil {
		t.Fatalf("flat fallback: %v", err)
	}
	if testing.Short() && raceEnabled {
		return // the walk below takes seconds under the race detector
	}
	for ii := 378; ii <= 1263; ii++ {
		_, err := sched.ModuloSchedule(&scr.loop, m, &sched.Options{MinII: ii, Workspace: scr.Workspace()})
		if !errors.Is(err, sched.ErrNoSchedule) {
			t.Fatalf("MinII %d: err = %v, want %v", ii, err, sched.ErrNoSchedule)
		}
	}
}
