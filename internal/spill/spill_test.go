package spill

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/ddg"
	"repro/internal/lifetimes"
	"repro/internal/machine"
	"repro/internal/mrt"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/widen"
	"repro/internal/workload"
)

func mach(cfg string, regs int) machine.Machine {
	c, err := machine.ParseConfig(cfg)
	if err != nil {
		panic(err)
	}
	return machine.New(c, regs, machine.FourCycle)
}

// finalRegs is the end-fit register count of an OK result's schedule.
func finalRegs(r Result) int {
	return regalloc.MinRegs(lifetimes.Compute(r.Sched), regalloc.EndFit)
}

// parallelChains builds n independent load -> mul -> add -> store chains:
// high ILP, high register pressure at low II.
func parallelChains(n int) *ddg.Loop {
	b := ddg.NewBuilder("chains", 100)
	for i := 0; i < n; i++ {
		ld := b.Load(1, "")
		m := b.Op(machine.Mul, "")
		a := b.Op(machine.Add, "")
		st := b.Store(1, "")
		b.Flow(ld, m, 0)
		b.Flow(m, a, 0)
		b.Flow(a, st, 0)
	}
	return b.Build()
}

func TestNoSpillWhenFits(t *testing.T) {
	l := parallelChains(2)
	r, err := Schedule(l, mach("1w1", 256), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatal("must fit in 256 registers")
	}
	if r.SpillStores != 0 || r.SpillLoads != 0 {
		t.Errorf("no spill expected, got %d stores %d loads", r.SpillStores, r.SpillLoads)
	}
	if got := finalRegs(r); got > 256 {
		t.Errorf("Regs = %d", got)
	}
	if r.II() != r.BaseII {
		t.Errorf("II %d != BaseII %d without spill", r.II(), r.BaseII)
	}
	if err := r.Sched.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSpillRelievesPressure(t *testing.T) {
	// A long-lived value: one load feeding a consumer 6 iterations later,
	// replicated to create pressure. dist-6 use means lifetime ~ 6*II.
	b := ddg.NewBuilder("faruse", 100)
	for i := 0; i < 6; i++ {
		ld := b.Load(1, "")
		ad := b.Op(machine.Add, "")
		st := b.Store(1, "")
		b.Flow(ld, ad, 6) // value crosses 6 iterations
		b.Flow(ad, st, 0)
	}
	l := b.Build()

	m := mach("4w1", 16)
	// Confirm the unconstrained requirement exceeds 16.
	s0, err := sched.ModuloSchedule(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	need := regalloc.MinRegs(lifetimes.Compute(s0), regalloc.EndFit)
	if need <= 16 {
		t.Skipf("test premise broken: base requirement %d <= 16", need)
	}

	r, err := Schedule(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatal("spilling must make the loop fit 16 registers")
	}
	if r.SpillStores == 0 && r.II() == r.BaseII {
		t.Error("expected spill code or II growth")
	}
	if got := finalRegs(r); got > 16 {
		t.Errorf("final Regs = %d > 16", got)
	}
	if err := r.Sched.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := r.Loop.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpillAddsMemoryTraffic(t *testing.T) {
	b := ddg.NewBuilder("faruse", 100)
	for i := 0; i < 6; i++ {
		ld := b.Load(1, "")
		ad := b.Op(machine.Add, "")
		b.Flow(ld, ad, 5)
	}
	l := b.Build()
	r, err := Schedule(l, mach("2w1", 12), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatal("must fit after spilling")
	}
	if r.SpillStores > 0 {
		base := l.Counts()
		final := r.Loop.Counts()
		wantStores := base[machine.Store] + r.SpillStores
		wantLoads := base[machine.Load] + r.SpillLoads
		if final[machine.Store] != wantStores || final[machine.Load] != wantLoads {
			t.Errorf("op counts: stores %d want %d, loads %d want %d",
				final[machine.Store], wantStores, final[machine.Load], wantLoads)
		}
		// Spill ops are flagged.
		spillOps := 0
		for _, op := range r.Loop.Ops {
			if op.Spill {
				spillOps++
			}
		}
		if spillOps != r.SpillStores+r.SpillLoads {
			t.Errorf("flagged spill ops = %d, want %d", spillOps, r.SpillStores+r.SpillLoads)
		}
	}
}

func TestUnschedulableRecurrentPressure(t *testing.T) {
	// Two independent accumulators: each value lives a full II (self use
	// at distance 1), so two registers are needed at any II, and
	// recurrence values are not spillable: a 1-register file must fail.
	b := ddg.NewBuilder("accums", 100)
	for i := 0; i < 2; i++ {
		a := b.Op(machine.Add, "")
		b.Flow(a, a, 1)
	}
	l := b.Build()
	r, err := Schedule(l, mach("1w1", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK {
		t.Fatalf("2 live accumulators cannot fit 1 register (got Regs=%d II=%d)", finalRegs(r), r.II())
	}
}

func TestSpillFitsEventually(t *testing.T) {
	// The paper's mechanism at small scale: aggressive machine + tiny RF.
	l := parallelChains(10)
	r, err := Schedule(l, mach("8w1", 24), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatal("must fit 24 registers after spilling / II growth")
	}
	if got := finalRegs(r); got > 24 {
		t.Errorf("Regs = %d", got)
	}
	if err := r.Sched.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpillPenalizesII(t *testing.T) {
	// With a small RF the final II must not beat the unconstrained II.
	l := parallelChains(10)
	rBig, err := Schedule(l, mach("8w1", 256), nil)
	if err != nil {
		t.Fatal(err)
	}
	rSmall, err := Schedule(l, mach("8w1", 24), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rBig.OK || !rSmall.OK {
		t.Fatal("both must schedule")
	}
	if rSmall.II() < rBig.II() {
		t.Errorf("constrained II %d beats unconstrained %d", rSmall.II(), rBig.II())
	}
}

func TestWideSpill(t *testing.T) {
	// Widened loop under pressure: spill ops must be wide like the values
	// they spill.
	l := parallelChains(8)
	wideLoop, _ := widen.Transform(l, 2)
	m := machine.New(machine.Config{Buses: 2, Width: 2}, 16, machine.FourCycle)
	r, err := Schedule(wideLoop, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Skip("8-chain wide loop does not fit 16 registers even spilled")
	}
	for _, op := range r.Loop.Ops {
		if op.Spill && op.Wide && op.Lanes != 2 {
			t.Errorf("wide spill op %q has %d lanes", op.Name, op.Lanes)
		}
	}
}

func TestDeterminism(t *testing.T) {
	l := parallelChains(8)
	m := mach("4w1", 20)
	r1, err := Schedule(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Schedule(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.OK != r2.OK || r1.II() != r2.II() || (r1.OK && finalRegs(r1) != finalRegs(r2)) ||
		r1.SpillStores != r2.SpillStores || r1.SpillLoads != r2.SpillLoads {
		t.Errorf("results differ: %+v vs %+v", r1, r2)
	}
}

// TestWideRegistersReduceSpill is the paper's central Section 3.2 claim in
// miniature: at equal peak operation rate and equal register count, the
// widened configuration needs fewer registers (wide values pack Y words
// per register), so it spills less and keeps a lower per-iteration II.
func TestWideRegistersReduceSpill(t *testing.T) {
	l := parallelChains(12)

	// 8w1 with 32 registers.
	rRepl, err := Schedule(l, mach("8w1", 32), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4w2 with 32 (wide) registers: transform by 2, II covers 2 iterations.
	wideLoop, _ := widen.Transform(l, 2)
	m42 := machine.New(machine.Config{Buses: 4, Width: 2}, 32, machine.FourCycle)
	rWide, err := Schedule(wideLoop, m42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rWide.OK {
		t.Fatal("4w2 must schedule")
	}
	perIterWide := float64(rWide.II()) / 2
	if rRepl.OK {
		perIterRepl := float64(rRepl.II())
		if perIterWide > perIterRepl {
			t.Errorf("4w2 per-iteration II %.1f worse than 8w1 %.1f under equal registers",
				perIterWide, perIterRepl)
		}
		if rWide.SpillStores > rRepl.SpillStores {
			t.Errorf("4w2 spills more than 8w1: %d vs %d stores",
				rWide.SpillStores, rRepl.SpillStores)
		}
	}
}

// sameResult reports how the outcomes of two results differ, or "".
func sameResult(a, b Result) string {
	switch {
	case a.OK != b.OK || a.II() != b.II() || a.BaseII != b.BaseII || a.Rounds != b.Rounds:
		return fmt.Sprintf("OK %v/%v, II %d/%d, base II %d/%d, rounds %d/%d",
			a.OK, b.OK, a.II(), b.II(), a.BaseII, b.BaseII, a.Rounds, b.Rounds)
	case a.SpillStores != b.SpillStores || a.SpillLoads != b.SpillLoads:
		return fmt.Sprintf("spill %d+%d / %d+%d", a.SpillStores, a.SpillLoads, b.SpillStores, b.SpillLoads)
	}
	return ""
}

// sameSchedule reports how two schedules differ in II, times or
// reservations, or "".
func sameSchedule(a, b *sched.Schedule) string {
	switch {
	case (a == nil) != (b == nil):
		return fmt.Sprintf("schedule %v / %v", a != nil, b != nil)
	case a == nil:
		return ""
	case a.II != b.II || !slices.Equal(a.Time, b.Time):
		return fmt.Sprintf("II %d / %d, times %v / %v", a.II, b.II, a.Time, b.Time)
	}
	sameRes := func(x, y mrt.Reservation) bool { return x.Class == y.Class && slices.Equal(x.Spans, y.Spans) }
	if !slices.EqualFunc(a.Res, b.Res, sameRes) {
		return fmt.Sprintf("reservations %v / %v", a.Res, b.Res)
	}
	return ""
}

// checkFrom runs ScheduleFrom from base in scr, a scratch the caller
// reuses across calls, and checks it against want, the Schedule result for
// the same loop and machine: the same outcome, no schedule or loop, and,
// through the pass, the same accepted schedule.
func checkFrom(scr *Scratch, base *sched.Schedule, m machine.Machine, want Result) (Result, string) {
	got, err := scr.ScheduleFrom(base, m)
	if err != nil {
		return got, err.Error()
	}
	if d := sameResult(got, want); d != "" {
		return got, "ScheduleFrom differs from Schedule: " + d
	}
	if got.Sched != nil || got.Loop != nil {
		return got, "ScheduleFrom returned a schedule or a loop"
	}
	res, s, err := scr.pass(base, m)
	if err != nil {
		return got, err.Error()
	}
	if d := sameResult(res, want); d != "" {
		return got, "the pass differs from Schedule: " + d
	}
	if d := sameSchedule(s, want.Sched); d != "" {
		return got, "the pass accepted another schedule than Schedule: " + d
	}
	return got, ""
}

// Property: on random loops and small register files, the pass terminates
// with a consistent result: either OK with a validating schedule that fits,
// or a clean failure. ScheduleFrom over a base schedule of a clone of the
// loop reports the same outcome as Schedule, and its pass accepts the same
// schedule.
func TestSpillRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	scr := NewScratch()
	for trial := 0; trial < 60; trial++ {
		b := ddg.NewBuilder("rand", 100)
		var results []int
		nOps := 4 + rng.Intn(16)
		for i := 0; i < nOps; i++ {
			switch rng.Intn(5) {
			case 0:
				results = append(results, b.Load(1, ""))
			case 1:
				st := b.Store(1, "")
				if len(results) > 0 {
					b.Flow(results[rng.Intn(len(results))], st, 0)
				}
			default:
				op := b.Op(machine.Add, "")
				if len(results) > 0 {
					b.Flow(results[rng.Intn(len(results))], op, rng.Intn(3))
				}
				results = append(results, op)
			}
		}
		l := b.Build()
		regs := 4 + rng.Intn(12)
		cfgs := []string{"1w1", "2w1", "4w1"}
		m := mach(cfgs[rng.Intn(len(cfgs))], regs)

		r, err := Schedule(l, m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		base, err := sched.ModuloSchedule(l.Clone(), m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, d := checkFrom(scr, base, m, r); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
		if !r.OK {
			continue
		}
		if r.Loop != r.Sched.Loop {
			t.Fatalf("trial %d: Loop is not Sched.Loop", trial)
		}
		if err := r.Sched.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := r.Loop.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := regalloc.MinRegs(lifetimes.Compute(r.Sched), regalloc.EndFit); got > regs {
			t.Fatalf("trial %d: final allocation %d does not fit %d", trial, got, regs)
		}
	}
}

// sharedBases returns the first n loops of the default workbench widened
// for cfg, with one base schedule each under the 4-cycle model.
func sharedBases(t *testing.T, n int, cfg machine.Config) []*sched.Schedule {
	t.Helper()
	w, err := workload.Build("default", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	bases := make([]*sched.Schedule, len(w.Loops))
	for i, src := range w.Loops {
		l, _ := widen.Transform(src, cfg.Width)
		bases[i], err = sched.ModuloSchedule(l, machine.New(cfg, 1<<20, machine.FourCycle), nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	return bases
}

// TestScheduleFromSharedBase runs the pass the way a batch does: one base
// schedule per loop of a default-workbench slice widened for 4w2, reused
// for every register file size, and one scratch reused for every call.
// Each result equals Schedule's, and base and its loop are never modified.
func TestScheduleFromSharedBase(t *testing.T) {
	cfg := machine.Config{Buses: 4, Width: 2}
	scr := NewScratch()
	spilled := 0
	for _, base := range sharedBases(t, 30, cfg) {
		l := base.Loop
		baseTime, ops, edges := slices.Clone(base.Time), len(l.Ops), slices.Clone(l.Edges)
		for _, regs := range []int{32, 64} {
			m := machine.New(cfg, regs, machine.FourCycle)
			want, err := Schedule(l, m, nil)
			if err != nil {
				t.Fatalf("%s/%d: %v", l.Name, regs, err)
			}
			got, d := checkFrom(scr, base, m, want)
			if d != "" {
				t.Fatalf("%s/%d: %s", l.Name, regs, d)
			}
			if got.SpillStores > 0 {
				spilled++
			}
		}
		if !slices.Equal(base.Time, baseTime) || len(l.Ops) != ops || !slices.Equal(l.Edges, edges) {
			t.Fatalf("%s: the pass modified its base schedule or loop", l.Name)
		}
	}
	if spilled == 0 {
		t.Fatal("premise broken: no loop spilled at 4w2 with 32 registers")
	}
}

// TestScheduleResultsOutliveScratch: Schedule's results are private. Every
// result kept across the later calls on other loops still validates, is
// unchanged, and holds its schedule's loop.
func TestScheduleResultsOutliveScratch(t *testing.T) {
	w, err := workload.Build("default", 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Config{Buses: 4, Width: 2}
	type kept struct {
		r     Result
		time  []int
		ops   []ddg.Op
		edges []ddg.Edge
	}
	var results []kept
	spilled := 0
	for _, src := range w.Loops {
		l, _ := widen.Transform(src, cfg.Width)
		for _, regs := range []int{32, 64} {
			r, err := Schedule(l, machine.New(cfg, regs, machine.FourCycle), nil)
			if err != nil {
				t.Fatalf("%s/%d: %v", l.Name, regs, err)
			}
			if !r.OK {
				continue
			}
			if r.SpillStores > 0 {
				spilled++
			}
			results = append(results, kept{r, slices.Clone(r.Sched.Time), slices.Clone(r.Loop.Ops), slices.Clone(r.Loop.Edges)})
		}
	}
	if spilled == 0 {
		t.Fatal("premise broken: no kept result carries spill code")
	}
	for _, k := range results {
		name := k.r.Loop.Name
		if k.r.Sched.Loop != k.r.Loop {
			t.Fatalf("%s: a result holds another loop than its schedule's", name)
		}
		if err := k.r.Sched.Validate(); err != nil {
			t.Errorf("%s: a returned schedule no longer validates: %v", name, err)
		}
		if !slices.Equal(k.r.Sched.Time, k.time) || !slices.Equal(k.r.Loop.Ops, k.ops) || !slices.Equal(k.r.Loop.Edges, k.edges) {
			t.Errorf("%s: a returned schedule or loop changed under later calls", name)
		}
	}
}

// TestScheduleFromConcurrent: goroutines running ScheduleFrom over shared
// base schedules, each with its own scratch, report exactly what a
// sequential run reports.
func TestScheduleFromConcurrent(t *testing.T) {
	cfg := machine.Config{Buses: 4, Width: 2}
	bases := sharedBases(t, 20, cfg)
	regs := []int{32, 64}
	want := make([]Result, len(bases)*len(regs))
	scr := NewScratch()
	for i, base := range bases {
		for k, r := range regs {
			res, err := scr.ScheduleFrom(base, machine.New(cfg, r, machine.FourCycle))
			if err != nil {
				t.Fatal(err)
			}
			want[i*len(regs)+k] = res
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each worker starts at another cell, so the calls overlap on
			// different bases as well as on the same ones.
			scr := NewScratch()
			for j := range want {
				c := (j + g*len(want)/workers) % len(want)
				base, r := bases[c/len(regs)], regs[c%len(regs)]
				got, err := scr.ScheduleFrom(base, machine.New(cfg, r, machine.FourCycle))
				if err != nil {
					t.Errorf("worker %d: %s/%d: %v", g, base.Loop.Name, r, err)
					return
				}
				if d := sameResult(got, want[c]); d != "" {
					t.Errorf("worker %d: %s/%d differs from the sequential run: %s", g, base.Loop.Name, r, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestScheduleFromRejectsOtherMachine: a base schedule made for another
// cycle model or another configuration, or an invalid register file, is an
// error, not a silently wrong result.
func TestScheduleFromRejectsOtherMachine(t *testing.T) {
	l := parallelChains(4)
	base, err := sched.ModuloSchedule(l, mach("2w1", 256), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := machine.Config{Buses: 2, Width: 1}
	for _, m := range []machine.Machine{
		machine.New(c, 32, machine.ThreeCycle),
		mach("4w1", 32),
		machine.New(c, 0, machine.FourCycle),
	} {
		if _, err := NewScratch().ScheduleFrom(base, m); err == nil {
			t.Errorf("ScheduleFrom accepted a 2w1 4-cycle base schedule for %s z=%d", m, m.Model.Z)
		}
	}
	if _, err := NewScratch().ScheduleFrom(base, mach("2w1", 32)); err != nil {
		t.Errorf("matching machine: %v", err)
	}
}

// TestSteadyStateAllocsScheduleFromBytes bounds the bytes a warm
// ScheduleFrom allocates per inserted spill operation, over the loops of
// the 40-loop default slice that spill at 2w4 with 32 registers, in one
// scratch. The pass copies the base loop into the scratch's working loop,
// whose one analysis snapshot every copy and spill resets in place, and
// copies no schedule out, so what remains is each spill's new operation
// names. A fresh loop clone with a rebuilt analysis per call and a
// copied-out schedule cost 1605 bytes per spill operation; the scratch's
// pass measures 8.
func TestSteadyStateAllocsScheduleFromBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are pinned without the race detector")
	}
	cfg := machine.Config{Buses: 2, Width: 4}
	m := machine.New(cfg, 32, machine.FourCycle)
	scr := NewScratch()
	var spilling []*sched.Schedule
	spillOps := 0
	for _, base := range sharedBases(t, 40, cfg) {
		r, err := scr.ScheduleFrom(base, m)
		if err != nil {
			t.Fatal(err)
		}
		if n := r.SpillStores + r.SpillLoads; n > 0 {
			spilling = append(spilling, base)
			spillOps += n
		}
	}
	if len(spilling) < 10 {
		t.Fatalf("premise broken: %d loops spill at 2w4 with 32 registers, want at least 10", len(spilling))
	}
	run := func() {
		for _, base := range spilling {
			if _, err := scr.ScheduleFrom(base, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The scratch has met every loop above, so the run is warm.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	perOp := float64(bytes) / float64(spillOps)
	t.Logf("%.0f bytes per spill operation (%d bytes, %d operations over %d loops)", perOp, bytes, spillOps, len(spilling))
	if perOp > 256 {
		t.Errorf("a warm ScheduleFrom allocates %.0f bytes per spill operation (%d bytes, %d operations over %d loops), want <= 256",
			perOp, bytes, spillOps, len(spilling))
	}
}
