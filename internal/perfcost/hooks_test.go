package perfcost

import (
	"runtime"
	"testing"

	"repro/internal/machine"
)

// TestEvaluateWithModel pins the serving layer's latency-model knob:
// with the access-time-derived model it is exactly Evaluate, and a forced
// model changes only the schedule side (Tc still follows the register
// file).
func TestEvaluateWithModel(t *testing.T) {
	e := testEngine(t, 12)
	c := cfg("2w2")
	tc := e.Timing().Relative(c, 64, 2)
	want := e.Evaluate(c, 64, 2)
	if got := e.EvaluateWithModel(c, 64, 2, machine.ModelForCycleTime(tc)); got != want {
		t.Errorf("EvaluateWithModel(derived) = %+v, want Evaluate's %+v", got, want)
	}
	forced := e.EvaluateWithModel(c, 64, 2, machine.FourCycle)
	if forced.Z != 4 {
		t.Errorf("forced model Z = %d, want 4", forced.Z)
	}
	if forced.Tc != want.Tc || forced.Area != want.Area {
		t.Errorf("forcing the model must not move Tc/Area: %+v vs %+v", forced, want)
	}
}

// TestMemEstimate pins the serving layer's budget unit: base op count at
// construction, growing with each cached width transform.
func TestMemEstimate(t *testing.T) {
	e := testEngine(t, 10)
	var ops int64
	for _, l := range e.Loops() {
		ops += int64(l.NumOps())
	}
	if got := e.MemEstimate(); got != ops {
		t.Fatalf("cold MemEstimate = %d, want the %d base ops", got, ops)
	}
	e.PeakCycles(cfg("1w2"), machine.FourCycle) // caches the width-2 transform
	if got := e.MemEstimate(); got != 2*ops {
		t.Errorf("after one width: MemEstimate = %d, want %d", got, 2*ops)
	}
	e.PeakCycles(cfg("2w2"), machine.FourCycle) // width 2 again: no growth
	if got := e.MemEstimate(); got != 2*ops {
		t.Errorf("after a repeated width: MemEstimate = %d, want %d", got, 2*ops)
	}
}

// TestSteadyStateAllocsWarmEval: a warm SuiteCycles and a warm Evaluate
// are served from the singleflight memo without allocating, so the
// serving layer's eval path pays nothing in the engine.
func TestSteadyStateAllocsWarmEval(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are pinned without the race detector")
	}
	e := testEngine(t, 6)
	c := cfg("2w1")
	e.Evaluate(c, 64, 1)
	model := machine.ModelForCycleTime(e.Timing().Relative(c, 64, 1))
	if n := testing.AllocsPerRun(100, func() { e.SuiteCycles(c, 64, model) }); n != 0 {
		t.Errorf("warm SuiteCycles allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { e.Evaluate(c, 64, 1) }); n != 0 {
		t.Errorf("warm Evaluate allocates %v times, want 0", n)
	}
}

// TestSteadyStateAllocsSpillStudy bounds what a cold SpillStudy of
// Figure 3's nine configurations allocates on the 40-loop test workbench.
// Each loop task copies its widened loop into its worker's loop, analyses
// the copy and writes its base schedules into the worker's buffers, and
// the spill pass copies each base loop into the worker's working loop and
// copies no schedule out. Grouping by machine, with a fresh clone and
// analysis per spilling call and a copied-out schedule, allocated 34 MB;
// the workers measure 8.5 to 11. Each worker warms its own scratch, and
// each P's share of the pool keeps its own workers, so the bound holds
// for two Ps and two workers whatever the host's CPU count (at one it
// reads 7.1, at eight up to 13).
func TestSteadyStateAllocsSpillStudy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are pinned without the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var configs []machine.Config
	for _, s := range []string{"2w1", "1w2", "4w1", "2w2", "1w4", "8w1", "4w2", "2w4", "1w8"} {
		configs = append(configs, cfg(s))
	}
	e := testEngine(t, 40)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.SpillStudy(configs)
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("a cold SpillStudy allocates %.1f MB", mb)
	if mb > 20 {
		t.Errorf("a cold SpillStudy of Figure 3 allocates %.1f MB, want <= 20", mb)
	}
}
