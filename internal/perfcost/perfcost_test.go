package perfcost

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/area"
	"repro/internal/loopgen"
	"repro/internal/machine"
)

func cfg(s string) machine.Config {
	c, err := machine.ParseConfig(s)
	if err != nil {
		panic(err)
	}
	return c
}

// testEngine builds an engine over a small deterministic workbench.
func testEngine(t *testing.T, loops int) *Engine {
	t.Helper()
	p := loopgen.Defaults()
	p.Loops = loops
	suite, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	return New(suite, nil)
}

func TestBaselinePoint(t *testing.T) {
	e := testEngine(t, 40)
	b := e.Baseline()
	if b.Tc != 1.0 {
		t.Errorf("baseline Tc = %v, want 1", b.Tc)
	}
	if b.Z != 4 {
		t.Errorf("baseline Z = %d, want 4", b.Z)
	}
	if !b.OK {
		t.Error("baseline must schedule")
	}
	if s := e.Speedup(b); math.Abs(s-1) > 1e-9 {
		t.Errorf("baseline speedup = %v, want 1", s)
	}
	if b.Label() != "1w1(32:1)" {
		t.Errorf("Label = %q", b.Label())
	}
}

func TestSuiteCyclesCached(t *testing.T) {
	e := testEngine(t, 30)
	a := e.SuiteCycles(cfg("2w1"), 128, machine.FourCycle)
	b := e.SuiteCycles(cfg("2w1"), 128, machine.FourCycle)
	if a != b {
		t.Error("cached result differs")
	}
	if !a.OK || a.Cycles <= 0 {
		t.Errorf("suite result = %+v", a)
	}
}

func TestPeakSpeedupBasics(t *testing.T) {
	e := testEngine(t, 60)
	if s := e.PeakSpeedup(cfg("1w1")); math.Abs(s-1) > 1e-12 {
		t.Errorf("PeakSpeedup(1w1) = %v", s)
	}
	prev := 1.0
	for _, c := range []string{"2w1", "4w1", "8w1", "16w1"} {
		s := e.PeakSpeedup(cfg(c))
		if s < prev-1e-9 {
			t.Errorf("peak speedup not monotone at %s: %v after %v", c, s, prev)
		}
		prev = s
	}
}

// TestScheduledMatchesPeakWithBigRF: with 256 registers and the 4-cycle
// model, scheduled cycles come close to the ILP limit (HRMS contract).
func TestScheduledMatchesPeakWithBigRF(t *testing.T) {
	e := testEngine(t, 50)
	for _, c := range []string{"1w1", "2w1", "1w2"} {
		peak := e.PeakCycles(cfg(c), machine.FourCycle)
		got := e.SuiteCycles(cfg(c), 256, machine.FourCycle)
		if !got.OK {
			t.Fatalf("%s must schedule", c)
		}
		if got.Cycles < peak-1e-9 {
			t.Errorf("%s scheduled cycles %.0f below the ILP limit %.0f", c, got.Cycles, peak)
		}
		if got.Cycles > 1.15*peak {
			t.Errorf("%s scheduled cycles %.0f more than 15%% over the limit %.0f",
				c, got.Cycles, peak)
		}
	}
}

func TestEvaluateConsistency(t *testing.T) {
	e := testEngine(t, 30)
	p := e.Evaluate(cfg("2w2"), 64, 2)
	if p.Time != p.Cycles*p.Tc {
		t.Error("Time must equal Cycles x Tc")
	}
	if p.Area != area.Total(cfg("2w2"), 64, 2) {
		t.Error("Area mismatch")
	}
	if p.Tc <= 1 {
		t.Errorf("2w2 Tc = %v, want > 1", p.Tc)
	}
	wantZ := machine.ModelForCycleTime(p.Tc).Z
	if p.Z != wantZ {
		t.Errorf("Z = %d, want %d", p.Z, wantZ)
	}
	tech, _ := area.TechnologyByLambda(0.25)
	if f := p.DieFraction(tech); f <= 0 || f >= 1 {
		t.Errorf("die fraction = %v", f)
	}
}

func TestImplementableRespectsBudget(t *testing.T) {
	e := testEngine(t, 20)
	tech, _ := area.TechnologyByLambda(0.25)
	pts := e.Implementable(tech, 4)
	if len(pts) == 0 {
		t.Fatal("no implementable points at 0.25um")
	}
	for _, p := range pts {
		if p.Area > e.Budget()*tech.ChipLambda2 {
			t.Errorf("%s exceeds the budget", p.Label())
		}
	}
	// The full 16w1 matrix must be absent at 0.25 µm.
	for _, p := range pts {
		if p.Config.Factor() > 4 {
			t.Errorf("factor-%d point %s implementable at 0.25um", p.Config.Factor(), p.Label())
		}
	}
}

func TestTopFiveSortedAndValid(t *testing.T) {
	e := testEngine(t, 40)
	tech, _ := area.TechnologyByLambda(0.18)
	top := e.TopFive(tech, 8)
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("top five has %d entries", len(top))
	}
	for i, p := range top {
		if !p.OK {
			t.Errorf("top entry %s not fully scheduled", p.Label())
		}
		if i > 0 && top[i].Time < top[i-1].Time {
			t.Error("top five not sorted by time")
		}
		if p.Area > e.Budget()*tech.ChipLambda2 {
			t.Errorf("%s over budget", p.Label())
		}
	}
}

func TestSpillStudyShape(t *testing.T) {
	e := testEngine(t, 40)
	rows := e.SpillStudy([]machine.Config{cfg("2w1"), cfg("1w2")})
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Speed-up grows (weakly) with the register file size.
		prev := 0.0
		for _, regs := range machine.RegFileSizes {
			s, ok := r.Speedup[regs]
			if !ok {
				continue
			}
			if s <= 0 {
				t.Errorf("%s %d-RF speedup = %v", r.Config, regs, s)
			}
			if s < prev-0.05 { // small tolerance: allocation is heuristic
				t.Errorf("%s: speedup dropped from %.2f to %.2f as RF grew",
					r.Config, prev, s)
			}
			prev = s
		}
		// With 256 registers spill is rare: speed-up near the ILP limit
		// ratio.
		peakRatio := e.PeakCycles(cfg("1w1"), machine.FourCycle) /
			e.PeakCycles(r.Config, machine.FourCycle)
		if s := r.Speedup[256]; s < 0.75*peakRatio {
			t.Errorf("%s 256-RF speedup %.2f far below peak ratio %.2f",
				r.Config, s, peakRatio)
		}
	}
}

// TestSpillStudyMatchesSuiteCycles pins the batch path to the single-cell
// path: every suite SpillStudy schedules from a shared base schedule equals
// a fresh engine's SuiteCycles for the same cell. 1w8 at 32 and 64
// registers takes the flat fallback (10 and 1 loops), and 8w1 spills
// heavily at every size. With the 1w1 baseline, 4w1 and 8w1 make one width
// group span three bus counts, whose base schedules share each loop's
// copy. The batch runs at GOMAXPROCS 1, 2 and 8, so one task at a time and
// several at once hand the pooled workers from task to task. The exact
// backend repeats the check on a small workbench, where refinement
// replaces a heuristic schedule.
func TestSpillStudyMatchesSuiteCycles(t *testing.T) {
	configs := []machine.Config{cfg("1w8"), cfg("4w1"), cfg("8w1")}
	for _, tc := range []struct {
		name    string
		loops   int
		backend Backend
	}{
		{"heuristic", 40, BackendHeuristic},
		{"exact", 10, BackendExact},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := &Options{Backend: tc.backend}
			single := New(testLoops(t, tc.loops), opts)
			for _, procs := range []int{1, 2, 8} {
				var batch *Engine
				atProcs(procs, func() {
					batch = New(testLoops(t, tc.loops), opts)
					batch.SpillStudy(configs)
				})
				computes := batch.Stats().SuiteComputes
				var failures, spillOps, refined int
				for _, c := range configs {
					for _, regs := range machine.RegFileSizes {
						got := batch.SuiteCycles(c, regs, machine.FourCycle)
						want := single.SuiteCycles(c, regs, machine.FourCycle)
						if got != want {
							t.Errorf("GOMAXPROCS %d: %s/%d: batch %+v, single cell %+v", procs, c, regs, got, want)
						}
						failures += got.Failures
						spillOps += got.SpillOps
						refined += got.ExactRefined
					}
				}
				if batch.Stats().SuiteComputes != computes {
					t.Errorf("GOMAXPROCS %d: SpillStudy left a cell unscheduled", procs)
				}
				if failures == 0 || spillOps == 0 {
					t.Errorf("premise broken: %d fallback loops and %d spill ops, want both > 0", failures, spillOps)
				}
				if tc.backend == BackendExact && refined == 0 {
					t.Error("premise broken: the exact backend refined no loop")
				}
			}
		})
	}
}

// atProcs runs fn at GOMAXPROCS procs, restoring the setting afterwards. An
// engine built inside fn takes procs as its worker count.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestBudgetOption: a tighter budget admits fewer points.
func TestBudgetOption(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 10
	suite, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	tight := New(suite, &Options{Budget: 0.10})
	loose := New(suite, &Options{Budget: 0.20})
	tech, _ := area.TechnologyByLambda(0.25)
	nt := len(tight.Implementable(tech, 4))
	nl := len(loose.Implementable(tech, 4))
	if nt >= nl {
		t.Errorf("10%% budget admits %d points, 20%% admits %d", nt, nl)
	}
}

func TestSpeedupOfFailedPointIsZero(t *testing.T) {
	e := testEngine(t, 10)
	p := Point{OK: false, Time: 100}
	if s := e.Speedup(p); s != 0 {
		t.Errorf("failed point speedup = %v", s)
	}
}

// TestExactBackend pins the backend contract: the exact backend never
// reports a worse suite cell than the heuristic one, and its fingerprint
// differs (its cells never collide with heuristic ones).
func TestExactBackend(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 25
	suite, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	heur := New(suite, nil)
	ex := New(suite, &Options{Backend: BackendExact, ExactBudget: 20_000})
	if heur.Fingerprint() == ex.Fingerprint() {
		t.Fatal("exact backend shares the heuristic fingerprint")
	}
	c := cfg("2w1")
	for _, regs := range []int{32, 256} {
		h := heur.SuiteCycles(c, regs, machine.FourCycle)
		x := ex.SuiteCycles(c, regs, machine.FourCycle)
		if h.ExactRefined != 0 {
			t.Errorf("regs=%d: heuristic backend refined %d loops", regs, h.ExactRefined)
		}
		if x.Cycles > h.Cycles {
			t.Errorf("regs=%d: exact backend worse than heuristic (%.1f > %.1f)", regs, x.Cycles, h.Cycles)
		}
		if x.OK != h.OK && !x.OK {
			t.Errorf("regs=%d: exact backend turned an OK cell unschedulable", regs)
		}
	}
}
