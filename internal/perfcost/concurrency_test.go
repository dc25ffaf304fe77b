package perfcost

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sweep"
)

// TestEngineSingleflight hammers one engine from many goroutines over
// overlapping suite keys (run under -race in CI) and asserts each unique
// (config, registers, cycle model) cell is scheduled exactly once — the
// singleflight contract that keeps the concurrent sweep no more expensive
// than the sequential one. Single-cell SuiteCycles callers race batch
// callers (EvaluateMany and SpillStudy) whose machine groups claim
// overlapping cells.
func TestEngineSingleflight(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 20
	suite, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	e := New(suite, nil)

	keys := []struct {
		cfg  machine.Config
		regs int
	}{
		{cfg("1w1"), 32}, {cfg("1w1"), 64},
		{cfg("2w1"), 64}, {cfg("1w2"), 64},
		{cfg("2w2"), 128},
	}
	// The batch cells: 1w1/32 is a SuiteCycles key under its selected
	// model (4-cycle), and SpillStudy adds 1w1/256 and every 2w1 size under
	// the 4-cycle model, overlapping 1w1/64's group and 2w1/64.
	cells := []sweep.Cell{
		{Config: cfg("1w1"), Regs: 32, Partitions: 1},
		{Config: cfg("2w1"), Regs: 64, Partitions: 2},
		{Config: cfg("2w1"), Regs: 128, Partitions: 2},
		{Config: cfg("1w2"), Regs: 64, Partitions: 1},
	}
	study := []machine.Config{cfg("2w1")}

	const hammerers = 24
	results := make([][]SuiteResult, hammerers)
	points := make([][]Point, hammerers)
	rows := make([][]SpillRow, hammerers)
	var wg sync.WaitGroup
	for g := 0; g < hammerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 1:
				rot := append(append([]sweep.Cell(nil), cells[g%len(cells):]...), cells[:g%len(cells)]...)
				pts := e.EvaluateMany(rot)
				points[g] = make([]Point, len(cells))
				for i, p := range pts {
					points[g][(i+g)%len(cells)] = p
				}
			case 2:
				rows[g] = e.SpillStudy(study)
			default:
				// Each goroutine walks the keys in a different rotation
				// so every cell sees concurrent duplicate arrivals.
				results[g] = make([]SuiteResult, len(keys))
				for i := range keys {
					k := keys[(i+g)%len(keys)]
					results[g][(i+g)%len(keys)] = e.SuiteCycles(k.cfg, k.regs, machine.FourCycle)
				}
			}
		}(g)
	}
	wg.Wait()

	unique := map[suiteKey]bool{}
	for _, k := range keys {
		unique[suiteKey{k.cfg.Buses, k.cfg.Width, k.regs, 4}] = true
	}
	for _, c := range cells {
		z := machine.ModelForCycleTime(e.Timing().Relative(c.Config, c.Regs, c.Partitions)).Z
		unique[suiteKey{c.Config.Buses, c.Config.Width, c.Regs, z}] = true
	}
	unique[suiteKey{1, 1, 256, 4}] = true
	for _, c := range study {
		for _, regs := range machine.RegFileSizes {
			unique[suiteKey{c.Buses, c.Width, regs, 4}] = true
		}
	}
	if got := e.Stats().SuiteComputes; got != int64(len(unique)) {
		t.Errorf("SuiteComputes = %d, want %d (one per unique cell)", got, len(unique))
	}
	// Two widths were requested (1 and 2): each transformed exactly once.
	if got := e.Stats().WidenComputes; got != 2 {
		t.Errorf("WidenComputes = %d, want 2", got)
	}
	// Every hammerer of a kind observed the same memoized results.
	for g := 3; g < hammerers; g++ {
		ref := g % 3
		switch ref {
		case 1:
			for i := range cells {
				if points[g][i] != points[ref][i] {
					t.Fatalf("goroutine %d saw a different point for %s", g, cells[i].Label())
				}
			}
		case 2:
			if len(rows[g][0].Speedup) != len(rows[ref][0].Speedup) {
				t.Fatalf("goroutine %d saw %d register file sizes, want %d",
					g, len(rows[g][0].Speedup), len(rows[ref][0].Speedup))
			}
			for regs, s := range rows[ref][0].Speedup {
				if rows[g][0].Speedup[regs] != s {
					t.Fatalf("goroutine %d saw a different %d-RF speedup", g, regs)
				}
			}
		default:
			for i := range keys {
				if results[g][i] != results[0][i] {
					t.Fatalf("goroutine %d saw a different result for %s(%d)",
						g, keys[i].cfg, keys[i].regs)
				}
			}
		}
	}
}

// TestEvaluateManyMatchesSequential pins the batch API to the point-by-
// point evaluator: same cells, same order, identical points as a fresh
// engine that evaluates the cells one at a time (so the batch's shared
// base schedules cannot drift from the single-cell path) — and the
// duplicate cell in the panel costs no extra schedule. The batch runs at
// GOMAXPROCS 1, 2 and 8.
func TestEvaluateManyMatchesSequential(t *testing.T) {
	cells := []sweep.Cell{
		{Config: cfg("1w1"), Regs: 32, Partitions: 1},
		{Config: cfg("2w1"), Regs: 64, Partitions: 2},
		{Config: cfg("1w2"), Regs: 64, Partitions: 1},
		{Config: cfg("2w1"), Regs: 64, Partitions: 1}, // same suite, new partitioning
		{Config: cfg("2w1"), Regs: 32, Partitions: 1}, // same machine, another file
		{Config: cfg("1w1"), Regs: 32, Partitions: 1}, // exact duplicate
	}
	seq := testEngine(t, 15)
	for _, procs := range []int{1, 2, 8} {
		var e *Engine
		var batch []Point
		atProcs(procs, func() {
			e = testEngine(t, 15)
			batch = e.EvaluateMany(cells)
		})
		if len(batch) != len(cells) {
			t.Fatalf("GOMAXPROCS %d: %d points for %d cells", procs, len(batch), len(cells))
		}
		for i, c := range cells {
			want := seq.Evaluate(c.Config, c.Regs, c.Partitions)
			if batch[i] != want {
				t.Errorf("GOMAXPROCS %d: cell %d (%s): batch %+v != sequential %+v", procs, i, c.Label(), batch[i], want)
			}
		}
		// 1w1/32, 2w1/64, 1w2/64 and 2w1/32 under their selected cycle
		// models; the duplicate and the re-partitioned cell reuse cached
		// suites unless the partitioning changed the cycle model.
		// Exact-once is the invariant: computes never exceeds unique suite
		// keys.
		unique := map[suiteKey]bool{}
		for _, p := range batch {
			unique[suiteKey{p.Config.Buses, p.Config.Width, p.Regs, p.Z}] = true
		}
		if got := e.Stats().SuiteComputes; got != int64(len(unique)) {
			t.Errorf("GOMAXPROCS %d: SuiteComputes = %d, want %d unique suites", procs, got, len(unique))
		}
	}
}

// TestWorkersKeepNoLoop: the pooled workers keep no loop of an engine
// reachable once the engine is gone. A Figure 3 SpillStudy leaves workers
// whose last tasks spilled; one cell that does not spill (2w1, 256
// registers, 3-cycle model) then makes each worker's last schedule a base
// schedule, the last loop its workspace placed. One collection after the
// engine is dropped, the pool's victim cache still holds the workers, and
// every workbench and widened loop must be gone.
func TestWorkersKeepNoLoop(t *testing.T) {
	loops := func() []weak.Pointer[ddg.Loop] {
		e := testEngine(t, 24)
		var configs []machine.Config
		for _, s := range []string{"2w1", "1w2", "4w1", "2w2", "1w4", "8w1", "4w2", "2w4", "1w8"} {
			configs = append(configs, cfg(s))
		}
		e.SpillStudy(configs)
		e.SuiteCycles(cfg("2w1"), 256, machine.ThreeCycle)
		var ptrs []weak.Pointer[ddg.Loop]
		for _, l := range e.Loops() {
			ptrs = append(ptrs, weak.Make(l))
		}
		for _, width := range []int{1, 2, 4, 8} {
			for _, l := range e.widenedLoops(width) {
				ptrs = append(ptrs, weak.Make(l))
			}
		}
		if got := e.Stats().WidenComputes; got != 4 {
			t.Fatalf("premise broken: %d widths transformed, want 4", got)
		}
		return ptrs
	}()
	runtime.GC()
	kept := 0
	for _, p := range loops {
		if p.Value() != nil {
			kept++
		}
	}
	if kept != 0 {
		t.Errorf("%d of %d workbench and widened loops stay reachable after their engine is gone", kept, len(loops))
	}
}
