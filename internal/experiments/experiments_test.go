package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

var (
	ctxOnce sync.Once
	ctx     *Context
	ctxErr  error
)

// testContext returns a shared moderate-size context. The full tier uses
// 150 loops, which preserves the calibrated shapes the fidelity tests
// pin; the short tier trades the workbench down so `go test -short`
// finishes in well under a minute, and the tests whose assertions need
// the full workbench skip themselves via skipShortFidelity.
func testContext(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() {
		loops := 150
		if testing.Short() {
			loops = 60
		}
		ctx, ctxErr = NewContext(loops, 0)
	})
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	return ctx
}

// skipShortFidelity skips assertions calibrated against the 150-loop test
// workbench; the reduced short-mode workbench preserves those shapes only
// loosely.
func skipShortFidelity(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-fidelity pins need the full test workbench")
	}
}

// TestRunAllMatchesSequential pins the sweep orchestrator's contract: the
// concurrent RunAll produces byte-identical renders, in registry order, to
// the sequential baseline at equal workbench and seed.
func TestRunAllMatchesSequential(t *testing.T) {
	if testing.Short() {
		// Two full regenerations do not fit the short budget; the golden
		// render tests guard output stability in the short tier.
		t.Skip("full-tier test: regenerates every artifact twice")
	}
	seq, err := NewContext(20, 11)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := NewContext(20, 11)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.RunAllSequential()
	if err != nil {
		t.Fatal(err)
	}
	got, err := conc.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != len(registry) {
		t.Fatalf("concurrent %d results, sequential %d, registry %d",
			len(got), len(want), len(registry))
	}
	for i := range registry {
		if got[i].ID() != registry[i].id {
			t.Errorf("result %d is %s, want registry order %s", i, got[i].ID(), registry[i].id)
		}
		if got[i].Render() != want[i].Render() {
			t.Errorf("%s: concurrent render deviates from sequential", got[i].ID())
		}
	}
}

// TestWorkloadsExperiment drives the cross-workload sensitivity table in
// every tier over its own small context: each registered scenario must
// evaluate end-to-end, and the paper's combine-both headline (4w2 over
// pure replication's 8w1) must hold on the default scenario.
func TestWorkloadsExperiment(t *testing.T) {
	c, err := NewContext(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Workloads(c)
	if err != nil {
		t.Fatal(err)
	}
	names := workload.Names()
	if len(res.Rows) != len(names) {
		t.Fatalf("%d rows, want one per scenario (%d)", len(res.Rows), len(names))
	}
	for i, name := range names {
		row := res.Rows[i]
		if row.Name != name {
			t.Errorf("row %d is %q, want registry order %q", i, row.Name, name)
		}
		if row.Loops < 1 || row.Ops < 1 {
			t.Errorf("%s: empty suite (%d loops, %d ops)", name, row.Loops, row.Ops)
		}
		if len(row.Cells) != len(HeadlineLabels()) {
			t.Fatalf("%s: %d cells", name, len(row.Cells))
		}
		ok := 0
		for _, cell := range row.Cells {
			if cell.OK {
				ok++
				if cell.Speedup <= 0 {
					t.Errorf("%s %s: schedulable point with speed-up %v", name, cell.Label, cell.Speedup)
				}
			}
		}
		if ok == 0 {
			t.Errorf("%s: no headline point schedules", name)
		}
	}
	wide, okW := res.Speedup(workload.Default, "4w2(128:4)")
	rep, okR := res.Speedup(workload.Default, "8w1(128:8)")
	if !okW || !okR || wide <= rep {
		t.Errorf("default: 4w2 (%.2f) must beat 8w1 (%.2f)", wide, rep)
	}
	out := res.Render()
	for _, name := range names {
		if !strings.Contains(out, name) {
			t.Errorf("render missing scenario %s", name)
		}
	}
	if tab := res.Table(); len(tab) != len(names)+1 {
		t.Errorf("table has %d rows", len(tab))
	}
}

// TestNewContextFor covers scenario-parametric context construction.
func TestNewContextFor(t *testing.T) {
	c, err := NewContextFor("kernels", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workload == nil || c.Workload.Name != "kernels" {
		t.Fatalf("context workload = %+v", c.Workload)
	}
	if got := c.Engine.WorkloadName(); got != "kernels" {
		t.Errorf("engine workload = %q", got)
	}
	res, err := c.Run("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Render()) == 0 {
		t.Error("empty render over the kernels workload")
	}
	if _, err := NewContextFor("nope", 0, 0); err == nil {
		t.Error("unknown scenario must error")
	}
}

// TestRunManyOrderAndErrors covers subset runs and error propagation.
func TestRunManyOrderAndErrors(t *testing.T) {
	c := testContext(t)
	res, err := c.RunMany([]string{"table6", "table1", "fig6"})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"table6", "table1", "fig6"} {
		if res[i].ID() != id {
			t.Errorf("result %d = %s, want %s (request order)", i, res[i].ID(), id)
		}
	}
	if _, err := c.RunMany([]string{"table1", "nope"}); err == nil {
		t.Error("unknown id in a batch must error")
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 15 {
		t.Fatalf("%d experiments, want 15", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %s", id)
		}
		seen[id] = true
	}
	titles := Titles()
	for _, id := range ids {
		if titles[id] == "" {
			t.Errorf("missing title for %s", id)
		}
	}
	c := testContext(t)
	if _, err := c.Run("nope"); err == nil {
		t.Error("unknown id must error")
	}
}

func TestStaticArtifacts(t *testing.T) {
	c := testContext(t)
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5", "table6", "fig4", "fig6"} {
		res, err := c.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.ID() != id {
			t.Errorf("%s: ID() = %s", id, res.ID())
		}
		out := res.Render()
		if len(out) < 40 {
			t.Errorf("%s: render too short:\n%s", id, out)
		}
	}
}

func TestTable2Fidelity(t *testing.T) {
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		// All cells within 20% of the paper; the first four exact.
		if row.DeviationPercent < -1 || row.DeviationPercent > 20 {
			t.Errorf("%dR%dW deviation %.1f%% out of band", row.Reads, row.Writes, row.DeviationPercent)
		}
	}
	for _, row := range r.Rows[:4] {
		if row.Width != row.PaperW || row.Height != row.PaperH {
			t.Errorf("%dR%dW: model %dx%d vs paper %dx%d",
				row.Reads, row.Writes, row.Width, row.Height, row.PaperW, row.PaperH)
		}
	}
}

func TestTable4Fidelity(t *testing.T) {
	r, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 60 {
		t.Fatalf("%d entries", len(r.Entries))
	}
	if r.MeanErr > 0.04 || r.MaxErr > 0.12 {
		t.Errorf("fit quality: mean %.3f max %.3f", r.MeanErr, r.MaxErr)
	}
}

// TestTable5PaperSpots pins cells of the paper's Table 5.
func TestTable5PaperSpots(t *testing.T) {
	r, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	lambda := func(cfg string, regs, parts int) float64 {
		for _, c := range r.Cells {
			if c.Config.String() == cfg && c.Regs == regs && c.Partitions == parts {
				return c.Lambda
			}
		}
		t.Fatalf("cell %s(%d:%d) missing", cfg, regs, parts)
		return 0
	}
	if got := lambda("1w1", 32, 1); got != 0.25 {
		t.Errorf("1w1(32:1) first tech = %v, want 0.25", got)
	}
	if got := lambda("2w1", 64, 1); got != 0.25 {
		t.Errorf("2w1(64:1) first tech = %v, want 0.25", got)
	}
	if got := lambda("2w1", 128, 1); got != 0.18 {
		t.Errorf("2w1(128:1) first tech = %v, want 0.18", got)
	}
	if got := lambda("16w1", 256, 16); got != 0 {
		t.Errorf("16w1(256:16) = %v, want never (paper symbol 5)", got)
	}
	// Widening is cheaper: 1w4 must be implementable no later (no smaller
	// feature size) than 4w1 at the same register file size.
	if lambda("1w4", 64, 1) < lambda("4w1", 64, 1) {
		t.Error("1w4 must be implementable no later than 4w1")
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if r.Rows[0].RelativeArea != 1 || r.Rows[0].RelativeTime != 1 {
		t.Error("1-block row must be the unit reference")
	}
	last := r.Rows[len(r.Rows)-1]
	if last.RelativeArea < 1.5 || last.RelativeArea > 2.8 {
		t.Errorf("8-block area ratio %.2f, want ~2", last.RelativeArea)
	}
	if last.RelativeTime > 0.75 {
		t.Errorf("8-block time ratio %.2f, want well below 1", last.RelativeTime)
	}
}

func TestFig2PaperShape(t *testing.T) {
	c := testContext(t)
	res, err := Fig2(c.Engine)
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(s string) machine.Config {
		cc, err := machine.ParseConfig(s)
		if err != nil {
			t.Fatal(err)
		}
		return cc
	}
	if s := res.Speedup(cfg("128w1")); s < 8 || s > 13 {
		t.Errorf("replication saturation = %.2f, want ~10", s)
	}
	if s := res.Speedup(cfg("1w128")); s < 3.5 || s > 6.5 {
		t.Errorf("widening saturation = %.2f, want ~5", s)
	}
	if s := res.Speedup(cfg("2w64")); s < 6.5 || s > 9.5 {
		t.Errorf("2wY saturation = %.2f, want ~8", s)
	}
	out := res.Render()
	if !strings.Contains(out, "replication-only") || !strings.Contains(out, "widening-only") {
		t.Error("render missing curves")
	}
}

// TestFig3PaperCrossover pins the paper's central Section 3.2 result: the
// wide register file's extra capacity makes 4w2 outperform 8w1 at 64 and
// 128 registers even though 8w1 has the higher ILP limit.
func TestFig3PaperCrossover(t *testing.T) {
	c := testContext(t)
	res, err := Fig3(c.Engine)
	if err != nil {
		t.Fatal(err)
	}
	for _, regs := range []int{64, 128} {
		w, okW := res.Speedup("4w2", regs)
		r, okR := res.Speedup("8w1", regs)
		if !okW {
			t.Fatalf("4w2 %d-RF must schedule", regs)
		}
		if okR && w < r {
			t.Errorf("%d-RF: 4w2 (%.2f) must beat 8w1 (%.2f)", regs, w, r)
		}
		t.Logf("%d-RF: 4w2=%.2f 8w1=%.2f", regs, w, func() float64 { return r }())
	}
	// Speed-ups grow with the register file for every configuration.
	for _, row := range res.Rows {
		prev := 0.0
		for _, regs := range machine.RegFileSizes {
			if s, ok := row.Speedup[regs]; ok {
				if s < prev-0.05 {
					t.Errorf("%s: speed-up fell from %.2f to %.2f", row.Config, prev, s)
				}
				prev = s
			}
		}
	}
	if s, ok := res.Speedup("1w2", 64); ok {
		// 1w2 nearly saturates at 64 registers (paper: "achieves almost
		// its maximum performance with a 64-RF").
		if full, okF := res.Speedup("1w2", 256); okF && s < 0.9*full {
			t.Errorf("1w2: 64-RF %.2f far from 256-RF %.2f", s, full)
		}
	}
	t.Log("\n" + res.Render())
}

// TestSteadyStateAllocsTable5 bounds the warm artifact path on a 100-loop
// default context: regenerating Table 5 from the engine caches, without
// its render (measured 19 allocations).
func TestSteadyStateAllocsTable5(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are measured without the race detector")
	}
	c, err := NewContext(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := testing.AllocsPerRun(20, func() {
		if _, err := c.Run("table5"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Run(table5): %v allocs", run)
	if run > 20 {
		t.Errorf("warm Run(table5) allocates %v times, want <= 20", run)
	}
}
