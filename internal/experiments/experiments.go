// Package experiments regenerates every table and figure of the paper's
// evaluation. Each driver returns typed rows plus a tabular form for CSV
// export (Table) and a terminal rendering (Render), built with fmt and
// textplot; the experiment index in README.md maps the drivers to the
// paper's artifacts.
//
// Drivers submit whole panels of design cells to the engine's batch
// evaluators (see perfcost and sweep), and RunAll regenerates the nine
// workbench-backed artifacts concurrently: the engine's singleflight
// schedule cache deduplicates the cells the drivers share, and results
// come back in registry order regardless of completion order.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/perfcost"
	"repro/internal/resultcache"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Result is a regenerated paper artifact: its ID and title, a terminal
// Render, and the Table (header plus data rows) the CSV exporter writes.
type Result = sweep.Artifact

// Context carries the workload-backed engine the drivers share.
type Context struct {
	Engine *perfcost.Engine
	// Workload is the scenario the engine evaluates.
	Workload *workload.Workload
	// Cache, when set, memoizes whole artifacts persistently: Run serves
	// a workbench-backed experiment's render/table/JSON envelope from the
	// store byte-identically without invoking the driver (see
	// resultcache). Set it before the first Run; keys derive from the
	// engine's Fingerprint plus the loops/seed overrides.
	Cache *resultcache.Store
	// loops and seed record the size/seed overrides the context was built
	// with, so cross-workload drivers (the `workloads` experiment) can
	// build the other scenarios at a comparable scale.
	loops int
	seed  int64
}

// NewContext builds a context over a fresh default workbench. loops == 0
// uses the paper's 1180; a smaller count trades fidelity for speed
// (benchmarks use it).
func NewContext(loops int, seed int64) (*Context, error) {
	return NewContextFor(workload.Default, loops, seed)
}

// NewContextFor builds a context over any registered workload scenario,
// with the same loops/seed override semantics as NewContext.
func NewContextFor(name string, loops int, seed int64) (*Context, error) {
	w, err := workload.Build(name, loops, seed)
	if err != nil {
		return nil, err
	}
	c := NewWorkloadContext(w)
	c.loops, c.seed = loops, seed
	return c, nil
}

// NewWorkloadContext builds a context over an already-constructed
// workload (typically one loaded from a file).
func NewWorkloadContext(w *workload.Workload) *Context {
	return &Context{Engine: perfcost.NewFromWorkload(w, nil), Workload: w}
}

// NewContextOver wraps an already-warm engine instead of building a fresh
// one — the serving layer's path, where the engine's schedule caches are
// the whole point. loops and seed record the overrides the engine's
// workload was built with, so cross-workload drivers stay at a comparable
// scale.
func NewContextOver(e *perfcost.Engine, w *workload.Workload, loops int, seed int64) *Context {
	return &Context{Engine: e, Workload: w, loops: loops, seed: seed}
}

// runner produces one artifact.
type runner struct {
	id    string
	title string
	// static marks cost-model-only drivers that never touch the context's
	// workbench: their artifacts are workload-independent, so consumers
	// (the serving layer) can run them without materializing an engine.
	static bool
	run    func(*Context) (Result, error)
}

var registry = []runner{
	{"table1", "SIA technology predictions", true, func(*Context) (Result, error) { return Table1() }},
	{"table2", "Multiported register cell dimensions", true, func(*Context) (Result, error) { return Table2() }},
	{"table3", "Register file area of equal-factor configurations", true, func(*Context) (Result, error) { return Table3() }},
	{"table4", "Relative register file access time", true, func(*Context) (Result, error) { return Table4() }},
	{"table5", "Implementable configurations per technology", true, func(*Context) (Result, error) { return Table5() }},
	{"table6", "Cycle models", true, func(*Context) (Result, error) { return Table6() }},
	{"fig2", "ILP limits of replication and widening", false, func(c *Context) (Result, error) { return Fig2(c.Engine) }},
	{"fig3", "Spill effects under finite register files", false, func(c *Context) (Result, error) { return Fig3(c.Engine) }},
	{"fig4", "Area cost of the configurations", true, func(*Context) (Result, error) { return Fig4() }},
	{"fig6", "Register file partitioning trade-off", true, func(*Context) (Result, error) { return Fig6() }},
	{"fig7", "Relative code size", false, func(c *Context) (Result, error) { return Fig7(c.Engine.Loops()) }},
	{"fig8", "Performance/cost trade-offs at 0.25um", false, func(c *Context) (Result, error) { return Fig8(c.Engine) }},
	{"fig9", "Top five configurations per technology", false, func(c *Context) (Result, error) { return Fig9(c.Engine) }},
	{"workloads", "Cross-workload sensitivity of the headline design points", false, func(c *Context) (Result, error) { return Workloads(c) }},
	{"optgap", "Heuristic optimality gap vs the exact branch-and-bound backend", false, func(c *Context) (Result, error) { return Optgap(c) }},
}

// Static reports whether the experiment's artifact is workload-independent
// (false for unknown ids).
func Static(id string) bool {
	for _, r := range registry {
		if r.id == id {
			return r.static
		}
	}
	return false
}

// IDs lists the experiment identifiers in run order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, r := range registry {
		ids[i] = r.id
	}
	return ids
}

// Titles maps identifiers to descriptions.
func Titles() map[string]string {
	m := make(map[string]string, len(registry))
	for _, r := range registry {
		m[r.id] = r.title
	}
	return m
}

// Run regenerates one artifact by id, serving it from the persistent
// artifact cache when one is attached and holds this (engine, id) cell.
func (c *Context) Run(id string) (Result, error) {
	for _, r := range registry {
		if r.id == id {
			if res, ok := c.cachedRun(r); ok {
				return res, nil
			}
			res, err := r.run(c)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", r.id, err)
			}
			c.cachePut(r, res)
			return res, nil
		}
	}
	ids := IDs()
	sort.Strings(ids)
	return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// RunMany regenerates the named artifacts concurrently and returns them
// in the order requested. Drivers overlap on the shared engine, whose
// singleflight cache schedules each design cell exactly once; the first
// error in request order is reported.
func (c *Context) RunMany(ids []string) ([]Result, error) {
	// Reject unknown ids before any driver runs: a typo must not cost a
	// full regeneration of the valid requests.
	known := map[string]bool{}
	for _, r := range registry {
		known[r.id] = true
	}
	for _, id := range ids {
		if !known[id] {
			valid := IDs()
			sort.Strings(valid)
			return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, valid)
		}
	}

	type outcome struct {
		res Result
		err error
	}
	outcomes := sweep.Map(len(ids), ids, func(id string) outcome {
		res, err := c.Run(id)
		return outcome{res, err}
	})
	out := make([]Result, 0, len(ids))
	for _, o := range outcomes {
		if o.err != nil {
			return nil, o.err
		}
		out = append(out, o.res)
	}
	return out, nil
}

// RunAll regenerates every artifact, concurrently, in registry order.
func (c *Context) RunAll() ([]Result, error) {
	return c.RunMany(IDs())
}

// RunAllSequential regenerates every artifact one driver at a time, in
// registry order: the pre-sweep baseline that TestRunAllMatchesSequential
// checks the concurrent orchestrator against.
func (c *Context) RunAllSequential() ([]Result, error) {
	out := make([]Result, 0, len(registry))
	for _, r := range registry {
		res, err := r.run(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", r.id, err)
		}
		out = append(out, res)
	}
	return out, nil
}
