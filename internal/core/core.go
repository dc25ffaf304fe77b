// Package core is the public API of the widening-resources reproduction:
// a facade over the machine model, the widening transformation, the modulo
// scheduler with register allocation and spill insertion, the area/timing
// cost models and the performance/cost design-space engine.
//
// Quick start — software-pipeline one kernel for a 2w2 machine with 64
// wide registers:
//
//	rep, err := core.ScheduleLoop(core.Kernel("daxpy"), core.MustConfig("2w2"), 64)
//	fmt.Println(rep.Format())
//
// Explore the design space the paper explores:
//
//	loops, _ := core.DefaultWorkbench()
//	ds := core.NewDesignSpace(loops)
//	for _, tech := range core.Technologies() {
//	    for _, p := range ds.TopFive(tech) {
//	        fmt.Println(tech, p.Label(), ds.Speedup(p))
//	    }
//	}
package core

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/ddg"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/lifetimes"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/perfcost"
	"repro/internal/regalloc"
	"repro/internal/resultcache"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/spill"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/widen"
	"repro/internal/workload"
)

// Re-exported types: the facade's vocabulary.
type (
	// Config is a processor configuration XwY.
	Config = machine.Config
	// CycleModel is an FPU latency model (Table 6).
	CycleModel = machine.CycleModel
	// Loop is an inner-loop dependence graph.
	Loop = ddg.Loop
	// Point is an evaluated design point of the Section 5 study.
	Point = perfcost.Point
	// Technology is one SIA roadmap generation.
	Technology = area.Technology
	// WorkbenchParams controls synthetic workload generation.
	WorkbenchParams = loopgen.Params
	// ExperimentResult is a regenerated paper artifact.
	ExperimentResult = experiments.Result
	// Cell is one design-space cell (configuration, registers,
	// partitions) for the batch evaluators.
	Cell = sweep.Cell
	// Workload is a named, serializable loop suite (see the workload
	// registry: Workloads, BuildWorkload, LoadWorkload).
	Workload = workload.Workload
	// WorkloadInfo describes a registered workload scenario.
	WorkloadInfo = workload.Info
	// SuiteStats aggregates a workload's shape (compactability,
	// recurrences, operation mix).
	SuiteStats = loopgen.SuiteStats
)

// Serving layer re-exports: the long-lived HTTP/JSON design-space server
// (warm per-workload engines, LRU eviction under a memory budget) and its
// typed client. See `widening serve` and examples/servequery.
type (
	// Server is the design-space query service.
	Server = serve.Server
	// ServeOptions configures a Server (budget, preload, suite overrides).
	ServeOptions = serve.Options
	// ServeClient is the typed Go client for the serve API.
	ServeClient = serve.Client
	// ServeEvalRequest selects one design cell for ServeClient.Eval.
	ServeEvalRequest = serve.EvalRequest
	// ServeSweepRequest is a panel of cells for ServeClient.Sweep.
	ServeSweepRequest = serve.SweepRequest
	// ServeSweepCell is one requested cell of a sweep.
	ServeSweepCell = serve.SweepCell
	// ServePoint is one evaluated cell as the API reports it.
	ServePoint = serve.Point
)

// NewServer builds the design-space query server and warms any preloaded
// engines. When some — but not all — preload entries fail, the server is
// returned alongside the joined error so callers can continue with the
// engines that warmed; when every entry fails, the server is nil.
func NewServer(opts ServeOptions) (*Server, error) { return serve.New(opts) }

// NewServeClient targets a running server's base URL.
func NewServeClient(base string) *ServeClient { return serve.NewClient(base) }

// Fleet re-exports: the sharded serving tier — a consistent-hash router
// over N serve backends with one failure state machine per backend,
// idempotent retries and mid-stream sweep failover. See `widening
// route` and the README's Fleet section.
type (
	// FleetRouter is the fault-tolerant consistent-hash front door.
	FleetRouter = fleet.Router
	// FleetOptions configures a FleetRouter (backends, probe cadence,
	// failure thresholds, retry policy).
	FleetOptions = fleet.Options
	// FleetRetryPolicy bounds per-request retries.
	FleetRetryPolicy = fleet.RetryPolicy
)

// NewFleetRouter builds the router and starts its health-probe loop.
func NewFleetRouter(opts FleetOptions) (*FleetRouter, error) { return fleet.New(opts) }

// FleetRetryable classifies an error as safe to retry against another
// replica (transport failures, truncated sweep streams, gateway
// statuses — never a backend's deterministic answer).
func FleetRetryable(err error) bool { return fleet.Retryable(err) }

// Persistent result cache re-exports: the disk-backed content-addressed
// store memoizing sweep cells and whole artifacts across processes. See
// internal/resultcache, the -cache flags, and `widening cache`.
type (
	// ResultCache is the disk-backed content-addressed result store.
	ResultCache = resultcache.Store
	// ResultCacheStats snapshots a store's hit/miss/corruption counters.
	ResultCacheStats = resultcache.Stats
	// ResultCacheUsage reports a store directory's contents.
	ResultCacheUsage = resultcache.Usage
)

// ResultCacheEpoch is the on-disk entry format version.
const ResultCacheEpoch = resultcache.FormatEpoch

// OpenResultCache opens (creating as needed) a persistent result cache
// rooted at dir.
func OpenResultCache(dir string) (*ResultCache, error) { return resultcache.Open(dir) }

// DefaultWorkload is the name of the calibrated default scenario.
const DefaultWorkload = workload.Default

// WorkloadRegistered reports whether name is a registered scenario.
// Registered names always win over files and imports of the same name in
// workload resolution.
func WorkloadRegistered(name string) bool { return workload.Registered(name) }

// Workloads describes the registered workload scenarios.
func Workloads() []WorkloadInfo { return workload.Infos() }

// WorkloadNames lists the registered scenario names.
func WorkloadNames() []string { return workload.Names() }

// BuildWorkload constructs a registered scenario; loops and seed override
// the scenario defaults when non-zero (fixed libraries ignore both).
func BuildWorkload(name string, loops int, seed int64) (*Workload, error) {
	return workload.Build(name, loops, seed)
}

// LoadWorkload reads and validates a workload file (see SaveWorkload).
func LoadWorkload(path string) (*Workload, error) { return workload.Load(path) }

// SaveWorkload writes a workload to the serializable JSON file format
// built on the ddg loop IR (EncodeLoop/DecodeLoop).
func SaveWorkload(w *Workload, path string) error { return workload.Save(w, path) }

// WorkloadStats aggregates the suite statistics of a workload.
func WorkloadStats(w *Workload) SuiteStats { return w.Stats() }

// EncodeLoop serializes one loop to the stable JSON IR.
func EncodeLoop(l *Loop) ([]byte, error) { return ddg.EncodeJSON(l) }

// DecodeLoop parses and strictly validates a serialized loop.
func DecodeLoop(data []byte) (*Loop, error) { return ddg.DecodeJSON(data) }

// ParseConfig parses the paper's XwY notation (e.g. "4w2").
func ParseConfig(s string) (Config, error) { return machine.ParseConfig(s) }

// MustConfig parses XwY notation and panics on malformed input; intended
// for literals in examples and tests.
func MustConfig(s string) Config {
	c, err := machine.ParseConfig(s)
	if err != nil {
		panic(err)
	}
	return c
}

// Technologies returns the five SIA generations of Table 1.
func Technologies() []Technology { return area.SIA() }

// DefaultWorkbench generates the calibrated 1180-loop synthetic workbench
// standing in for the paper's Perfect Club loop suite.
func DefaultWorkbench() ([]*Loop, error) {
	return loopgen.Workbench(loopgen.Defaults())
}

// Workbench generates a workload with custom parameters; start from
// DefaultWorkbenchParams.
func Workbench(p WorkbenchParams) ([]*Loop, error) { return loopgen.Workbench(p) }

// DefaultWorkbenchParams returns the calibrated generation parameters.
func DefaultWorkbenchParams() WorkbenchParams { return loopgen.Defaults() }

// Kernels returns the hand-written classic kernel library.
func Kernels() []*Loop { return loopgen.Kernels() }

// Kernel returns a kernel by name (nil if unknown); see Kernels.
func Kernel(name string) *Loop { return loopgen.KernelByName(name) }

// LoopReport is the outcome of software-pipelining one loop on one
// machine configuration.
type LoopReport struct {
	// Config and Regs identify the machine.
	Config Config
	Regs   int
	// Transformed is the width-transformed loop that was scheduled.
	Transformed *Loop
	// Schedule is the final modulo schedule.
	Schedule *sched.Schedule
	// II is the initiation interval of the transformed loop; one kernel
	// iteration covers Config.Width source iterations.
	II int
	// CyclesPerIteration is II divided by the width: the throughput
	// metric the paper reports.
	CyclesPerIteration float64
	// Registers is the wide-register requirement of the final schedule.
	Registers int
	// MaxLive is the lower bound the allocation achieved Registers against.
	MaxLive int
	// SpillStores and SpillLoads count inserted spill operations.
	SpillStores, SpillLoads int
	// Stages is the pipeline depth of the kernel.
	Stages int
}

// Format renders the report with the kernel schedule.
func (r *LoopReport) Format() string {
	head := fmt.Sprintf(
		"%s, %d registers: II=%d (%.2f cycles/iteration), %d regs (MaxLive %d), spill %d st + %d ld, %d stages\n",
		r.Config, r.Regs, r.II, r.CyclesPerIteration, r.Registers, r.MaxLive,
		r.SpillStores, r.SpillLoads, r.Stages)
	return head + r.Schedule.Format()
}

// ErrUnschedulable reports that a loop cannot be pipelined within the
// register file even with spill code (the paper's 8w1 32-RF case).
var ErrUnschedulable = fmt.Errorf("core: loop unschedulable within the register file")

// ScheduleLoop width-transforms and software-pipelines a source loop on
// configuration cfg with a register file of regs wide registers, under the
// 4-cycles latency model (use ScheduleLoopModel for others).
func ScheduleLoop(l *Loop, cfg Config, regs int) (*LoopReport, error) {
	return ScheduleLoopModel(l, cfg, regs, machine.FourCycle)
}

// ScheduleLoopModel is ScheduleLoop under an explicit cycle model.
func ScheduleLoopModel(l *Loop, cfg Config, regs int, model CycleModel) (*LoopReport, error) {
	if l == nil {
		return nil, fmt.Errorf("core: nil loop")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	transformed, _ := widen.Transform(l, cfg.Width)
	m := machine.New(cfg, regs, model)
	res, err := spill.Schedule(transformed, m, nil)
	if err != nil {
		return nil, err
	}
	if !res.OK {
		return nil, fmt.Errorf("%w: %s on %s with %d registers", ErrUnschedulable, l.Name, cfg, regs)
	}
	ls := lifetimes.Compute(res.Sched)
	return &LoopReport{
		Config:             cfg,
		Regs:               regs,
		Transformed:        res.Loop,
		Schedule:           res.Sched,
		II:                 res.II(),
		CyclesPerIteration: float64(res.II()) / float64(cfg.Width),
		Registers:          res.Regs,
		MaxLive:            ls.MaxLive(),
		SpillStores:        res.SpillStores,
		SpillLoads:         res.SpillLoads,
		Stages:             res.Sched.Stages(),
	}, nil
}

// RegisterRequirement returns the wide-register requirement of the loop on
// the configuration at the unconstrained (no spill) schedule — the measure
// behind the paper's Section 3.2.
func RegisterRequirement(l *Loop, cfg Config, model CycleModel) (int, error) {
	transformed, _ := widen.Transform(l, cfg.Width)
	m := machine.New(cfg, 1<<20, model)
	s, err := sched.ModuloSchedule(transformed, m, nil)
	if err != nil {
		return 0, err
	}
	return regalloc.MinRegs(lifetimes.Compute(s), regalloc.EndFit), nil
}

// DesignSpace evaluates configurations over a workbench: the paper's
// Section 5 engine.
type DesignSpace struct {
	engine *perfcost.Engine
}

// NewDesignSpace builds a design-space evaluator over the loops.
func NewDesignSpace(loops []*Loop) *DesignSpace {
	return &DesignSpace{engine: perfcost.New(loops, nil)}
}

// NewDesignSpaceWorkload builds a design-space evaluator over a workload.
func NewDesignSpaceWorkload(w *Workload) *DesignSpace {
	return &DesignSpace{engine: perfcost.NewFromWorkload(w, nil)}
}

// NewDesignSpaceBudget uses a custom area budget fraction (the paper uses
// 0.20 of the die for FPUs + register file).
func NewDesignSpaceBudget(loops []*Loop, budget float64) *DesignSpace {
	return &DesignSpace{engine: perfcost.New(loops, &perfcost.Options{Budget: budget})}
}

// Engine exposes the underlying evaluator for advanced use.
func (d *DesignSpace) Engine() *perfcost.Engine { return d.engine }

// PeakSpeedup returns the Figure 2 ILP-limit speed-up of cfg over 1w1.
func (d *DesignSpace) PeakSpeedup(cfg Config) float64 { return d.engine.PeakSpeedup(cfg) }

// Evaluate prices and times a design point XwY(regs:partitions).
func (d *DesignSpace) Evaluate(cfg Config, regs, partitions int) Point {
	return d.engine.Evaluate(cfg, regs, partitions)
}

// EvaluateMany prices and times a whole panel of design cells
// concurrently, in submission order; duplicate cells are scheduled once.
func (d *DesignSpace) EvaluateMany(cells []Cell) []Point {
	return d.engine.EvaluateMany(cells)
}

// Speedup returns a point's speed-up over the 1w1(32:1) baseline.
func (d *DesignSpace) Speedup(p Point) float64 { return d.engine.Speedup(p) }

// TopFive ranks the best implementable design points of a technology.
func (d *DesignSpace) TopFive(tech Technology) []Point {
	return d.engine.TopFive(tech, 16)
}

// Implementable enumerates the design points fitting the budget at a
// technology.
func (d *DesignSpace) Implementable(tech Technology) []Point {
	return d.engine.Implementable(tech, 16)
}

// RelativeAccessTime returns the register file cycle-time ratio of a
// design point against the 1w1 32-register baseline (Table 4's unit).
func RelativeAccessTime(cfg Config, regs, partitions int) float64 {
	return timing.Default.Relative(cfg, regs, partitions)
}

// AreaCost returns the FPU + register file area of a design point in λ².
func AreaCost(cfg Config, regs, partitions int) float64 {
	return area.Total(cfg, regs, partitions)
}

// RunExperiment regenerates a paper artifact by id over a fresh workbench
// of the given size (0 = the paper's 1180 loops). See ExperimentIDs.
func RunExperiment(id string, loops int) (ExperimentResult, error) {
	ctx, err := experiments.NewContext(loops, 0)
	if err != nil {
		return nil, err
	}
	return ctx.Run(id)
}

// RunExperiments regenerates several artifacts concurrently over one
// shared workbench, returning them in the order requested.
func RunExperiments(ids []string, loops int) ([]ExperimentResult, error) {
	ctx, err := experiments.NewContext(loops, 0)
	if err != nil {
		return nil, err
	}
	return ctx.RunMany(ids)
}

// RunExperimentsOn is RunExperiments over a named workload scenario
// instead of the default workbench.
func RunExperimentsOn(workloadName string, ids []string, loops int) ([]ExperimentResult, error) {
	ctx, err := experiments.NewContextFor(workloadName, loops, 0)
	if err != nil {
		return nil, err
	}
	return ctx.RunMany(ids)
}

// ExperimentIDs lists the regenerable artifacts.
func ExperimentIDs() []string { return experiments.IDs() }
