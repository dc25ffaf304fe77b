package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/area"
	"repro/internal/ddg"
	"repro/internal/experiments"
	"repro/internal/lifetimes"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/perfcost"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/spill"
	"repro/internal/sweep"
	"repro/internal/widen"
	"repro/internal/workload"
)

// Workbench sizes of the batch workloads. fig3 at 150 loops takes about
// 1.7 s per regeneration on a 2-CPU host; fig9 at 30 loops about 12 s,
// most of it one spill reschedule that fails (see README.md).
const (
	fig3Loops  = 150
	fig9Loops  = 30
	smallLoops = 8
	// batchSetups is how many times a batch run sets up, after one untimed
	// set-up that faults in the process's first heap pages: a set-up takes
	// about a millisecond, so one alone is noise.
	batchSetups = 50
)

// suiteCell is one (configuration, register file, cycle model) schedule
// of the workbench, the unit perfcost.Engine.SuiteCycles computes.
type suiteCell struct {
	config machine.Config
	regs   int
	model  machine.CycleModel
}

func runFig3(cfg config) (*outcome, error) { return runBatch(cfg, "fig3", fig3Loops, fig3Cells) }
func runFig9(cfg config) (*outcome, error) { return runBatch(cfg, "fig9", fig9Loops, fig9Cells) }

// fig3Cells lists the cells experiments.Fig3 requests: the 1w1 256-register
// baseline, then nine configurations at every register file size, all under
// the 4-cycle model.
func fig3Cells(*perfcost.Engine) ([]suiteCell, error) {
	cells := []suiteCell{{machine.Config{Buses: 1, Width: 1}, 256, machine.FourCycle}}
	for _, s := range []string{"2w1", "1w2", "4w1", "2w2", "1w4", "8w1", "4w2", "2w4", "1w8"} {
		c, err := machine.ParseConfig(s)
		if err != nil {
			return nil, err
		}
		for _, regs := range machine.RegFileSizes {
			cells = append(cells, suiteCell{c, regs, machine.FourCycle})
		}
	}
	return cells, nil
}

// fig9Cells lists the distinct cells experiments.Fig9 requests: the 1w1
// 32-register baseline, then every design point up to factor 16 that is
// implementable in some technology, under the cycle model its access time
// selects.
func fig9Cells(e *perfcost.Engine) ([]suiteCell, error) {
	var cells []suiteCell
	seen := map[suiteCell]bool{}
	add := func(c machine.Config, regs, parts int) {
		tc := e.Timing().Relative(c, regs, parts)
		cell := suiteCell{c, regs, machine.ModelForCycleTime(tc)}
		if !seen[cell] {
			seen[cell] = true
			cells = append(cells, cell)
		}
	}
	add(machine.Config{Buses: 1, Width: 1}, 32, 1)
	for _, tech := range area.SIA() {
		for _, c := range sweep.DesignSpace(16) {
			if area.Implementable(c.Config, c.Regs, c.Partitions, tech, e.Budget()) {
				add(c.Config, c.Regs, c.Partitions)
			}
		}
	}
	return cells, nil
}

// workbench builds the first loops bodies of the default scenario and
// draws every loop's trip count from seed. The bodies stay fixed because
// the cost of scheduling a body is heavy-tailed: one fig9 loop-cell takes
// most of the run, so bodies drawn per seed would measure the draw. Trip
// counts weight every cycle sum, so each seed yields different artifact
// bytes from the same scheduling work.
func workbench(loops int, seed int64) (*workload.Workload, error) {
	w, err := workload.Build(workload.Default, loops, 0)
	if err != nil {
		return nil, err
	}
	p := loopgen.Defaults()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*ddg.Loop, len(w.Loops))
	for i, l := range w.Loops {
		out[i] = l.Clone()
		out[i].Trips = p.MinTrips + rng.Int63n(p.MaxTrips-p.MinTrips+1)
	}
	return &workload.Workload{Name: w.Name, Description: w.Description, Loops: out}, nil
}

// regen is one cold regeneration: a fresh engine, Run and Render.
type regen struct {
	took    time.Duration
	allocMB float64
	digest  string
	cells   int64
}

func regenerate(id string, loops int, seed int64) (regen, error) {
	w, err := workbench(loops, seed)
	if err != nil {
		return regen{}, err
	}
	ctx := experiments.NewWorkloadContext(w)
	// Start every repetition from a collected heap, so one repetition's
	// garbage is not collected on the next one's time.
	runtime.GC()
	snap := readRuntime()
	start := time.Now()
	res, err := ctx.Run(id)
	if err != nil {
		return regen{}, err
	}
	text := res.Render()
	took := time.Since(start)
	return regen{took: took, allocMB: snap.allocMB(), digest: sha(text), cells: ctx.Engine.Stats().SuiteComputes}, nil
}

// regenerateFor repeats cold regenerations until budget has elapsed (at
// least once), checking that every repetition renders the same bytes.
func regenerateFor(o *outcome, id string, loops int, seed int64, budget time.Duration, maxReps int) ([]regen, error) {
	var reps []regen
	start := time.Now()
	for len(reps) == 0 || (time.Since(start) < budget && len(reps) < maxReps) {
		o.attempted++
		r, err := regenerate(id, loops, seed)
		if err != nil {
			o.failed++
			return nil, err
		}
		if len(reps) > 0 && r.digest != reps[0].digest {
			o.failed++
			o.problem("repetition %d rendered %s, repetition 1 rendered %s", len(reps)+1, r.digest, reps[0].digest)
		}
		reps = append(reps, r)
	}
	return reps, nil
}

func runBatch(cfg config, id string, loops int, cellsOf func(*perfcost.Engine) ([]suiteCell, error)) (*outcome, error) {
	o := newOutcome()
	maxReps := 1 << 30
	if cfg.small {
		loops, maxReps = smallLoops, 1
	}

	var setups, builds []float64
	for i := range batchSetups + 1 {
		runtime.GC() // no collection of earlier garbage on the set-up's time
		start := time.Now()
		w, err := workbench(loops, cfg.seed)
		if err != nil {
			return nil, err
		}
		built := time.Now()
		experiments.NewWorkloadContext(w)
		if i > 0 {
			setups = append(setups, sec(time.Since(start)))
			builds = append(builds, sec(built.Sub(start)))
		}
	}
	// Lower quartiles, as for the regenerations below.
	o.metrics["setup_s"] = quantile(setups, 0.25)
	o.metrics["workload.build_s"] = quantile(builds, 0.25)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// The untraced reference for trace.overhead_frac; the traced
		// passes below take about two more regenerations.
		budget /= 4
	}
	gc := readRuntime()
	reps, err := regenerateFor(o, id, loops, cfg.seed, budget, maxReps)
	if err != nil {
		return nil, err
	}
	gcFrac := gc.gcFrac()
	var took, alloc []float64
	for _, r := range reps {
		took = append(took, ms(r.took))
		alloc = append(alloc, r.allocMB)
	}
	o.note("%s: %d loops, seed %d, %d cold regenerations of %d suite cells, ms: %.0f", id, loops, cfg.seed, len(reps), reps[0].cells, took)
	if err := checkDigest(cfg, o, loops, reps[0].digest); err != nil {
		return nil, err
	}

	if !cfg.trace {
		// The lower quartile trims the repetitions that neighbours on the
		// shared host slowed: such interference only ever adds time.
		lat := quantile(took, 0.25)
		o.metrics["latency_ms"] = lat
		o.metrics["throughput_per_s"] = float64(reps[0].cells) * float64(loops) / (lat / 1000)
		o.metrics["alloc_mb_per_op"] = median(alloc)
		o.metrics["peak_rss_mb"] = peakRSSMB()
		return o, nil
	}
	o.metrics["runtime.gc_cpu_frac"] = gcFrac
	o.metrics["latency.p99_ms"] = quantile(took, 0.99)
	if err := traceBatch(cfg, o, id, loops, median(took), reps[0].digest, cellsOf); err != nil {
		return nil, err
	}
	return o, nil
}

// traceBatch makes the two traced passes over one regeneration: the
// artifact run with a span per suite cell, then a sequential replay of
// every loop-cell through the layers' own functions.
func traceBatch(cfg config, o *outcome, id string, loops int, untracedMS float64, digest string,
	cellsOf func(*perfcost.Engine) ([]suiteCell, error)) error {
	tr := newTracer()
	w, err := workbench(loops, cfg.seed)
	if err != nil {
		return err
	}
	ctx := experiments.NewWorkloadContext(w)
	e := ctx.Engine
	cells, err := cellsOf(e)
	if err != nil {
		return err
	}

	// Pass (a): the artifact run. The benchmark requests each cell the
	// artifact needs, in a span, on the engine's worker count; Run then
	// assembles the artifact from the engine's memo.
	suites := make([]perfcost.SuiteResult, len(cells))
	runtime.GC() // as before every untraced repetition
	var res experiments.Result
	var runErr error
	o.attempted++
	runD := tr.timed("experiments.Run", 0, func(parent int64) {
		sweep.Each(runtime.GOMAXPROCS(0), len(cells), func(i int) {
			c := cells[i]
			tr.timed("perfcost.SuiteCycles", parent, func(int64) {
				suites[i] = e.SuiteCycles(c.config, c.regs, c.model)
			})
		})
		before := e.Stats().SuiteComputes
		res, runErr = ctx.Run(id)
		if after := e.Stats().SuiteComputes; after != before {
			o.problem("%s computed %d cells beyond the %d the benchmark lists", id, after-before, len(cells))
		}
	})
	if runErr != nil {
		o.failed++
		return runErr
	}
	var text string
	renderD := tr.timed("experiments.Render", 0, func(int64) { text = res.Render() })
	if got := sha(text); got != digest {
		o.failed++
		o.problem("traced %s rendered %s, untraced %s", id, got, digest)
	}
	o.metrics["trace.overhead_frac"] = ms(runD+renderD)/untracedMS - 1
	o.metrics["experiments.render_ms"] = ms(renderD)
	cellMS := durationsMS(tr.snapshot(), "perfcost.SuiteCycles")
	o.metrics["perfcost.cells"] = float64(len(cells))
	o.metrics["perfcost.cell_p50_ms"] = median(cellMS)
	o.metrics["perfcost.cell_max_ms"] = quantile(cellMS, 1)
	var fallbacks int
	for _, s := range suites {
		fallbacks += s.Failures
	}
	o.metrics["perfcost.fallback_loops"] = float64(fallbacks)

	replay(tr, o, e.Loops(), cells, suites)
	return tr.write(cfg.spans)
}

// replayStats accumulates what the replay counts outside its spans.
type replayStats struct {
	widenCalls, schedCalls, iiOverMII      int
	spillCalls, rounds, spillOps, iiGrowth int
	firstFit, errorCalls                   int
	schedMB, spillMB, baseMB               float64
	baseDur, errorDur                      time.Duration
	// worstError describes the slowest spill call that failed.
	worstError    string
	worstErrorDur time.Duration
}

// replay re-runs every loop-cell of the cells sequentially, in the order
// the engine's suite computation visits them: widen.Transform once per
// loop and width, the base sched.ModuloSchedule, lifetimes.Compute and a
// regalloc.Search (Fits, then MinRegs when it fits), then spill.Schedule,
// then the flat schedule when the spill call fails. Each step is a span
// under one root span. It checks every cell's cycle sum against the
// engine's.
func replay(tr *tracer, o *outcome, loops []*ddg.Loop, cells []suiteCell, want []perfcost.SuiteResult) {
	var st replayStats
	ws := sched.NewWorkspace()
	widened := map[int][]*ddg.Loop{}
	// step times fn in a span under root and returns its duration and the
	// megabytes it allocated.
	step := func(root int64, name string, fn func()) (time.Duration, float64) {
		snap := readRuntime()
		d := tr.timed(name, root, func(int64) { fn() })
		return d, snap.allocMB()
	}
	var replayErr error
	rootD := tr.timed("replay", 0, func(root int64) {
		for ci, c := range cells {
			wl, ok := widened[c.config.Width]
			if !ok {
				wl = make([]*ddg.Loop, len(loops))
				for i, l := range loops {
					step(root, "widen.Transform", func() { wl[i], _ = widen.Transform(l, c.config.Width) })
					st.widenCalls++
				}
				widened[c.config.Width] = wl
			}
			m := machine.New(c.config, c.regs, c.model)
			buses, fpus := m.Slots()
			var got perfcost.SuiteResult
			for _, l := range wl {
				// The base schedule and first allocation, which the spill
				// call repeats internally: timed here so spill.self_s can
				// exclude them. The clone gives the schedule the cold graph
				// analysis the spill call's own clone has.
				base := l.Clone()
				var s *sched.Schedule
				var err error
				d, mb := step(root, "sched.ModuloSchedule", func() { s, err = sched.ModuloSchedule(base, m, &sched.Options{Workspace: ws}) })
				st.schedCalls++
				st.schedMB += mb
				st.baseDur += d
				st.baseMB += mb
				if err == nil {
					if s.II > base.MII(m.Model, buses, fpus) {
						st.iiOverMII++
					}
					var ls *lifetimes.Set
					d, mb = step(root, "lifetimes.Compute", func() { ls = lifetimes.Compute(s) })
					st.baseDur += d
					st.baseMB += mb
					d, mb = step(root, "regalloc.Search", func() {
						search := regalloc.NewSearch(ls)
						if search.Fits(m.RF.Regs, regalloc.EndFit) {
							search.MinRegs(regalloc.EndFit)
						}
					})
					st.baseDur += d
					st.baseMB += mb
				}

				var r spill.Result
				var serr error
				d, mb = step(root, "spill.Schedule", func() { r, serr = spill.Schedule(l, m, &spill.Options{Workspace: ws}) })
				st.spillCalls++
				st.spillMB += mb
				if serr != nil {
					st.errorCalls++
					st.errorDur += d
					if d > st.worstErrorDur {
						st.worstErrorDur = d
						st.worstError = fmt.Sprintf("%s %d-RF z=%d loop %q: %v", c.config, c.regs, c.model.Z, l.Name, serr)
					}
				}
				if serr != nil || !r.OK {
					var flat *sched.Schedule
					var ferr error
					_, mb = step(root, "sched.ModuloSchedule", func() {
						flat, ferr = sched.ModuloSchedule(l, machine.New(c.config, 1<<20, c.model), &sched.Options{Workspace: ws})
					})
					st.schedCalls++
					st.schedMB += mb
					got.Failures++
					if ferr == nil {
						got.Cycles += float64(l.Trips) * float64(flat.Length()) / float64(c.config.Width)
					}
					continue
				}
				got.Cycles += float64(l.Trips) * float64(r.II()) / float64(c.config.Width)
				st.rounds += r.Rounds
				ops := r.SpillStores + r.SpillLoads
				st.spillOps += ops
				st.iiGrowth += r.II() - r.BaseII
				if ops > 0 {
					got.SpilledLoops++
				}
				got.SpillOps += ops
				if r.Rounds == 0 && ops == 0 && r.II() == r.BaseII {
					st.firstFit++
				}
			}
			w := want[ci]
			if got.Cycles != w.Cycles || got.Failures != w.Failures || got.SpilledLoops != w.SpilledLoops || got.SpillOps != w.SpillOps {
				replayErr = fmt.Errorf("replay of %s %d-RF z=%d: cycles %v failures %d spilled %d, engine %v %d %d",
					c.config, c.regs, c.model.Z, got.Cycles, got.Failures, got.SpilledLoops, w.Cycles, w.Failures, w.SpilledLoops)
				return
			}
		}
	})
	if replayErr != nil {
		o.failed++
		o.problem("%v", replayErr)
	}

	self := selfByName(tr.snapshot())
	layers := time.Duration(0)
	for name, d := range self {
		if name != "replay" && name != "experiments.Run" && name != "experiments.Render" && name != "perfcost.SuiteCycles" {
			layers += d
		}
	}
	spillSelf := max(self["spill.Schedule"]-st.baseDur, 0)
	o.metrics["trace.coverage"] = sec(layers) / sec(rootD)
	o.metrics["widen.calls"] = float64(st.widenCalls)
	o.metrics["widen.self_s"] = sec(self["widen.Transform"])
	o.metrics["sched.calls"] = float64(st.schedCalls)
	o.metrics["sched.self_s"] = sec(self["sched.ModuloSchedule"])
	o.metrics["sched.alloc_mb"] = st.schedMB
	o.metrics["sched.ii_over_mii"] = float64(st.iiOverMII)
	o.metrics["lifetimes.self_s"] = sec(self["lifetimes.Compute"])
	o.metrics["regalloc.self_s"] = sec(self["regalloc.Search"])
	o.metrics["spill.calls"] = float64(st.spillCalls)
	o.metrics["spill.self_s"] = sec(spillSelf)
	o.metrics["spill.rounds"] = float64(st.rounds)
	o.metrics["spill.ops"] = float64(st.spillOps)
	o.metrics["spill.ii_growth"] = float64(st.iiGrowth)
	o.metrics["spill.alloc_mb"] = max(st.spillMB-st.baseMB, 0)
	o.metrics["spill.first_fit_frac"] = float64(st.firstFit) / float64(max(st.spillCalls, 1))
	o.metrics["spill.error_calls"] = float64(st.errorCalls)
	o.metrics["spill.error_s"] = sec(st.errorDur)

	// Shares of the replay's attributed self time (spill without the base
	// work it repeats), as README.md quotes them.
	attributed := sec(layers - self["spill.Schedule"] + spillSelf)
	o.note("replay %.3fs, coverage %.3f; sched+regalloc+spill %.1f%%, spill errors %.1f%% of attributed self time",
		sec(rootD), o.metrics["trace.coverage"],
		100*(o.metrics["sched.self_s"]+o.metrics["regalloc.self_s"]+sec(spillSelf))/attributed,
		100*sec(st.errorDur)/attributed)
	if st.errorCalls > 0 {
		o.note("slowest failing spill call, %.3fs: %s", sec(st.worstErrorDur), st.worstError)
	}
}
