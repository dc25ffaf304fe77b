// Command widening regenerates the tables and figures of López et al.,
// "Widening Resources: A Cost-effective Technique for Aggressive ILP
// Architectures" (MICRO-31, 1998) over the calibrated synthetic workbench.
//
// Usage:
//
//	widening [-workload NAME|FILE] [-loops N] [-seed S] [-cache DIR] [-backend heuristic|exact] [-cpuprofile FILE] [-out DIR [-format json,csv,txt]] <experiment>... | all | list
//	widening workload list | show | export | import
//	widening cache stats | gc | clear -dir DIR
//	widening schedule -config 4w2 -regs 64 -kernel daxpy
//	widening bench -json
//	widening serve -addr 127.0.0.1:8080 -budget 500000 -preload default,kernels -cache /var/cache/widening
//	widening route -addr 127.0.0.1:8000 -backends 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
//	widening fleet status -router http://127.0.0.1:8000
//
// Experiments: table1 table2 table3 table4 table5 table6
//
//	fig2 fig3 fig4 fig6 fig7 fig8 fig9 workloads optgap
//
// The selected experiments are regenerated concurrently by the sweep
// orchestrator (the engine's schedule cache deduplicates the design cells
// the drivers share) and printed in the order requested. -workload swaps
// the loop suite: a registered scenario (see `widening workload list`) or
// a workload file exported by `widening workload export`. -out exports
// the structured artifacts (JSON/CSV/plain text) next to the terminal
// render, plus a manifest.json recording the workload provenance. The
// full 1180-loop workbench still takes a while for fig3/fig8/fig9;
// -loops trades fidelity for speed, and -cache makes identical re-runs
// nearly free: sweep cells and whole artifacts are memoized in a
// persistent content-addressed store (see internal/resultcache and the
// README's Result cache section; `widening cache` inspects it).
// -cpuprofile writes a runtime/pprof CPU profile of the experiment run
// (`go tool pprof FILE` reads it).
// `widening serve` runs the long-lived HTTP/JSON design-space server
// over warm per-workload engines (see internal/serve and the README's
// Serving section), `widening route` shards a fleet of such servers
// behind a fault-tolerant consistent-hash router with replicated
// ownership, per-tenant admission and end-to-end deadlines (see
// internal/fleet and the README's Fleet section), and `widening fleet`
// administers a running router's membership without a restart.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/perfcost"
	"repro/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "widening:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "schedule" {
		return runSchedule(args[1:])
	}
	if len(args) > 0 && args[0] == "bench" {
		return runBench(args[1:])
	}
	if len(args) > 0 && args[0] == "workload" {
		return runWorkload(args[1:])
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:])
	}
	if len(args) > 0 && args[0] == "route" {
		return runRoute(args[1:])
	}
	if len(args) > 0 && args[0] == "fleet" {
		return runFleet(args[1:])
	}
	if len(args) > 0 && args[0] == "cache" {
		return runCache(args[1:])
	}

	fs := flag.NewFlagSet("widening", flag.ContinueOnError)
	wl := fs.String("workload", core.DefaultWorkload,
		"workload scenario name (see `widening workload list`) or workload file path")
	loops := fs.Int("loops", 0, "workbench size (0 = the workload's default)")
	seed := fs.Int64("seed", 0, "workbench seed (0 = the workload's default)")
	out := fs.String("out", "", "directory for structured artifact export (empty = no export)")
	format := fs.String("format", "json,csv", "comma-separated export formats: json, csv, txt")
	cacheDir := fs.String("cache", "",
		"persistent result cache directory: sweep cells and whole artifacts are memoized across runs (empty = off)")
	backend := fs.String("backend", "heuristic",
		"scheduling backend: heuristic, or exact (branch-and-bound refinement of small loops; see the README's Optimality gap section)")
	exactBudget := fs.Int("exact-budget", 0, "exact backend node budget per loop (0 = default)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the experiment run to FILE (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := fs.Args()
	if len(targets) == 0 {
		usage()
		return fmt.Errorf("no experiment selected")
	}
	if targets[0] == "list" {
		ids := experiments.IDs()
		titles := experiments.Titles()
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Printf("%-10s %s\n", id, titles[id])
		}
		return nil
	}

	// Validate the export request before the (potentially minutes-long)
	// regeneration, so a typo'd format fails in milliseconds.
	var formats []string
	if *out != "" {
		var err error
		if formats, err = sweep.ParseFormats(*format); err != nil {
			return err
		}
	}

	ctx, err := resolveContext(*wl, *loops, *seed)
	if err != nil {
		return err
	}
	switch *backend {
	case "heuristic":
	case "exact":
		// Like AttachCache below, the backend must be set before the
		// engine serves its first request.
		ctx.Engine.SetBackend(perfcost.BackendExact, *exactBudget, 0)
	default:
		return fmt.Errorf("unknown backend %q (want heuristic or exact)", *backend)
	}
	var store *core.ResultCache
	if *cacheDir != "" {
		if store, err = core.OpenResultCache(*cacheDir); err != nil {
			return err
		}
		// Attach before the first run: the engine's disk layer must not
		// appear mid-traffic, and the artifact memo needs the store in
		// place for both the lookup and the write-back.
		ctx.Engine.AttachCache(store)
		ctx.Cache = store
	}
	if targets[0] == "all" {
		targets = experiments.IDs()
	}
	start := time.Now()
	var results []experiments.Result
	err = profiled(*cpuProfile, func() (err error) {
		results, err = ctx.RunMany(targets)
		return err
	})
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Printf("== %s: %s\n\n%s\n", res.ID(), res.Title(), res.Render())
	}
	fmt.Printf("regenerated %d artifact(s) in %.1fs\n", len(results), time.Since(start).Seconds())
	if store != nil {
		// One greppable line proving (or disproving) the warm-cache
		// contract: a second identical run must show zero computes.
		cs, es := store.Stats(), ctx.Engine.Stats()
		fmt.Printf("cache: store_hits=%d store_misses=%d writes=%d corrupt=%d bytes_read=%d bytes_written=%d engine_disk_hits=%d engine_disk_misses=%d computes_widen=%d computes_suite=%d computes_peak=%d\n",
			cs.Hits, cs.Misses, cs.Writes, cs.Corrupt, cs.BytesRead, cs.BytesWritten,
			es.DiskHits, es.DiskMisses, es.WidenComputes, es.SuiteComputes, es.PeakComputes)
	}

	if *out != "" {
		artifacts := make([]sweep.Artifact, len(results))
		ids := make([]string, len(results))
		for i, r := range results {
			artifacts[i] = r
			ids[i] = r.ID()
		}
		paths, err := sweep.Export(*out, formats, artifacts)
		if err != nil {
			return err
		}
		manifest := sweep.Manifest{
			Workload:  *wl,
			Loops:     *loops,
			Seed:      *seed,
			Formats:   formats,
			Artifacts: ids,
		}
		if !isScenario(*wl) {
			// A file-backed workload carries its own suite; the -loops and
			// -seed overrides had no effect and must not be recorded as
			// provenance.
			manifest.Loops, manifest.Seed = 0, 0
		}
		if _, err := sweep.WriteManifest(*out, manifest); err != nil {
			return err
		}
		fmt.Printf("exported %d file(s) + manifest.json to %s\n", len(paths), *out)
	}
	return nil
}

// profiled runs fn under a CPU profile written to path, or without one
// when path is empty. The profile is stopped and its file closed before
// profiled returns; a failed Close is an error, since the profile may be
// incomplete.
func profiled(path string, fn func() error) error {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func runSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ContinueOnError)
	cfgStr := fs.String("config", "2w2", "configuration XwY")
	regs := fs.Int("regs", 64, "register file size (wide registers)")
	kernel := fs.String("kernel", "daxpy", "kernel name (see -kernel list)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *kernel == "list" {
		for _, k := range core.Kernels() {
			fmt.Printf("%-12s %d ops\n", k.Name, k.NumOps())
		}
		return nil
	}
	cfg, err := core.ParseConfig(*cfgStr)
	if err != nil {
		return err
	}
	l := core.Kernel(*kernel)
	if l == nil {
		return fmt.Errorf("unknown kernel %q (try -kernel list)", *kernel)
	}
	rep, err := core.ScheduleLoop(l, cfg, *regs)
	if err != nil {
		return err
	}
	fmt.Printf("kernel %s on %s\n%s", l.Name, cfg, rep.Format())
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  widening [-workload NAME|FILE] [-loops N] [-seed S] [-cache DIR] [-backend heuristic|exact] [-cpuprofile FILE] [-out DIR [-format json,csv,txt]] <experiment>... | all | list
  widening workload list
  widening workload show -name divheavy [-loops N] [-seed S]
  widening workload export -name divheavy [-o div.json] [-loops N] [-seed S]
  widening workload import -in div.json
  widening cache stats|clear -dir DIR
  widening cache gc -dir DIR [-max-bytes N] [-max-entries N]
  widening schedule -config 4w2 -regs 64 -kernel daxpy|list
  widening bench [-json] [-benchtime 1x] [-workload NAME] [-run Scheduler,RegisterPressure,Table5Implementable]
  widening serve [-addr HOST:PORT] [-budget UNITS] [-preload default,kernels] [-loops N] [-seed S] [-cache DIR] [-join URL] [-shutdown-timeout D]
  widening route -addr HOST:PORT -backends host:port,... [-replication R] [-quota-qps N] [-quota-sweeps N] [-fail-after N] [-retry-budget F]
  widening fleet status|join|leave -router URL [-addr HOST:PORT]`)
}
