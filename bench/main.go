// Command bench is the repository's benchmark of record. It runs one
// workload end to end through the layers' public functions, checks the
// outputs, and prints every metric by name and unit, ending with one JSON
// line:
//
//	bash bench/run.sh --workload fig3-spill --seed 1 --seconds 20 --trace 0
//
// --trace 1 makes a traced run instead: it records spans at the layer
// boundaries, writes them to --spans, and prints the per-layer metrics.
// --compare A.json B.json compares two sets of runs recorded with --record.
// README.md lists the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	// seconds is how long the run measures.
	seconds float64
	trace   bool
	// spans is where a traced run writes its spans.
	spans string
	// tmp holds the files a run creates (result caches, spans).
	tmp string
	// small shrinks every workload to smoke-test size: 8 loops, one
	// repetition, 1 s load steps.
	small bool
	// update rewrites the digest of this workload and seed.
	update  bool
	digests string
}

// outcome is what a workload run measured and checked.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	// problems lists failed output checks; any one makes the run incorrect.
	problems []string
	// notes are context lines printed before the metrics.
	notes []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*outcome, error){
	"fig3-spill":     runFig3,
	"fig9-wide":      runFig9,
	"serve-open":     runServeOpen,
	"fleet-failover": runFleet,
}

// metric and result are the JSON shapes of the final output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var record, spec string
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 makes a traced run: spans are written to -spans and per-layer metrics printed")
	fs.StringVar(&cfg.spans, "spans", "", "file a traced run writes its spans to (default <tmp>/spans-<workload>-<seed>.json)")
	fs.StringVar(&cfg.tmp, "tmp", ".bench_build", "directory for the files a run creates")
	fs.StringVar(&record, "record", "", "append this run's result, tagged with workload and seed, to this JSON-lines file")
	fs.BoolVar(&cfg.update, "update", false, "store this run's artifact digest in -digests instead of checking it")
	fs.StringVar(&cfg.digests, "digests", "bench/testdata/digests.json", "digest file -update writes")
	fs.BoolVar(&compare, "compare", false, "compare two -record files: -compare A.json B.json")
	fs.StringVar(&spec, "spec", "BENCHMARK.json", "benchmark definition holding the regression bounds (for -compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two record files")
			return 2
		}
		worse, err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	drive, ok := workloads[cfg.workload]
	if !ok || fs.NArg() != 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "bench: need -workload (one of %s), -seconds > 0 and -trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.trace = trace == 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(cfg.tmp, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	o, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res := report(stdout, cfg, o)
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "bench: check failed:", p)
	}
	if record != "" {
		if err := appendRecord(record, cfg, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the notes and the metrics of the run's kind, one per
// line, then the JSON result as the last line.
func report(w io.Writer, cfg config, o *outcome) result {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	res := result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, s := range specs {
		v := o.metrics[s.name]
		fmt.Fprintf(w, "%-30s %16.6f %s\n", s.name, v, s.unit)
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	line, _ := json.Marshal(res) // plain structs and floats: cannot fail
	fmt.Fprintf(w, "%s\n", line)
	return res
}

// runRecord is one line of a -record file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func appendRecord(path string, cfg config, res result) error {
	line, err := json.Marshal(runRecord{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
