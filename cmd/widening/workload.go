package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/workload"
)

// runWorkload implements the workload management subcommand:
//
//	widening workload list
//	widening workload show   -name divheavy [-loops N] [-seed S]
//	widening workload export -name divheavy -o div.json [-loops N] [-seed S]
//	widening workload import -in div.json
//
// export writes the serializable loop-IR file format; import round-trips
// it through the strict decoder and reports the suite's shape, so a
// hand-edited or tool-generated file is fully validated before it is
// ever handed to the engine via -workload.
func runWorkload(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("workload: missing subcommand (want list, show, export or import)")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "list":
		return workloadList(rest)
	case "show":
		return workloadShow(rest)
	case "export":
		return workloadExport(rest)
	case "import":
		return workloadImport(rest)
	}
	return fmt.Errorf("workload: unknown subcommand %q (want list, show, export or import)", sub)
}

func workloadList(args []string) error {
	fs := flag.NewFlagSet("workload list", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("%-12s %6s  %s\n", "name", "loops", "description")
	for _, info := range workload.Infos() {
		size := fmt.Sprint(info.Loops)
		if info.Fixed {
			size += "*"
		}
		fmt.Printf("%-12s %6s  %s\n", info.Name, size, info.Description)
	}
	fmt.Println("\n(* fixed library: -loops and -seed have no effect)")
	return nil
}

func workloadShow(args []string) error {
	fs := flag.NewFlagSet("workload show", flag.ContinueOnError)
	name := fs.String("name", workload.Default, "registered workload name")
	loops := fs.Int("loops", 0, "suite size override (0 = scenario default)")
	seed := fs.Int64("seed", 0, "seed override (0 = scenario default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workload.Build(*name, *loops, *seed)
	if err != nil {
		return err
	}
	printWorkloadSummary(w)
	return nil
}

func workloadExport(args []string) error {
	fs := flag.NewFlagSet("workload export", flag.ContinueOnError)
	name := fs.String("name", workload.Default, "registered workload name")
	out := fs.String("o", "", "output file (default <name>.json)")
	loops := fs.Int("loops", 0, "suite size override (0 = scenario default)")
	seed := fs.Int64("seed", 0, "seed override (0 = scenario default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workload.Build(*name, *loops, *seed)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = *name + ".json"
	}
	if err := workload.Save(w, path); err != nil {
		return err
	}
	fmt.Printf("exported workload %s (%d loops) to %s\n", w.Name, len(w.Loops), path)
	return nil
}

func workloadImport(args []string) error {
	fs := flag.NewFlagSet("workload import", flag.ContinueOnError)
	in := fs.String("in", "", "workload file to import (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("workload import: -in is required")
	}
	w, err := workload.Load(*in)
	if err != nil {
		return err
	}
	fmt.Printf("imported %s: valid\n", *in)
	if workload.Registered(w.Name) {
		// Registered names win in -workload resolution (the pinned
		// TestScenarioNameWinsOverFile rule); say so instead of letting the
		// file be silently shadowed.
		fmt.Printf("warning: workload name %q is also a registered scenario; `-workload %s` selects the registry scenario, not this file — pass the file path to use it\n",
			w.Name, w.Name)
	}
	printWorkloadSummary(w)
	return nil
}

func printWorkloadSummary(w *workload.Workload) {
	s := w.Stats()
	fmt.Printf("workload %s\n", w.Name)
	if w.Description != "" {
		fmt.Printf("  %s\n", w.Description)
	}
	fmt.Printf("  loops %d, ops %d (%.1f/loop)\n", s.Loops, s.Ops, float64(s.Ops)/float64(s.Loops))
	fmt.Printf("  memory ops        %5.1f%%\n", 100*s.MemFrac)
	fmt.Printf("  on recurrences    %5.1f%%\n", 100*s.RecurrentFrac)
	fmt.Printf("  compactable       %5.1f%%\n", 100*s.CompactableFrac)
	fmt.Printf("  recurrence-bound  %d loops (RecMII > ResMII on 1w1)\n", s.RecurrenceBound)
	fmt.Printf("  mean trips        %.0f\n", s.WeightedAvgTrips)
}

// isScenario reports whether the -workload flag value names a registered
// scenario. Registry names always win over files: a stray file called
// "default" in the working directory must not shadow the scenario.
func isScenario(v string) bool { return workload.Registered(v) }

// resolveWorkload resolves a -workload flag value: a registered scenario
// name, built at loops and seed, or otherwise a path to a workload file
// exported by `widening workload export`.
func resolveWorkload(workloadFlag string, loops int, seed int64) (*workload.Workload, error) {
	if isScenario(workloadFlag) {
		return workload.Build(workloadFlag, loops, seed)
	}
	w, err := workload.Load(workloadFlag)
	if err != nil {
		if !looksLikeFile(workloadFlag) {
			return nil, fmt.Errorf("unknown workload %q: not a registered scenario (have %v) and %w",
				workloadFlag, workload.Names(), err)
		}
		return nil, err
	}
	if loops != 0 || seed != 0 {
		fmt.Fprintln(os.Stderr, "widening: -loops/-seed have no effect on a workload loaded from a file")
	}
	return w, nil
}

func looksLikeFile(v string) bool {
	return strings.ContainsAny(v, `/\`) || strings.HasSuffix(v, ".json")
}
