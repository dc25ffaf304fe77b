// Quickstart: software-pipeline a classic kernel on a widened VLIW machine
// and inspect the schedule the compiler stack produces.
//
// The example pipelines daxpy (y[i] += a*x[i]) on three machines with the
// same peak operation rate — 4w1 (pure replication), 2w2 (the combination
// the paper recommends) and 1w4 (pure widening) — and shows how the
// initiation interval, the register requirement and the silicon cost move.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/area"
	"repro/internal/lifetimes"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/regalloc"
	"repro/internal/spill"
	"repro/internal/timing"
	"repro/internal/widen"
)

func main() {
	kernel := loopgen.KernelByName("daxpy")
	fmt.Printf("kernel %s: %d operations per iteration\n\n", kernel.Name, kernel.NumOps())

	for _, name := range []string{"4w1", "2w2", "1w4"} {
		cfg, err := machine.ParseConfig(name)
		if err != nil {
			log.Fatal(err)
		}
		// Widen the loop for the machine, then pipeline it under a
		// 64-register file with spill insertion.
		transformed, _ := widen.Transform(kernel, cfg.Width)
		r, err := spill.Schedule(transformed, machine.New(cfg, 64, machine.FourCycle), nil)
		if err != nil {
			log.Fatalf("%s: %v", cfg, err)
		}
		if !r.OK {
			log.Fatalf("%s: loop unschedulable within the register file", cfg)
		}
		fmt.Printf("--- %s (64 registers) ---\n", cfg)
		fmt.Printf("cycles/iteration: %.2f   registers: %d   spill: %d\n",
			float64(r.II())/float64(cfg.Width), regalloc.MinRegs(lifetimes.Compute(r.Sched), regalloc.EndFit),
			r.SpillStores+r.SpillLoads)
		fmt.Printf("relative cycle time: %.2f   area: %.0f Mλ²\n",
			timing.Default.Relative(cfg, 64, 1), area.Total(cfg, 64, 1)/1e6)
		fmt.Println(r.Sched.Format())
	}

	fmt.Println("Note how the three machines execute the same four iterations")
	fmt.Println("per kernel but pay very different register file costs — the")
	fmt.Println("paper's whole argument in one kernel.")
}
