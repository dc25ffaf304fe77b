// Spillstudy reruns the paper's Section 3.2 experiment on the hand-written
// kernel library: for each kernel and each register file size, pipeline the
// loop on an aggressive machine (8w1) and on the equal-peak widened machine
// (4w2) and report the per-iteration cost and the spill traffic.
//
// This is Figure 3's mechanism made visible kernel by kernel: the wide
// register file stores two words per register, so 4w2 needs roughly half
// the registers 8w1 needs for the same work, and keeps its throughput at
// sizes where 8w1 is already paying for reloads.
//
// Run: go run ./examples/spillstudy
package main

import (
	"fmt"
	"log"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/spill"
	"repro/internal/sweep"
	"repro/internal/widen"
)

func main() {
	var configs []machine.Config
	for _, name := range []string{"8w1", "4w2"} {
		cfg, err := machine.ParseConfig(name)
		if err != nil {
			log.Fatal(err)
		}
		configs = append(configs, cfg)
	}
	sizes := []int{16, 32, 64, 128}

	// The (kernel, config, register file) grid is embarrassingly parallel:
	// pipeline every cell on the sweep pool, then print in grid order.
	type task struct {
		kernel *ddg.Loop
		cfg    machine.Config
		regs   int
	}
	type outcome struct {
		res spill.Result
		err error
	}
	var grid []task
	for _, kernel := range loopgen.Kernels() {
		for _, cfg := range configs {
			for _, regs := range sizes {
				grid = append(grid, task{kernel, cfg, regs})
			}
		}
	}
	outcomes := sweep.Map(0, grid, func(t task) outcome {
		transformed, _ := widen.Transform(t.kernel, t.cfg.Width)
		res, err := spill.Schedule(transformed, machine.New(t.cfg, t.regs, machine.FourCycle), nil)
		return outcome{res, err}
	})

	fmt.Println("per-iteration cycles (spill ops) by register file size")
	fmt.Printf("%-12s %-6s", "kernel", "config")
	for _, r := range sizes {
		fmt.Printf("  %8d-RF", r)
	}
	fmt.Println()

	for i, t := range grid {
		if t.regs == sizes[0] {
			fmt.Printf("%-12s %-6s", t.kernel.Name, t.cfg)
		}
		o := outcomes[i]
		switch {
		case o.err != nil:
			log.Fatalf("%s on %s: %v", t.kernel.Name, t.cfg, o.err)
		case !o.res.OK:
			fmt.Printf("  %11s", "-")
		default:
			mark := " "
			if o.res.SpillStores+o.res.SpillLoads > 0 {
				mark = "*"
			}
			fmt.Printf("  %9.2f%s%s", float64(o.res.II())/float64(t.cfg.Width), mark, "")
		}
		if t.regs == sizes[len(sizes)-1] {
			fmt.Println()
		}
	}
	fmt.Println("\n* = schedule contains spill code; - = unschedulable at that size")
}
