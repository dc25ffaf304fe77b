// Techproject reproduces the paper's ten-year technology projection
// (Section 5, Figure 9): for each SIA generation from 0.25 µm (1998) to
// 0.07 µm (2010), rank the processor configurations that fit in 20% of the
// die and report the best five by delivered performance — cycle count
// times the register-file-limited cycle time.
//
// The headline: at every generation the winners combine a small degree of
// replication with a small degree of widening; the most aggressive
// configurations never make the list.
//
// Run: go run ./examples/techproject [-loops N]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/area"
	"repro/internal/loopgen"
	"repro/internal/perfcost"
	"repro/internal/sweep"
)

func main() {
	loops := flag.Int("loops", 300, "workbench size (1180 = the paper's scale)")
	flag.Parse()

	params := loopgen.Defaults()
	params.Loops = *loops
	suite, err := loopgen.Workbench(params)
	if err != nil {
		log.Fatal(err)
	}
	e := perfcost.New(suite, nil)

	fmt.Printf("workbench: %d loops; budget: 20%% of the die for FPUs + RF\n\n", *loops)
	// Rank all five generations concurrently; they share most design
	// cells, which the engine's schedule cache computes once.
	techs := area.SIA()
	tops := sweep.Map(len(techs), techs, func(t area.Technology) []perfcost.Point { return e.TopFive(t, 16) })
	for i, tech := range techs {
		fmt.Printf("%d (%s): top five implementable configurations\n", tech.Year, tech)
		for rank, p := range tops[i] {
			fmt.Printf("  %d. %-12s speed-up %.2f   cycle time %.2fx   %4.1f%% of die   z=%d\n",
				rank+1, p.Label(), e.Speedup(p), p.Tc, 100*p.DieFraction(tech), p.Z)
		}
		fmt.Println()
	}
	fmt.Println("Speed-ups are against 1w1 with 32 registers at the 0.25 µm cycle time.")
}
