// Designspace explores beyond the paper: how the widening/replication
// trade-off moves with the workload's compactable fraction and with the
// silicon budget.
//
// The paper's conclusion (combine a little of both) rests on two
// empirical properties of its workload: most memory accesses are unit
// stride, and recurrences are scarce. This example sweeps the unit-stride
// probability of the synthetic workbench and reports, per sweep point, the
// peak speed-ups of pure replication, pure widening and the mix at equal
// factor 8 — showing where widening stops paying. It then sweeps the area
// budget at a fixed workload to show how a tighter budget pushes the
// best implementable design further toward widening.
//
// Run: go run ./examples/designspace [-loops N]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/area"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/perfcost"
	"repro/internal/sweep"
)

func main() {
	loops := flag.Int("loops", 200, "workbench size per sweep point")
	flag.Parse()

	var factor8 [3]machine.Config
	for i, name := range []string{"8w1", "4w2", "1w8"} {
		c, err := machine.ParseConfig(name)
		if err != nil {
			log.Fatal(err)
		}
		factor8[i] = c
	}

	fmt.Println("== workload sweep: peak speed-up at factor 8 vs unit-stride fraction")
	fmt.Printf("%-12s %8s %8s %8s\n", "unit-stride", "8w1", "4w2", "1w8")
	// Each sweep point owns an independent workbench, so the points run
	// concurrently on the sweep pool and print in sweep order.
	usps := []float64{0.5, 0.65, 0.8, 0.92, 1.0}
	type row struct {
		speedups [3]float64
		err      error
	}
	rows := sweep.Map(0, usps, func(usp float64) row {
		p := loopgen.Defaults()
		p.Loops = *loops
		p.UnitStrideProb = usp
		suite, err := loopgen.Workbench(p)
		if err != nil {
			return row{err: err}
		}
		e := perfcost.New(suite, nil)
		var r row
		for i, c := range factor8 {
			r.speedups[i] = e.PeakSpeedup(c)
		}
		return r
	})
	for i, usp := range usps {
		if rows[i].err != nil {
			log.Fatal(rows[i].err)
		}
		fmt.Printf("%-12.2f %8.2f %8.2f %8.2f\n",
			usp, rows[i].speedups[0], rows[i].speedups[1], rows[i].speedups[2])
	}

	fmt.Println("\n== budget sweep: best design at 0.13 um vs area budget")
	base := loopgen.Defaults()
	base.Loops = *loops
	suite, err := loopgen.Workbench(base)
	if err != nil {
		log.Fatal(err)
	}
	tech := area.SIA()[2] // 0.13 um
	fmt.Printf("%-8s %-14s %9s %7s\n", "budget", "best", "speed-up", "% die")
	for _, budget := range []float64{0.05, 0.10, 0.15, 0.20, 0.30} {
		e := perfcost.New(suite, &perfcost.Options{Budget: budget})
		top := e.TopFive(tech, 16)
		if len(top) == 0 {
			fmt.Printf("%-8.2f %-14s\n", budget, "(nothing fits)")
			continue
		}
		best := top[0]
		fmt.Printf("%-8.2f %-14s %9.2f %6.1f%%\n",
			budget, best.Label(), e.Speedup(best), 100*best.DieFraction(tech))
	}
	fmt.Println("\nA tighter budget trims ports before bits: the best design widens.")
}
