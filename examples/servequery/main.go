// Servequery drives the serving layer end to end through the typed Go
// client: it starts an in-process design-space server over small suites,
// then walks the API the way an interactive client would — evaluate a
// cell, upload a workload file, sweep a panel (streamed), pull a paper
// artifact off the warm engine, and read the cache counters back.
//
// Against an already-running `widening serve`, pass its base URL instead:
//
//	go run ./examples/servequery [-url http://127.0.0.1:8080] [-loops N]
//
// A `widening route` fleet router presents the identical surface, so the
// same walk exercises a whole sharded fleet — point -url at the router
// and the final stats read-back includes the fleet block (per-backend
// health, rehashes, the workload→backend routing table).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	url := flag.String("url", "", "base URL of a running `widening serve` (empty = start one in-process)")
	loops := flag.Int("loops", 24, "suite size for the in-process server's registry scenarios")
	flag.Parse()

	base := *url
	if base == "" {
		srv, err := serve.New(serve.Options{Loops: *loops, Seed: 1, Preload: []string{"default"}})
		if err != nil {
			log.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(l)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		base = "http://" + l.Addr().String()
		fmt.Printf("in-process server on %s (default scenario preloaded at %d loops)\n\n", base, *loops)
	}

	c := serve.NewClient(base)
	ctx := context.Background()

	// One warm design cell: the paper's headline 4w2 widened machine.
	ev, err := c.Eval(ctx, serve.EvalRequest{Config: "4w2", Regs: 64, Partitions: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eval %s over %q: speedup %.2f (peak %.2f), Tc %.2f, z=%d\n",
		ev.Point.Label, ev.Workload, ev.Point.Speedup, ev.PeakSpeedup, ev.Point.Tc, ev.Point.Z)

	// Upload a workload file (a renamed divheavy here; any loop-IR file
	// exported by `widening workload export` works) and query it warm.
	wl, err := workload.Build("divheavy", *loops, 7)
	if err != nil {
		log.Fatal(err)
	}
	wl.Name = "mysuite"
	imp, err := c.Import(ctx, wl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported %q: %d loops, %d ops\n", imp.Name, imp.Loops, imp.Ops)

	// Sweep the equal-factor-8 panel over the upload, streamed: points
	// arrive one by one, in order, as each cell is scheduled.
	req := serve.SweepRequest{
		Workload: "mysuite",
		Cells: []serve.SweepCell{
			{Config: "8w1", Regs: 64},
			{Config: "4w2", Regs: 64},
			{Config: "2w4", Regs: 64},
			{Config: "1w8", Regs: 64},
		},
	}
	fmt.Println("\nfactor-8 sweep over mysuite (streamed):")
	err = c.SweepStream(ctx, req, func(p serve.Point) error {
		fmt.Printf("  %-12s speedup %5.2f  ok=%v\n", p.Label, p.Speedup, p.OK)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// A paper artifact straight off the warm engine: the same envelope
	// `widening -out` exports.
	res, err := c.Experiment(ctx, "table6", "mysuite")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexperiment %s: %s (%d bytes of data)\n", res.ID, res.Title, len(res.Data))

	// The counters show what stayed warm.
	st, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstats: %d hits, %d misses, %d builds, %d evictions, %d op units resident\n",
		st.Hits, st.Misses, st.Builds, st.Evictions, st.MemUnits)
	for _, e := range st.Engines {
		fmt.Printf("  engine %-10s (%s) %d loops, %d suite schedules, %d requests\n",
			e.Workload, e.Source, e.Loops, e.SuiteComputes, e.Requests)
	}
}
