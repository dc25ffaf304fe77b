package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
)

// runRoute starts the fleet router: a consistent-hash front door over N
// `widening serve` backends with health-checked membership, retries and
// mid-stream sweep failover (see internal/fleet).
//
//	widening route -addr HOST:PORT -backends host:port,host:port,...
//	               [-replication 2] [-probe-interval 2s] [-probe-timeout 1s]
//	               [-fail-after 2] [-rejoin-after 2]
//	               [-retries 3] [-retry-budget 0.1]
//	               [-quota-qps 0] [-quota-burst 0] [-quota-sweeps 0]
//	               [-attempt-timeout 2m] [-shutdown-timeout 10s]
//
// The process runs until SIGINT/SIGTERM, then drains in-flight requests
// for at most -shutdown-timeout before forcing the exit.
func runRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	backends := fs.String("backends", "", "comma-separated `widening serve` backends (host:port or http:// URLs); required")
	replication := fs.Int("replication", 0,
		"ownership replication factor R: each workload is kept warm on R distinct backends (0 = default 2, 1 = single-owner)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "health probe period")
	probeTimeout := fs.Duration("probe-timeout", time.Second, "per-probe timeout")
	failAfter := fs.Int("fail-after", 2, "consecutive failures (probes and requests alike) before a backend is drained from the ring")
	rejoinAfter := fs.Int("rejoin-after", 2,
		"consecutive probe successes before a drained backend rejoins half-open (and is prewarmed)")
	retries := fs.Int("retries", 3, "total attempts per proxied request (idempotent failures only)")
	retryBudget := fs.Float64("retry-budget", 0,
		"retry budget as a fraction of admitted traffic (0 = default 0.1, negative = unlimited)")
	quotaQPS := fs.Float64("quota-qps", 0, "per-tenant admitted requests per second (0 = no rate quota)")
	quotaBurst := fs.Int("quota-burst", 0, "per-tenant burst above -quota-qps (0 = 2x the QPS)")
	quotaSweeps := fs.Int("quota-sweeps", 0, "per-tenant concurrent sweep cap (0 = unlimited)")
	attemptTimeout := fs.Duration("attempt-timeout", 2*time.Minute,
		"per-attempt timeout for buffered proxied requests (what bounds a straggling backend when a request carries no X-Deadline)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "bound on the graceful drain at shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("route: unexpected arguments %v", fs.Args())
	}
	var targets []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			targets = append(targets, b)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("route: -backends is required (comma-separated widening serve addresses)")
	}

	rt, err := fleet.New(fleet.Options{
		Backends:         targets,
		Replication:      *replication,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		FailAfter:        *failAfter,
		RejoinAfter:      *rejoinAfter,
		Retry:            fleet.RetryPolicy{MaxAttempts: *retries},
		RetryBudgetRatio: *retryBudget,
		Quota: fleet.QuotaConfig{
			QPS:              *quotaQPS,
			Burst:            *quotaBurst,
			ConcurrentSweeps: *quotaSweeps,
		},
		AttemptTimeout: *attemptTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "widening route: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		rt.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "widening route: listening on http://%s over %d backend(s): %s\n",
		l.Addr(), len(targets), strings.Join(targets, ", "))

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	done := make(chan error, 1)
	go func() { done <- rt.Serve(l) }()
	select {
	case err := <-done:
		return err
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "widening route: %v, draining (up to %s)\n", sig, *shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "widening route: drain exceeded %s, forcing close: %v\n", *shutdownTimeout, err)
			rt.Close()
		}
		return <-done
	}
}
