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

	"repro/internal/serve"
)

// runServe starts the long-lived design-space query server: warm
// per-workload engines behind an HTTP/JSON API (see internal/serve).
//
//	widening serve [-addr HOST:PORT] [-budget UNITS] [-preload a,b] [-loops N] [-seed S]
//	               [-cache DIR] [-join http://router:8000] [-shutdown-timeout 10s]
//
// The process runs until SIGINT/SIGTERM, then drains in-flight requests
// for at most -shutdown-timeout — a stuck stream cannot hold the exit
// hostage — and exits cleanly (CI's smoke relies on the clean exit).
// With -join, the server announces itself to a running `widening route`
// once it is listening (and retires itself again on graceful shutdown):
// fleet capacity scales by starting more serve processes, no router
// restart.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	joinRouter := fs.String("join", "",
		"fleet router base URL to join once listening (POST /v1/fleet/join; best-effort leave on shutdown)")
	budget := fs.Int64("budget", 0,
		"warm-engine memory budget in op units (0 = unlimited); idle LRU engines are evicted under pressure")
	preload := fs.String("preload", "", "comma-separated workloads whose engines are built at startup")
	loops := fs.Int("loops", 0, "suite size override for registry scenarios (0 = scenario defaults)")
	seed := fs.Int64("seed", 0, "seed override for registry scenarios (0 = scenario defaults)")
	cacheDir := fs.String("cache", "",
		"persistent result cache directory shared by all engines: restarts and rebuilt (evicted) engines rehydrate sweep cells from disk (empty = off)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second,
		"bound on the graceful drain at shutdown; in-flight requests past it are abandoned")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	var pre []string
	for _, name := range strings.Split(*preload, ",") {
		if name = strings.TrimSpace(name); name != "" {
			pre = append(pre, name)
		}
	}

	srv, err := serve.New(serve.Options{
		Budget: *budget, Loops: *loops, Seed: *seed, Preload: pre, CacheDir: *cacheDir,
	})
	if err != nil {
		if srv == nil {
			return err
		}
		// Partial preload failure: the named engines that did build are
		// warm; a typo'd -preload entry must not take the whole fleet
		// member down cold.
		fmt.Fprintf(os.Stderr, "widening serve: warning: %v (continuing with the engines that warmed)\n", err)
	}
	var joined string
	err = serveUntilSignal("serve", *addr, srv, *shutdownTimeout, func(a net.Addr) error {
		fmt.Fprintf(os.Stderr, "widening serve: listening on http://%s (%d preload target(s), budget %d)\n",
			a, len(pre), *budget)
		if *joinRouter == "" {
			return nil
		}
		// Announce after the listener is up so the router's first probe
		// can succeed. Failures are fatal: an operator who asked to join a
		// fleet wants to know the fleet never heard about this member.
		if err := fleetMemberPost(*joinRouter, "join", a.String()); err != nil {
			return fmt.Errorf("serve: -join %s: %w", *joinRouter, err)
		}
		joined = a.String()
		fmt.Fprintf(os.Stderr, "widening serve: joined fleet at %s\n", *joinRouter)
		return nil
	})
	if joined != "" {
		// Best-effort retirement on the way out; the router's health
		// probes drain us anyway if this never arrives.
		if err := fleetMemberPost(*joinRouter, "leave", joined); err != nil {
			fmt.Fprintf(os.Stderr, "widening serve: leave %s: %v\n", *joinRouter, err)
		}
	}
	return err
}

// server is what serveUntilSignal runs: a serve.Server or a fleet.Router.
type server interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
	Close() error
}

// serveUntilSignal listens on addr, hands the bound address to ready and
// answers requests with srv until SIGINT or SIGTERM. Then it drains
// in-flight requests for at most drain and force-closes whatever is
// still running, so a stuck stream cannot hold the exit hostage. cmd
// names the command in its log lines. An error from ready closes the
// listener and is returned before anything is served.
func serveUntilSignal(cmd, addr string, srv server, drain time.Duration, ready func(net.Addr) error) error {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if err := ready(l.Addr()); err != nil {
		l.Close()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		return err
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "widening %s: %v, draining (up to %s)\n", cmd, sig, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "widening %s: drain exceeded %s, forcing close: %v\n", cmd, drain, err)
			srv.Close()
		}
		return <-done
	}
}
