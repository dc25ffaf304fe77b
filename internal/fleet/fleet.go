package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// Options configures a Router. Backends is required; everything else
// defaults as documented.
type Options struct {
	// Backends lists the initial `widening serve` instances, as host:port
	// or http:// base URLs. Membership is dynamic after startup: POST
	// /v1/fleet/join and /v1/fleet/leave add and remove members without a
	// router restart; health decides which members receive traffic.
	Backends []string
	// Replication is the ownership factor R (default 2): every workload's
	// engines are kept warm on its first R healthy ring candidates by a
	// background prewarm fan-out, so the primary's failure fails over to
	// an already-warm replica with no cold rebuild. 1 restores the PR 7
	// single-owner behavior — no warm standby, prewarm only on rejoin.
	Replication int
	// ProbeInterval is the health-check period (default 2s);
	// ProbeTimeout bounds one /healthz probe (default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailAfter consecutive failures, probe and request alike, drain a
	// backend from rotation (default 2); RejoinAfter consecutive probe
	// successes readmit it half-open (default 2) and trigger a prewarm
	// fan-out for the keys rehashing back. The package doc describes
	// the states.
	FailAfter   int
	RejoinAfter int
	// Retry bounds per-request retries (see RetryPolicy).
	Retry RetryPolicy
	// AttemptTimeout bounds one buffered proxied attempt (default 2m —
	// a cold full-workbench experiment is the slow case), and so a
	// straggling backend when the request carries no deadline. Streaming
	// sweeps are bounded by the client's context instead. An X-Deadline
	// header tightens this further (see reqMeta).
	AttemptTimeout time.Duration
	// Quota is the per-tenant admission control (zero value = no limits;
	// tenant identity comes from the X-Tenant header).
	Quota QuotaConfig
	// RetryBudgetRatio funds the shared retry token bucket: every
	// admitted request adds this many tokens and every retry spends one,
	// so retries amplify a degraded fleet's traffic by at most ~this
	// fraction (default 0.1). Negative disables the budget.
	RetryBudgetRatio float64
	// Logf receives membership transitions and retry events (nil =
	// silent).
	Logf func(format string, args ...any)
}

// Router is the fleet front door: an http.Handler that consistently
// hashes workload keys onto healthy backends, with replicated ownership,
// retries and stream resumption. Build one with New, stop it with
// Shutdown or Close.
type Router struct {
	opts    Options
	mux     *http.ServeMux
	hc      *http.Client
	hs      *http.Server
	started time.Time

	// ctx bounds every background probe and fan-out; Close and Shutdown
	// cancel it under mu, and spawn registers goroutines under mu only
	// while it is live, so none can start after Close returns.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	ring     *ring // rebuilt on join/leave only; health never rebuilds it
	backends map[string]*backendState

	rehashes, failovers, retries, unavailable       atomic.Int64
	prewarms, prewarmsBuilt, prewarmsCold           atomic.Int64
	retryExhausted, quotaRejected, deadlineExceeded atomic.Int64

	admission *admission
	budget    *retryBudget

	// The prewarm fan-out is coalesced: one runs at a time, and membership
	// changes landing mid-run mark it dirty so it re-runs once with the
	// fresh topology instead of piling up a goroutine per flap.
	fanoutMu     sync.Mutex
	fanoutActive bool
	fanoutDirty  bool
	fanoutRepair bool
}

// backendState is one backend's membership record; all fields are
// guarded by the router's mutex.
type backendState struct {
	addr string
	health
	lastErr  string
	requests int64
	failures int64
}

// normalizeAddr canonicalizes a backend address the way New always has:
// trimmed, scheme-defaulted, no trailing slash. Empty input is an error.
func normalizeAddr(b string) (string, error) {
	a := strings.TrimRight(strings.TrimSpace(b), "/")
	if a == "" {
		return "", fmt.Errorf("fleet: empty backend address")
	}
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	return a, nil
}

// New builds the router and starts the health-probe loop. Backends are
// assumed healthy until the first probe says otherwise, so a router in
// front of a live fleet serves immediately. With Replication > 1 a
// startup prewarm fan-out warms every workload's replica set in the
// background.
func New(opts Options) (*Router, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("fleet: no backends configured")
	}
	var addrs []string
	seen := map[string]bool{}
	for _, b := range opts.Backends {
		if strings.TrimSpace(b) == "" {
			continue
		}
		a, err := normalizeAddr(b)
		if err != nil {
			return nil, err
		}
		if seen[a] {
			return nil, fmt.Errorf("fleet: duplicate backend %s", a)
		}
		seen[a] = true
		addrs = append(addrs, a)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("fleet: no backends configured")
	}
	if opts.Replication <= 0 {
		opts.Replication = 2
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = time.Second
	}
	if opts.FailAfter <= 0 {
		opts.FailAfter = 2
	}
	if opts.RejoinAfter <= 0 {
		opts.RejoinAfter = 2
	}
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = 2 * time.Minute
	}
	opts.Retry = opts.Retry.withDefaults()

	rt := &Router{
		opts: opts,
		ring: newRing(addrs, vnodes),
		mux:  http.NewServeMux(),
		hc: &http.Client{Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 32,
		}},
		backends:  map[string]*backendState{},
		admission: newAdmission(opts.Quota),
		budget:    newRetryBudget(opts.RetryBudgetRatio),
		started:   time.Now(),
	}
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	for _, a := range addrs {
		rt.backends[a] = &backendState{addr: a}
	}
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /v1/workloads", rt.handleWorkloads)
	rt.mux.HandleFunc("POST /v1/workloads", rt.handleImport)
	rt.mux.HandleFunc("GET /v1/eval", rt.handleEval)
	rt.mux.HandleFunc("POST /v1/sweep", rt.handleSweep)
	rt.mux.HandleFunc("GET /v1/experiments/{id}", rt.handleExperiment)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /v1/fleet", rt.handleFleetStatus)
	rt.mux.HandleFunc("POST /v1/fleet/join", rt.handleFleetJoin)
	rt.mux.HandleFunc("POST /v1/fleet/leave", rt.handleFleetLeave)
	rt.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteError(w, http.StatusNotFound,
			"no such endpoint %s (have /healthz, /v1/workloads, /v1/eval, /v1/sweep, /v1/experiments/{id}, /v1/stats, /v1/fleet)",
			r.URL.Path)
	})
	rt.hs = &http.Server{Handler: rt.mux}

	rt.spawn(rt.probeLoop)
	// Startup fan-out: push warmth to every workload's replica set so the
	// first primary failure already has a warm standby. R=1 keeps the
	// PR 7 lazy behavior (engines build on first traffic or rejoin).
	rt.scheduleFanout(false)
	return rt, nil
}

func (rt *Router) logf(format string, args ...any) {
	if rt.opts.Logf != nil {
		rt.opts.Logf(format, args...)
	}
}

// Handler returns the routing handler, for mounting under httptest or a
// larger mux.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Serve answers requests on l until Shutdown.
func (rt *Router) Serve(l net.Listener) error {
	if err := rt.hs.Serve(l); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Shutdown stops probing, drains in-flight requests and stops the
// router.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.stopProbes()
	return rt.hs.Shutdown(ctx)
}

// Close stops the router immediately, abandoning in-flight requests.
func (rt *Router) Close() error {
	rt.stopProbes()
	return rt.hs.Close()
}

// stopProbes cancels every background probe and fan-out and waits for
// their goroutines to exit.
func (rt *Router) stopProbes() {
	rt.mu.Lock()
	rt.cancel()
	rt.mu.Unlock()
	rt.wg.Wait()
	rt.hc.CloseIdleConnections()
}

// spawn runs f on a goroutine that Close waits for, and reports whether
// it did: once the router is stopping it starts nothing.
func (rt *Router) spawn(f func()) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.ctx.Err() != nil {
		return false
	}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		f()
	}()
	return true
}

func (rt *Router) probeLoop() {
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			rt.CheckNow()
		}
	}
}

// members returns the current full membership (healthy or not), sorted.
func (rt *Router) members() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := append([]string(nil), rt.ring.backends...)
	sort.Strings(out)
	return out
}

// curRing snapshots the ring pointer; a ring is immutable once built, so
// lookups on the snapshot need no lock.
func (rt *Router) curRing() *ring {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring
}

// CheckNow probes every current member once, concurrently, applying the
// fail/rejoin thresholds. The probe loop calls it on each tick; tests
// call it to step membership deterministically.
func (rt *Router) CheckNow() {
	var wg sync.WaitGroup
	for _, addr := range rt.members() {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			rt.probe(addr)
		}(addr)
	}
	wg.Wait()
}

func (rt *Router) probe(addr string) {
	ctx, cancel := context.WithTimeout(rt.ctx, rt.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := rt.hc.Do(req)
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			err = fmt.Errorf("healthz returned HTTP %d", resp.StatusCode)
		}
	}
	if err != nil && rt.ctx.Err() != nil {
		return // the router is stopping, not the backend
	}

	rt.mu.Lock()
	b := rt.backends[addr]
	if b == nil {
		// Left the fleet while this probe was in flight.
		rt.mu.Unlock()
		return
	}
	ev := probeOK
	if err != nil {
		ev = probeFailed
		b.lastErr = err.Error()
	}
	drained, rejoined := b.step(ev, rt.opts.FailAfter, rt.opts.RejoinAfter)
	fails := b.fails
	rt.mu.Unlock()

	switch {
	case drained:
		rt.logf("fleet: backend %s unhealthy after %d consecutive failures (%v)", addr, fails, err)
	case rejoined:
		rt.logf("fleet: backend %s healthy again after %d consecutive probe successes (half-open)", addr, rt.opts.RejoinAfter)
	}
	if rejoined || drained {
		// Repair fan-out, async: prewarm builds engines, which can take
		// seconds — it must not stall the probe cycle that keeps the rest
		// of the fleet's membership fresh. A drain repairs too: the dead
		// member's replica sets just gained a new deepest member that may
		// be cold.
		rt.scheduleFanout(true)
	}
}

// scheduleFanout queues a background prewarm fan-out. repair marks
// fan-outs triggered by membership change after startup — their builds
// on a workload's serving candidate are the "traffic could have gone
// cold" signal (prewarms_cold). Concurrent triggers coalesce: a run in
// flight is marked dirty and re-runs once with the newest topology.
func (rt *Router) scheduleFanout(repair bool) {
	if rt.opts.Replication <= 1 && !repair {
		// R=1 has no warm standby to maintain; only rejoin/leave repair
		// (the PR 7 prewarm-on-rejoin path) fans out.
		return
	}
	rt.fanoutMu.Lock()
	defer rt.fanoutMu.Unlock()
	if rt.fanoutActive {
		rt.fanoutDirty = true
		rt.fanoutRepair = rt.fanoutRepair || repair
		return
	}
	rt.fanoutActive = rt.spawn(func() {
		for {
			rt.fanout(repair)
			rt.fanoutMu.Lock()
			if rt.fanoutDirty {
				rt.fanoutDirty = false
				repair = rt.fanoutRepair
				rt.fanoutRepair = false
				rt.fanoutMu.Unlock()
				continue
			}
			rt.fanoutActive = false
			rt.fanoutMu.Unlock()
			return
		}
	})
}

// fanout pushes engine warmth to every workload's current replica set:
// each healthy backend gets one /v1/prewarm for the workloads whose
// replica set contains it (serve's Manager.Preload reports which engines
// it actually had to build). Keys covered: the scenario registry plus
// the imported workloads visible on any healthy backend.
func (rt *Router) fanout(repair bool) {
	ctx, cancel := context.WithTimeout(rt.ctx, rt.opts.AttemptTimeout)
	defer cancel()
	names := append([]string(nil), workload.Names()...)
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, addr := range rt.healthyBackends() {
		wls, err := rt.fetchWorkloads(ctx, addr)
		if err != nil {
			continue
		}
		for _, wl := range wls.Imported {
			if !seen[wl.Name] {
				seen[wl.Name] = true
				names = append(names, wl.Name)
			}
		}
	}

	assign := map[string][]string{}
	serving := map[string]string{}
	for _, name := range names {
		rs := rt.replicaSet(name)
		if len(rs) == 0 {
			continue
		}
		serving[name] = rs[0]
		for _, a := range rs {
			assign[a] = append(assign[a], name)
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	built := map[string][]string{}
	for addr, list := range assign {
		wg.Add(1)
		go func(addr string, list []string) {
			defer wg.Done()
			body, err := json.Marshal(serve.PrewarmRequest{Workloads: list})
			if err != nil {
				return
			}
			rt.prewarms.Add(1)
			pr, err := rt.tryOnce(ctx, addr, http.MethodPost, "/v1/prewarm", body, reqMeta{}, 0)
			if err != nil {
				rt.logf("fleet: prewarm %s (%d workload(s)): %v", addr, len(list), err)
				return
			}
			var resp serve.PrewarmResponse
			if json.Unmarshal(pr.body, &resp) == nil {
				mu.Lock()
				built[addr] = resp.Built
				mu.Unlock()
			}
		}(addr, list)
	}
	wg.Wait()

	total, cold := 0, 0
	for addr, list := range built {
		for _, n := range list {
			total++
			rt.prewarmsBuilt.Add(1)
			if repair && serving[n] == addr {
				// A repair fan-out had to build an engine on the backend
				// currently first in line for the workload: traffic in the
				// window before this build could have found it cold. With
				// R>=2 and a clean failover this stays zero — the standby
				// was already warm and only the new deeper replica builds.
				cold++
				rt.prewarmsCold.Add(1)
			}
		}
	}
	rt.logf("fleet: prewarm fan-out complete (repair=%v): %d backend(s), %d built, %d cold", repair, len(assign), total, cold)
}

func (rt *Router) fetchWorkloads(ctx context.Context, addr string) (serve.WorkloadsResponse, error) {
	var out serve.WorkloadsResponse
	pr, err := rt.tryOnce(ctx, addr, http.MethodGet, "/v1/workloads", nil, reqMeta{}, 0)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(pr.body, &out)
}

// candidates returns the key's failover sequence restricted to healthy
// backends; empty means every replica is down.
func (rt *Router) candidates(key string) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	order := rt.ring.order(key)
	out := make([]string, 0, len(order))
	for _, addr := range order {
		if b := rt.backends[addr]; b != nil && b.inRotation() {
			out = append(out, addr)
		}
	}
	return out
}

// replicaSet is the key's warm ownership set: its first Replication
// healthy candidates (all of them when fewer are healthy). The prewarm
// fan-out keeps engines built exactly here.
func (rt *Router) replicaSet(key string) []string {
	out := rt.candidates(key)
	if len(out) > rt.opts.Replication {
		out = out[:rt.opts.Replication]
	}
	return out
}

// warmSet is the key's health-blind first-R ring walk: the backends
// replication is expected to have kept warm. Serving from warmSet[1:] is
// a failover (warm standby took over); serving outside it is a rehash
// (the PR 7 cold path).
func (rt *Router) warmSet(key string) []string {
	return rt.curRing().replicaSet(key, rt.opts.Replication)
}

// classifyServed books the served-by counters: primary hits are free,
// warm-standby hits count as failovers, anything else as rehashes.
func (rt *Router) classifyServed(key, addr string) {
	warm := rt.warmSet(key)
	if len(warm) > 0 && addr == warm[0] {
		return
	}
	for _, a := range warm {
		if a == addr {
			rt.failovers.Add(1)
			return
		}
	}
	rt.rehashes.Add(1)
}

func (rt *Router) noteRequest(addr string) {
	rt.mu.Lock()
	if b := rt.backends[addr]; b != nil {
		b.requests++
	}
	rt.mu.Unlock()
}

// noteFailure records a data-path transport failure against addr's
// state machine: it shares the probes' failure counter, so a killed
// backend drains at request speed instead of waiting out a probe cycle.
func (rt *Router) noteFailure(addr string, err error) {
	rt.mu.Lock()
	b := rt.backends[addr]
	if b == nil {
		rt.mu.Unlock()
		return
	}
	b.failures++
	b.lastErr = err.Error()
	drained, _ := b.step(requestFailed, rt.opts.FailAfter, rt.opts.RejoinAfter)
	fails := b.fails
	rt.mu.Unlock()
	if drained {
		rt.logf("fleet: backend %s unhealthy after %d consecutive failures (%v)", addr, fails, err)
		// The dead member's replica sets gained a new deepest member that
		// may be cold; warm it in the background.
		rt.scheduleFanout(true)
	}
}

// noteSuccess records a data-path success: it clears a suspect streak
// and closes a half-open backend. It never readmits an open one:
// rejoin is the prober's job, because rejoin also triggers the prewarm
// fan-out.
func (rt *Router) noteSuccess(addr string) {
	rt.mu.Lock()
	if b := rt.backends[addr]; b != nil {
		b.step(requestOK, rt.opts.FailAfter, rt.opts.RejoinAfter)
	}
	rt.mu.Unlock()
}

// healthSnapshot returns the per-backend health rows and the healthy
// count, sorted by address for stable output.
func (rt *Router) healthSnapshot() ([]BackendHealth, int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]BackendHealth, 0, len(rt.backends))
	healthy := 0
	for _, b := range rt.backends {
		if b.inRotation() {
			healthy++
		}
		out = append(out, BackendHealth{
			Addr:                b.addr,
			Healthy:             b.inRotation(),
			ConsecutiveFailures: b.fails,
			LastError:           b.lastErr,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out, healthy
}

func fleetStatus(healthy, total int) string {
	switch {
	case healthy == total:
		return "ok"
	case healthy > 0:
		return "degraded"
	default:
		return "down"
	}
}
