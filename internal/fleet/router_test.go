package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet/faultproxy"
	"repro/internal/serve"
	"repro/internal/workload"
)

// cluster is a full in-process fleet: N real serve backends, each behind
// a fault-injection proxy, with a router in front. Probing is manual
// (ProbeInterval is an hour): tests step membership with CheckNow.
type cluster struct {
	t         *testing.T
	servers   []*serve.Server
	brownouts []*brownout
	backs     []*httptest.Server
	proxies   []*faultproxy.Proxy
	addrs     []string // router-side backend addresses ("http://127.0.0.1:p")
	rt        *Router
	front     *httptest.Server
}

// brownout wraps a backend handler: while on, /healthz still answers but
// every /v1/ request is a 503 — a backend alive to the prober whose data
// path fails. faultproxy cannot produce this: it faults whole
// connections.
type brownout struct {
	on atomic.Bool
	h  http.Handler
}

func (b *brownout) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if b.on.Load() && strings.HasPrefix(r.URL.Path, "/v1/") {
		http.Error(w, "brownout", http.StatusServiceUnavailable)
		return
	}
	b.h.ServeHTTP(w, r)
}

func newCluster(t *testing.T, n int, opts Options) *cluster {
	t.Helper()
	c := &cluster{t: t}
	for i := 0; i < n; i++ {
		srv, err := serve.New(serve.Options{Loops: 4, Seed: 1})
		if err != nil {
			t.Fatalf("serve.New: %v", err)
		}
		bo := &brownout{h: srv.Handler()}
		ts := httptest.NewServer(bo)
		t.Cleanup(ts.Close)
		p, err := faultproxy.New(strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatalf("faultproxy.New: %v", err)
		}
		t.Cleanup(p.Close)
		c.servers = append(c.servers, srv)
		c.brownouts = append(c.brownouts, bo)
		c.backs = append(c.backs, ts)
		c.proxies = append(c.proxies, p)
		c.addrs = append(c.addrs, "http://"+p.Addr())
	}
	opts.Backends = c.addrs
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = time.Hour // membership moves only via CheckNow
	}
	if opts.FailAfter == 0 {
		opts.FailAfter = 1
	}
	if opts.RejoinAfter == 0 {
		opts.RejoinAfter = 1
	}
	if opts.AttemptTimeout == 0 {
		opts.AttemptTimeout = 10 * time.Second
	}
	if opts.Retry.BaseDelay == 0 {
		opts.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond}
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	// Close the router before the proxies/backends (cleanups run LIFO):
	// Close waits for in-flight prewarm goroutines that talk through them.
	t.Cleanup(func() { rt.Close() })
	c.rt = rt
	c.front = httptest.NewServer(rt.Handler())
	t.Cleanup(c.front.Close)
	return c
}

// proxyFor maps a router-side backend address back to its fault proxy.
func (c *cluster) proxyFor(addr string) *faultproxy.Proxy {
	for i, a := range c.addrs {
		if a == addr {
			return c.proxies[i]
		}
	}
	c.t.Fatalf("no proxy for %s", addr)
	return nil
}

// brownoutFor maps a router-side backend address to its data-path switch.
func (c *cluster) brownoutFor(addr string) *brownout {
	for i, a := range c.addrs {
		if a == addr {
			return c.brownouts[i]
		}
	}
	c.t.Fatalf("no backend for %s", addr)
	return nil
}

// serverFor maps a router-side backend address back to the real backend.
func (c *cluster) serverFor(addr string) (*serve.Server, *httptest.Server) {
	for i, a := range c.addrs {
		if a == addr {
			return c.servers[i], c.backs[i]
		}
	}
	c.t.Fatalf("no server for %s", addr)
	return nil, nil
}

// kill makes a backend look dead: new connections are accepted and
// dropped, in-flight ones are severed.
func (c *cluster) kill(addr string) {
	p := c.proxyFor(addr)
	p.Set(faultproxy.Config{Mode: faultproxy.Refuse})
	p.CloseActive()
}

func (c *cluster) revive(addr string) {
	c.proxyFor(addr).Set(faultproxy.Config{Mode: faultproxy.Pass})
}

// get fetches a router URL and returns status, headers and body.
func (c *cluster) get(path string) (*http.Response, []byte) {
	c.t.Helper()
	resp, err := c.front.Client().Get(c.front.URL + path)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, body
}

func (c *cluster) post(path string, body []byte) (*http.Response, []byte) {
	c.t.Helper()
	resp, err := c.front.Client().Post(c.front.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp, data
}

const evalPath = "/v1/eval?config=2w2&regs=64&workload=default"

func TestRouterRoutesConsistently(t *testing.T) {
	c := newCluster(t, 3, Options{})
	want := c.rt.candidates("default")[0]
	for i := 0; i < 3; i++ {
		resp, body := c.get(evalPath)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eval %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Fleet-Backend"); got != want {
			t.Fatalf("eval %d answered by %s, want the primary %s every time", i, got, want)
		}
		var er serve.EvalResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("eval %d: decode: %v", i, err)
		}
		if er.Workload != "default" || !er.Point.OK {
			t.Fatalf("eval %d: unexpected response %+v", i, er)
		}
	}
}

func TestRouterFailoverRehashes(t *testing.T) {
	c := newCluster(t, 3, Options{})
	primary := c.rt.candidates("default")[0]
	c.kill(primary)

	resp, body := c.get(evalPath)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval with dead primary: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fleet-Backend"); got == primary {
		t.Fatalf("answered by the killed primary %s", got)
	}
	// With the default R=2 the dead primary's traffic lands on the warm
	// standby inside the replica set: a failover, not a rehash.
	if n := c.rt.failovers.Load(); n < 1 {
		t.Fatalf("failovers = %d, want >= 1 after failover", n)
	}
	if n := c.rt.rehashes.Load(); n != 0 {
		t.Fatalf("rehashes = %d, want 0 (standby is inside the replica set)", n)
	}
	// The data-path failure alone (FailAfter=1) must have drained the
	// primary — no probe cycle ran.
	rows, healthy := c.rt.healthSnapshot()
	if healthy != 2 {
		t.Fatalf("healthy = %d after data-path failure, want 2 (%+v)", healthy, rows)
	}
}

func TestRouterAllDownReturns503(t *testing.T) {
	c := newCluster(t, 2, Options{})
	for _, addr := range c.addrs {
		c.kill(addr)
	}
	c.rt.CheckNow()

	resp, body := c.get(evalPath)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-down eval: HTTP %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	var u Unavailable
	if err := json.Unmarshal(body, &u); err != nil {
		t.Fatalf("decode 503 body: %v", err)
	}
	if u.BackendsHealthy != 0 || u.BackendsTotal != 2 || u.RetryAfterSeconds < 1 || u.Error == "" {
		t.Fatalf("unexpected 503 body: %+v", u)
	}
	if got := c.rt.unavailable.Load(); got < 1 {
		t.Fatalf("unavailable counter = %d, want >= 1", got)
	}

	// Recovery: both rejoin on the next probe round and traffic flows.
	for _, addr := range c.addrs {
		c.revive(addr)
	}
	c.rt.CheckNow()
	if resp, body := c.get(evalPath); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery eval: HTTP %d: %s", resp.StatusCode, body)
	}
}

// sweepBody builds a deterministic multi-point sweep request.
func sweepBody(t *testing.T, cells int) []byte {
	t.Helper()
	req := serve.SweepRequest{Workload: "default"}
	configs := []string{"1w1", "2w1", "2w2", "4w2"}
	for i := 0; i < cells; i++ {
		req.Cells = append(req.Cells, serve.SweepCell{
			Config: configs[i%len(configs)],
			Regs:   32 + 16*(i/len(configs)),
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRouterStreamResumeByteIdentical is the heart of the robustness
// contract: a backend truncating an NDJSON sweep mid-stream must be
// invisible to the client — the router replays the deterministic sweep on
// the next replica, skips the prefix already delivered, and the assembled
// stream is byte-for-byte what a healthy backend would have sent.
func TestRouterStreamResumeByteIdentical(t *testing.T) {
	c := newCluster(t, 3, Options{})
	body := sweepBody(t, 12)

	// Reference: the same sweep straight off a backend, no router, no
	// faults. All backends are identical (same workload, loops, seed).
	resp, err := http.Post(c.backs[0].URL+"/v1/sweep?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("direct sweep: %v", err)
	}
	direct, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("direct sweep: HTTP %d, err %v", resp.StatusCode, err)
	}
	if lines := bytes.Count(direct, []byte("\n")); lines < 13 {
		t.Fatalf("direct sweep has %d lines, want 12 points + trailer", lines)
	}

	// Cut the primary's response stream partway through (the byte offset
	// counts headers and chunk framing too; anywhere mid-stream works —
	// the resume path must produce identical bytes regardless of where
	// the cut lands). The fault applies at accept time, so close any
	// pooled keep-alive connections the startup fan-out opened in Pass
	// mode — the sweep must not ride one past the truncation.
	c.waitWarm()
	primary := c.rt.candidates("default")[0]
	c.proxyFor(primary).Set(faultproxy.Config{Mode: faultproxy.Truncate, After: 600})
	c.proxyFor(primary).CloseActive()

	got, gotResp := c.streamThroughRouter(body)
	if gotResp.StatusCode != http.StatusOK {
		t.Fatalf("routed sweep: HTTP %d: %s", gotResp.StatusCode, got)
	}
	if !bytes.Equal(direct, got) {
		t.Fatalf("routed stream differs from direct stream after mid-stream truncation:\ndirect (%d bytes):\n%s\nrouted (%d bytes):\n%s",
			len(direct), direct, len(got), got)
	}
	// The resume must land on the warm standby — the drain shifts the
	// candidate list left, and the retry walks the refreshed list from
	// its head instead of blindly keeping the old index (which would
	// skip the standby for the cold third backend).
	if n := c.rt.failovers.Load(); n < 1 {
		t.Fatalf("failovers = %d, want >= 1 (the resume ran on the warm standby)", n)
	}
	if n := c.rt.rehashes.Load(); n != 0 {
		t.Fatalf("rehashes = %d, want 0 (the resume stayed inside the replica set)", n)
	}
	if n := c.rt.retries.Load(); n < 1 {
		t.Fatalf("retries = %d, want >= 1", n)
	}
}

func (c *cluster) streamThroughRouter(body []byte) ([]byte, *http.Response) {
	c.t.Helper()
	resp, err := http.Post(c.front.URL+"/v1/sweep?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatalf("routed sweep: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("routed sweep: read: %v", err)
	}
	return data, resp
}

// TestClientSeesTruncationAsRetryable pins the PR 6 trailer contract end
// to end: a connection cut mid-stream surfaces from serve.Client as
// ErrTruncatedStream, and the fleet's retry classifier treats it as
// retryable (it is what drives the router's own resume).
func TestClientSeesTruncationAsRetryable(t *testing.T) {
	srv, err := serve.New(serve.Options{Loops: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	p, err := faultproxy.New(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Set(faultproxy.Config{Mode: faultproxy.Truncate, After: 600})

	client := serve.NewClient("http://" + p.Addr())
	var req serve.SweepRequest
	if err := json.Unmarshal(sweepBody(t, 12), &req); err != nil {
		t.Fatal(err)
	}
	err = client.SweepStream(context.Background(), req, func(serve.Point) error { return nil })
	if err == nil {
		t.Fatal("truncated stream reported as success")
	}
	if !errors.Is(err, serve.ErrTruncatedStream) {
		t.Fatalf("error %v does not wrap ErrTruncatedStream", err)
	}
	if !Retryable(err) {
		t.Fatalf("truncation %v classified as non-retryable", err)
	}
}

func TestRouterRejoinTriggersPrewarm(t *testing.T) {
	// R=1 pins the PR 7 single-owner semantics: no startup fan-out, so
	// the victim's build counter stays 0 until the rejoin repair runs.
	c := newCluster(t, 2, Options{Replication: 1})
	// Pick a backend that owns at least one registry workload (with 2
	// backends and several scenarios, both almost surely do — but derive
	// it rather than assume).
	var victim string
	owned := map[string]int{}
	for _, name := range workload.Names() {
		owned[c.rt.candidates(name)[0]]++
	}
	for addr, n := range owned {
		if n > 0 {
			victim = addr
			break
		}
	}
	if victim == "" {
		t.Fatal("no backend owns any workload")
	}
	srv, _ := c.serverFor(victim)
	if got := srv.Manager().Stats().Builds; got != 0 {
		t.Fatalf("victim has %d engine builds before any traffic", got)
	}

	c.kill(victim)
	c.rt.CheckNow()
	if _, healthy := c.rt.healthSnapshot(); healthy != 1 {
		t.Fatalf("healthy = %d after kill, want 1", healthy)
	}
	c.revive(victim)
	c.rt.CheckNow() // rejoin fires the async prewarm

	deadline := time.Now().Add(15 * time.Second)
	for srv.Manager().Stats().Builds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejoined backend never prewarmed an engine")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterStragglerAbandonedAtDeadlineSlice pins what bounds a slow
// replica: the request's X-Deadline is split across its attempts, so a
// stalled primary is abandoned after its slice and the standby answers
// well inside the deadline.
func TestRouterStragglerAbandonedAtDeadlineSlice(t *testing.T) {
	c := newCluster(t, 2, Options{})
	c.waitWarm() // the startup fan-out must not race the fault injection
	primary := c.rt.candidates("default")[0]
	c.proxyFor(primary).Set(faultproxy.Config{Mode: faultproxy.Delay, Delay: 2 * time.Second})
	// Sever pooled keep-alive connections: they were accepted in Pass mode
	// and would bypass the injected delay.
	c.proxyFor(primary).CloseActive()

	start := time.Now()
	resp, body := c.do(http.MethodGet, evalPath, map[string]string{serve.DeadlineHeader: "1500ms"})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadlined eval vs straggling primary: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fleet-Backend"); got == primary {
		t.Fatalf("straggling primary %s answered; its deadline slice never expired", got)
	}
	if elapsed > time.Second {
		t.Fatalf("eval took %v, want well under the 1.5s deadline (the primary's slice is 500ms)", elapsed)
	}
}

// TestRouterFailoverSkipsBackoff pins the retry walk's backoff rule:
// moving to a replica the request has not tried is immediate, for
// buffered requests and streams alike. Only re-asking a member already
// tried waits out the (here 500ms) backoff.
func TestRouterFailoverSkipsBackoff(t *testing.T) {
	c := newCluster(t, 2, Options{
		FailAfter: 1000, // keep the refused primary first in line for both requests
		Retry:     RetryPolicy{MaxAttempts: 3, BaseDelay: 500 * time.Millisecond, MaxDelay: time.Second},
	})
	c.waitWarm()
	primary, standby := c.rt.candidates("default")[0], c.rt.candidates("default")[1]
	// Warm the standby's cells directly, so the timings below measure
	// routing, not evaluation.
	_, standbyTS := c.serverFor(standby)
	body := sweepBody(t, 4)
	for _, warm := range []func() (*http.Response, error){
		func() (*http.Response, error) { return http.Get(standbyTS.URL + evalPath) },
		func() (*http.Response, error) {
			return http.Post(standbyTS.URL+"/v1/sweep?stream=1", "application/json", bytes.NewReader(body))
		},
	} {
		resp, err := warm()
		if err != nil {
			t.Fatalf("warm standby: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	c.kill(primary)

	start := time.Now()
	resp, data := c.get(evalPath)
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("eval failover took %v, want no backoff before the untried standby", elapsed)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Fleet-Backend") != standby {
		t.Fatalf("eval: HTTP %d from %q, want 200 from the standby %s: %s",
			resp.StatusCode, resp.Header.Get("X-Fleet-Backend"), standby, data)
	}

	start = time.Now()
	data, resp = c.streamThroughRouter(body)
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("stream failover took %v, want no backoff before the untried standby", elapsed)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var tr serve.SweepTrailer
	if resp.StatusCode != http.StatusOK || json.Unmarshal(lines[len(lines)-1], &tr) != nil || !tr.Done || tr.Points != 4 {
		t.Fatalf("stream: HTTP %d, want a complete 4-point stream: %s", resp.StatusCode, data)
	}
	if n := c.rt.retries.Load(); n != 2 {
		t.Fatalf("retries = %d, want 2 (one immediate failover per request)", n)
	}
}

// TestRouterStreamRejectionForwardedVerbatim pins that a backend's
// deterministic rejection of a streamed sweep reaches the client as that
// backend's answer alone, with no router trailer appended.
func TestRouterStreamRejectionForwardedVerbatim(t *testing.T) {
	c := newCluster(t, 2, Options{})
	data, resp := c.streamThroughRouter([]byte(`{"workload":"default","cells":[{"config":"bogus","regs":64}]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad streamed sweep: HTTP %d, want 400: %s", resp.StatusCode, data)
	}
	var e serve.Error
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Fatalf("rejection body is not one serve.Error (err %v): %s", err, data)
	}
}

func TestRouterStatsAggregation(t *testing.T) {
	c := newCluster(t, 2, Options{})
	if resp, body := c.get(evalPath); resp.StatusCode != http.StatusOK {
		t.Fatalf("eval: HTTP %d: %s", resp.StatusCode, body)
	}
	resp, body := c.get("/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d: %s", resp.StatusCode, body)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Fleet.Status != "ok" || st.Fleet.BackendsTotal != 2 || st.Fleet.BackendsHealthy != 2 {
		t.Fatalf("unexpected fleet info: %+v", st.Fleet)
	}
	if owner := st.Fleet.Routing["default"]; owner != c.rt.candidates("default")[0] {
		t.Fatalf("routing table says %q owns default, ring says %q", owner, c.rt.candidates("default")[0])
	}
	var reqs int64
	withStats := 0
	for _, b := range st.Backends {
		reqs += b.Requests
		if b.Stats != nil {
			withStats++
		}
	}
	if reqs < 1 {
		t.Fatal("no backend shows proxied requests")
	}
	if withStats != 2 {
		t.Fatalf("%d backends carry proxied serve stats, want 2", withStats)
	}
}

func TestRouterHealthAndWorkloads(t *testing.T) {
	c := newCluster(t, 3, Options{})
	resp, body := c.get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.BackendsTotal != 3 || h.BackendsHealthy != 3 || len(h.Backends) != 3 {
		t.Fatalf("unexpected health: %+v", h)
	}

	c.kill(c.addrs[0])
	c.rt.CheckNow()
	_, body = c.get("/healthz")
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.BackendsHealthy != 2 {
		t.Fatalf("health after one kill: %+v, want degraded with 2 healthy", h)
	}

	resp, body = c.get("/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workloads: HTTP %d: %s", resp.StatusCode, body)
	}
	var wls serve.WorkloadsResponse
	if err := json.Unmarshal(body, &wls); err != nil {
		t.Fatal(err)
	}
	if len(wls.Registry) != len(workload.Names()) {
		t.Fatalf("registry has %d entries, want %d", len(wls.Registry), len(workload.Names()))
	}
}

func TestRouterNonStreamSweep(t *testing.T) {
	c := newCluster(t, 2, Options{})
	resp, body := c.post("/v1/sweep", sweepBody(t, 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", resp.StatusCode, body)
	}
	var sr serve.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Workload != "default" || len(sr.Points) != 4 {
		t.Fatalf("unexpected sweep response: workload %q, %d points", sr.Workload, len(sr.Points))
	}
	if resp.Header.Get("X-Fleet-Backend") == "" {
		t.Fatal("buffered proxy response lacks X-Fleet-Backend")
	}
}

// TestRouterRebalanceHammer is the -race membership-churn invariant: with
// one backend flapping dead/alive under concurrent evals at the default
// R=2, every single client request still succeeds with the right answer —
// the churn shows up only in the failover and retry counters, never as a
// client error. The retry budget is disabled: the flapper deliberately
// fails far more than 10% of traffic, and this test pins the zero-loss
// invariant, not the budget (which has its own test).
func TestRouterRebalanceHammer(t *testing.T) {
	c := newCluster(t, 3, Options{
		Retry:            RetryPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond},
		RetryBudgetRatio: -1,
	})
	names := []string{"default", workload.Names()[0]}
	// Warm every backend's engines so hammer evals are cache hits.
	for _, ts := range c.backs {
		for _, name := range names {
			resp, err := http.Get(ts.URL + "/v1/eval?config=2w2&regs=64&workload=" + name)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("warmup %s: %v (HTTP %v)", name, err, resp)
			}
			resp.Body.Close()
		}
	}

	flapper := c.addrs[1]
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopChurn:
				return
			default:
			}
			c.kill(flapper)
			c.rt.CheckNow()
			time.Sleep(15 * time.Millisecond)
			c.revive(flapper)
			c.rt.CheckNow()
			time.Sleep(15 * time.Millisecond)
		}
	}()

	const workers, iters = 6, 25
	var wg sync.WaitGroup
	errc := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := c.front.Client()
			for i := 0; i < iters; i++ {
				name := names[(w+i)%len(names)]
				resp, err := client.Get(c.front.URL + "/v1/eval?config=2w2&regs=64&workload=" + name)
				if err != nil {
					errc <- fmt.Errorf("worker %d iter %d: %v", w, i, err)
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("worker %d iter %d: HTTP %d, err %v: %s", w, i, resp.StatusCode, err, body)
					continue
				}
				var er serve.EvalResponse
				if err := json.Unmarshal(body, &er); err != nil || er.Workload != name || !er.Point.OK {
					errc <- fmt.Errorf("worker %d iter %d: bad answer (err %v): %s", w, i, err, body)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopChurn)
	churnWG.Wait()
	close(errc)
	failed := 0
	for err := range errc {
		failed++
		t.Error(err)
	}
	if failed > 0 {
		t.Fatalf("%d of %d requests failed during membership churn; the invariant is zero", failed, workers*iters)
	}
}

func TestNewRejectsBadBackends(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New with no backends succeeded")
	}
	if _, err := New(Options{Backends: []string{" ", ""}}); err == nil {
		t.Fatal("New with only blank backends succeeded")
	}
	if _, err := New(Options{Backends: []string{"127.0.0.1:1", "http://127.0.0.1:1"}}); err == nil {
		t.Fatal("New with duplicate backends (post-normalization) succeeded")
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{fmt.Errorf("%w: client went away", errClientGone), false},
		{serve.ErrTruncatedStream, true},
		{fmt.Errorf("wrap: %w", serve.ErrTruncatedStream), true},
		{&StatusError{Code: http.StatusBadGateway}, true},
		{&StatusError{Code: http.StatusServiceUnavailable}, true},
		{io.ErrUnexpectedEOF, true},
		{context.DeadlineExceeded, true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestBackoffCappedAndJittered(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}.withDefaults()
	for attempt := 1; attempt < 10; attempt++ {
		for i := 0; i < 50; i++ {
			d := pol.backoff(attempt)
			if d < 0 || d > pol.MaxDelay {
				t.Fatalf("backoff(%d) = %v outside [0, %v]", attempt, d, pol.MaxDelay)
			}
		}
	}
}
