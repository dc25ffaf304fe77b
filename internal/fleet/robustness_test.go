package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet/faultproxy"
	"repro/internal/serve"
	"repro/internal/workload"
)

// waitWarm blocks until the background prewarm fan-out has run at least
// once and none is in flight — the point where every workload's replica
// set is warm and prewarms_cold accounting is settled.
func (c *cluster) waitWarm() {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		c.rt.fanoutMu.Lock()
		idle := !c.rt.fanoutActive && !c.rt.fanoutDirty
		c.rt.fanoutMu.Unlock()
		if idle && c.rt.prewarms.Load() > 0 {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatal("prewarm fan-out never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// do issues a router request with extra headers.
func (c *cluster) do(method, path string, headers map[string]string) (*http.Response, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.front.URL+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := c.front.Client().Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	return resp, body
}

func TestRingReplicaSetInvariants(t *testing.T) {
	backends := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	r := newRing(backends, 64)
	keys := append([]string{"default", "imported-thing", "x"}, workload.Names()...)
	for _, key := range keys {
		for n := 1; n <= len(backends)+2; n++ {
			rs := r.replicaSet(key, n)
			want := n
			if want > len(backends) {
				want = len(backends) // N < R degrades to all members
			}
			if len(rs) != want {
				t.Fatalf("replicaSet(%q, %d) has %d members, want %d", key, n, len(rs), want)
			}
			seen := map[string]bool{}
			for _, a := range rs {
				if seen[a] {
					t.Fatalf("replicaSet(%q, %d) repeats %s: %v", key, n, a, rs)
				}
				seen[a] = true
			}
		}
		// The replica set is a prefix of the full ring walk: deepening R
		// never reorders the members already chosen.
		full := r.order(key)
		for n := 1; n <= len(backends); n++ {
			rs := r.replicaSet(key, n)
			for i := range rs {
				if rs[i] != full[i] {
					t.Fatalf("replicaSet(%q, %d)[%d] = %s, order says %s", key, n, i, rs[i], full[i])
				}
			}
		}
	}
}

func TestRouterReplicaSetDistinctAndHealthy(t *testing.T) {
	c := newCluster(t, 3, Options{})
	for _, name := range workload.Names() {
		rs := c.rt.replicaSet(name)
		if len(rs) != 2 {
			t.Fatalf("replicaSet(%q) = %v, want 2 members at R=2", name, rs)
		}
		if rs[0] == rs[1] {
			t.Fatalf("replicaSet(%q) repeats %s", name, rs[0])
		}
	}
	// Kill one backend: every replica set re-fills to 2 distinct healthy
	// members, in ring-walk order (failover preserves order, no shuffle).
	victim := c.rt.replicaSet("default")[0]
	before := c.rt.candidates("default")
	c.kill(victim)
	c.rt.CheckNow()
	after := c.rt.candidates("default")
	if len(after) != len(before)-1 {
		t.Fatalf("candidates %v -> %v, want the victim removed and nothing else", before, after)
	}
	for i, a := range after {
		if a != before[i+1] {
			t.Fatalf("failover shuffled candidate order: %v -> %v", before, after)
		}
	}
	for _, name := range workload.Names() {
		rs := c.rt.replicaSet(name)
		if len(rs) != 2 || rs[0] == rs[1] {
			t.Fatalf("replicaSet(%q) = %v after kill, want 2 distinct members", name, rs)
		}
		for _, a := range rs {
			if a == victim {
				t.Fatalf("replicaSet(%q) still lists the dead %s", name, victim)
			}
		}
	}
}

func TestRouterRejoinRestoresReplicaMap(t *testing.T) {
	c := newCluster(t, 3, Options{})
	before := map[string][]string{}
	for _, name := range workload.Names() {
		before[name] = c.rt.replicaSet(name)
	}
	victim := before[workload.Names()[0]][0]
	c.kill(victim)
	c.rt.CheckNow()
	// Health never rebuilds the ring, so the health-blind warm set is
	// byte-identical mid-outage...
	for _, name := range workload.Names() {
		warm := c.rt.warmSet(name)
		for i, a := range warm {
			if a != before[name][i] {
				t.Fatalf("warmSet(%q) changed during outage: %v, want %v", name, warm, before[name])
			}
		}
	}
	c.revive(victim)
	c.rt.CheckNow()
	// ...and the healthy replica map after rejoin is exactly the
	// pre-failure map.
	for _, name := range workload.Names() {
		rs := c.rt.replicaSet(name)
		if fmt.Sprint(rs) != fmt.Sprint(before[name]) {
			t.Fatalf("replicaSet(%q) = %v after rejoin, want the pre-failure %v", name, rs, before[name])
		}
	}
}

// TestRouterWarmFailoverNoCold is the tentpole's read-path claim: at R=2
// the standby is warm before the primary dies, so the failover serves
// without any cold prewarm (prewarms_cold stays 0).
func TestRouterWarmFailoverNoCold(t *testing.T) {
	c := newCluster(t, 3, Options{})
	c.waitWarm()
	rs := c.rt.replicaSet("default")
	primary, standby := rs[0], rs[1]
	srv, _ := c.serverFor(standby)
	if !srv.Manager().Warm("default") {
		t.Fatalf("standby %s engine not warm after the startup fan-out", standby)
	}

	c.kill(primary)
	resp, body := c.get(evalPath)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval with dead primary: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fleet-Backend"); got != standby {
		t.Fatalf("answered by %s, want the warm standby %s", got, standby)
	}
	if n := c.rt.failovers.Load(); n < 1 {
		t.Fatalf("failovers = %d, want >= 1", n)
	}
	if n := c.rt.rehashes.Load(); n != 0 {
		t.Fatalf("rehashes = %d, want 0", n)
	}
	c.waitWarm() // let the drain-triggered repair settle before asserting cold
	if n := c.rt.prewarmsCold.Load(); n != 0 {
		t.Fatalf("prewarms_cold = %d after a clean R=2 failover, want 0", n)
	}
}

func TestRouterQuota429(t *testing.T) {
	c := newCluster(t, 2, Options{Quota: QuotaConfig{QPS: 0.1, Burst: 1}})
	// Burst 1: alice's first request is admitted, the second inside the
	// same refill window is refused with a structured 429.
	resp, body := c.do(http.MethodGet, evalPath, map[string]string{serve.TenantHeader: "alice"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice #1: HTTP %d: %s", resp.StatusCode, body)
	}
	resp, body = c.do(http.MethodGet, evalPath, map[string]string{serve.TenantHeader: "alice"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice #2: HTTP %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var q QuotaExceeded
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatalf("decode 429 body: %v: %s", err, body)
	}
	if q.Tenant != "alice" || q.RetryAfterSeconds < 1 || q.Error == "" {
		t.Fatalf("unexpected 429 body: %+v", q)
	}
	// The quota is per tenant: bob is unaffected by alice's burst.
	resp, body = c.do(http.MethodGet, evalPath, map[string]string{serve.TenantHeader: "bob"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob: HTTP %d, want 200 (quotas must not leak across tenants): %s", resp.StatusCode, body)
	}
	if n := c.rt.quotaRejected.Load(); n < 1 {
		t.Fatalf("quota_rejected = %d, want >= 1", n)
	}

	resp, body = c.get("/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	alice, ok := st.Fleet.Tenants["alice"]
	if !ok || alice.Requests < 1 || alice.Rejected < 1 {
		t.Fatalf("stats tenants = %+v, want alice with requests and rejections", st.Fleet.Tenants)
	}
	if bob := st.Fleet.Tenants["bob"]; bob.Rejected != 0 {
		t.Fatalf("bob shows %d rejections, want 0", bob.Rejected)
	}
}

// TestRouterDeadlineAgainstStalledBackend pins the end-to-end deadline:
// a stalled backend (alive at TCP, never answering) cannot hold a
// deadlined request past its budget — the router answers the structured
// 504 instead.
func TestRouterDeadlineAgainstStalledBackend(t *testing.T) {
	// FailAfter stays high so the stalled backend is never drained: the
	// deadline, not membership, must bound the request.
	c := newCluster(t, 1, Options{FailAfter: 1000})
	c.waitWarm() // let the startup fan-out finish before stalling the proxy
	c.proxyFor(c.addrs[0]).Set(faultproxy.Config{Mode: faultproxy.Stall})
	c.proxyFor(c.addrs[0]).CloseActive() // pooled conns were accepted in Pass mode

	start := time.Now()
	resp, body := c.do(http.MethodGet, evalPath, map[string]string{serve.DeadlineHeader: "150ms"})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadlined eval vs stall: HTTP %d, want 504: %s", resp.StatusCode, body)
	}
	var de DeadlineExceeded
	if err := json.Unmarshal(body, &de); err != nil {
		t.Fatalf("decode 504 body: %v: %s", err, body)
	}
	if de.Error == "" || de.DeadlineUnixMS == 0 {
		t.Fatalf("unexpected 504 body: %+v", de)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadlined request took %v, want bounded near the 150ms deadline", elapsed)
	}
	if n := c.rt.deadlineExceeded.Load(); n < 1 {
		t.Fatalf("deadline_exceeded = %d, want >= 1", n)
	}

	// A malformed deadline is the client's bug: 400, not a hang.
	resp, _ = c.do(http.MethodGet, evalPath, map[string]string{serve.DeadlineHeader: "yesterday"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus X-Deadline: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestRouterBrownoutLeavesRotation pins the state machine's answer to
// a backend whose /healthz answers while its data path fails: failed
// requests drain it, every probe rejoin readmits it half-open, and the
// first request after each rejoin reopens it — so it costs one request
// per probe cycle, and no client ever sees its failures.
func TestRouterBrownoutLeavesRotation(t *testing.T) {
	c := newCluster(t, 2, Options{FailAfter: 2})
	c.waitWarm()
	primary := c.rt.candidates("default")[0]
	c.brownoutFor(primary).on.Store(true)

	eval := func() *http.Response {
		t.Helper()
		resp, body := c.get(evalPath)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eval during brownout: HTTP %d: %s", resp.StatusCode, body)
		}
		return resp
	}
	requests := func() int64 {
		c.rt.mu.Lock()
		defer c.rt.mu.Unlock()
		return c.rt.backends[primary].requests
	}
	stateOf := func() string {
		t.Helper()
		_, body := c.get("/v1/stats")
		var st StatsResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		for _, b := range st.Backends {
			if b.Addr == primary {
				return b.State
			}
		}
		t.Fatalf("no stats row for %s", primary)
		return ""
	}

	// Two failed requests (each eval fails over to the standby) open it.
	for i := 0; i < 2; i++ {
		eval()
	}
	if got := stateOf(); got != "open" {
		t.Fatalf("primary state = %q after 2 failed requests, want open", got)
	}
	// Open: its request counter stops rising while evals keep succeeding.
	frozen := requests()
	for i := 0; i < 3; i++ {
		eval()
	}
	if n := requests() - frozen; n != 0 {
		t.Fatalf("open primary received %d request(s)", n)
	}

	// Each rejoin lets exactly one serial eval reach it, which reopens it.
	for round := 0; round < 3; round++ {
		c.rt.CheckNow()
		if got := stateOf(); got != "half-open" {
			t.Fatalf("round %d: primary state = %q after a probe rejoin, want half-open", round, got)
		}
		c.waitWarm() // the rejoin fan-out talks to the primary too
		before := requests()
		for i := 0; i < 3; i++ {
			eval()
		}
		if n := requests() - before; n != 1 {
			t.Fatalf("round %d: %d request(s) reached the half-open primary, want exactly 1", round, n)
		}
		if got := stateOf(); got != "open" {
			t.Fatalf("round %d: primary state = %q after its failed request, want open", round, got)
		}
	}

	// Fixed data path: one rejoin and one eval make it healthy, and it
	// serves its keys again.
	c.brownoutFor(primary).on.Store(false)
	c.rt.CheckNow()
	c.waitWarm()
	for i := 0; i < 3; i++ {
		if got := eval().Header.Get("X-Fleet-Backend"); got != primary {
			t.Fatalf("eval %d after recovery answered by %s, want the primary %s", i, got, primary)
		}
	}
	if got := stateOf(); got != "healthy" {
		t.Fatalf("primary state = %q after a request success, want healthy", got)
	}
}

// TestRouterCloseStopsProbes pins the router's goroutine lifetime: Close
// cancels a probe in flight instead of returning while it still holds a
// connection open for up to ProbeTimeout.
func TestRouterCloseStopsProbes(t *testing.T) {
	rt, err := New(Options{
		Backends:      []string{"127.0.0.1:1"},
		Replication:   1,
		ProbeInterval: time.Hour,
		ProbeTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A member that accepts connections and never answers.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := l.Accept(); err == nil {
			accepted <- conn
		}
	}()
	if err := rt.Join(l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	var conn net.Conn
	select {
	case conn = <-accepted:
		defer conn.Close()
	case <-time.After(5 * time.Second):
		rt.Close()
		t.Fatal("the join probe never connected")
	}

	rt.Close()
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the probe's connection was still open 1s after Close returned")
	}
}

func TestRouterJoinLeave(t *testing.T) {
	c := newCluster(t, 2, Options{})
	c.waitWarm()

	// Spin up a third backend outside the cluster harness and join it.
	srv, err := serve.New(serve.Options{Loops: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(MemberRequest{Addr: ts.URL})
	resp, err := c.front.Client().Post(c.front.URL+"/v1/fleet/join", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: HTTP %d: %s", resp.StatusCode, data)
	}

	// The immediate probe (RejoinAfter=1) adopts the member; poll until
	// it is healthy and the ring serves over 3 backends.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var fm FleetMembership
		_, data := c.get("/v1/fleet")
		if err := json.Unmarshal(data, &fm); err != nil {
			t.Fatal(err)
		}
		if fm.BackendsTotal == 3 && fm.BackendsHealthy == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joined backend never became healthy: %+v", fm)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Duplicate join and unknown leave are structured conflicts.
	resp, _ = c.front.Client().Post(c.front.URL+"/v1/fleet/join", "application/json", strings.NewReader(string(body)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate join: HTTP %d, want 409", resp.StatusCode)
	}
	unknown, _ := json.Marshal(MemberRequest{Addr: "http://127.0.0.1:1"})
	resp, _ = c.front.Client().Post(c.front.URL+"/v1/fleet/leave", "application/json", strings.NewReader(string(unknown)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unknown leave: HTTP %d, want 409", resp.StatusCode)
	}

	// Leave: the member retires, the ring rebalances onto the rest.
	resp, err = c.front.Client().Post(c.front.URL+"/v1/fleet/leave", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: HTTP %d: %s", resp.StatusCode, data)
	}
	var fm FleetMembership
	if err := json.Unmarshal(data, &fm); err != nil {
		t.Fatal(err)
	}
	if fm.BackendsTotal != 2 {
		t.Fatalf("after leave: %d members, want 2", fm.BackendsTotal)
	}
	for _, rs := range fm.Replicas {
		for _, a := range rs {
			if a == ts.URL {
				t.Fatalf("left member %s still in the replica map: %+v", ts.URL, fm.Replicas)
			}
		}
	}
	if resp, body := c.get(evalPath); resp.StatusCode != http.StatusOK {
		t.Fatalf("eval after leave: HTTP %d: %s", resp.StatusCode, body)
	}

	// The last two members are protected: shrink to one, then refuse.
	for i, addr := range c.addrs {
		b, _ := json.Marshal(MemberRequest{Addr: addr})
		resp, _ := c.front.Client().Post(c.front.URL+"/v1/fleet/leave", "application/json", strings.NewReader(string(b)))
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if i == 0 && resp.StatusCode != http.StatusOK {
			t.Fatalf("leave #%d: HTTP %d: %s", i, resp.StatusCode, data)
		}
		if i == 1 && resp.StatusCode != http.StatusConflict {
			t.Fatalf("leave of the last member: HTTP %d, want 409: %s", resp.StatusCode, data)
		}
	}
}

func TestRouterRetryBudgetExhaustion(t *testing.T) {
	c := newCluster(t, 2, Options{
		RetryBudgetRatio: 0.0001, // fund essentially nothing: the initial 10 tokens are the whole budget
		FailAfter:        1000,   // keep the broken primary in rotation
	})
	c.waitWarm()
	primary := c.rt.candidates("default")[0]
	// kill also severs the startup fan-out's pooled connection, which
	// was accepted in Pass mode and would otherwise serve every eval.
	c.kill(primary)

	// Every eval burns one retry (primary fails, standby answers) until
	// the bucket runs dry; after that the failure is terminal.
	okBefore := false
	saw502 := false
	for i := 0; i < 20; i++ {
		resp, _ := c.get(evalPath)
		switch resp.StatusCode {
		case http.StatusOK:
			if saw502 {
				t.Fatalf("eval %d succeeded after the budget ran out", i)
			}
			okBefore = true
		case http.StatusBadGateway:
			saw502 = true
		default:
			t.Fatalf("eval %d: unexpected HTTP %d", i, resp.StatusCode)
		}
	}
	if !okBefore || !saw502 {
		t.Fatalf("ok-before=%v saw502=%v, want budget-funded successes then exhaustion", okBefore, saw502)
	}
	if n := c.rt.retryExhausted.Load(); n < 1 {
		t.Fatalf("retry_budget_exhausted = %d, want >= 1", n)
	}
}

// TestRouterStatsTimeoutRow is the aggregated-stats bugfix: a backend
// that hangs the stats scrape reports as health "timeout" within the
// per-backend deadline instead of stalling the whole endpoint.
func TestRouterStatsTimeoutRow(t *testing.T) {
	c := newCluster(t, 2, Options{ProbeTimeout: 150 * time.Millisecond})
	c.waitWarm() // let the startup fan-out finish before stalling the proxy
	hung := c.addrs[0]
	// Sever pooled keep-alive connections too: they were accepted in Pass
	// mode and would bypass the stall.
	c.proxyFor(hung).Set(faultproxy.Config{Mode: faultproxy.Stall})
	c.proxyFor(hung).CloseActive()

	start := time.Now()
	resp, body := c.get("/v1/stats")
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d: %s", resp.StatusCode, body)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("stats took %v with one hung backend, want the per-backend deadline to bound it", elapsed)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	var hungHealth, otherHealth string
	for _, b := range st.Backends {
		if b.Addr == hung {
			hungHealth = b.Health
		} else {
			otherHealth = b.Health
		}
	}
	if hungHealth != "timeout" {
		t.Fatalf("hung backend health = %q, want \"timeout\"", hungHealth)
	}
	if otherHealth != "ok" {
		t.Fatalf("live backend health = %q, want \"ok\"", otherHealth)
	}
}
