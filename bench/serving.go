package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/perfcost"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/workload"
)

const (
	// serveLoops sizes the served workbench: warming all 140 cells takes
	// about a second at 16 loops, against 17 s at 60.
	serveLoops = 16
	// refRate is serve-open's reference rate, requests per second.
	refRate = 2000.0
	// ladderFactor is the rate increase per step above the reference.
	ladderFactor = 1.25
	// checkEvery picks one response in checkEvery for the byte-for-byte
	// check against a separate engine.
	checkEvery = 8
	// serveSetups is how many times a serving run sets up, for a steady
	// median.
	serveSetups = 3
	// probes is the number of unloaded probe pairs a traced run makes.
	probes = 300
	// satSample is how many saturation latencies each connection keeps.
	satSample = 1 << 16
)

// designCells returns the 140 cells of sweep.DesignSpace(16), each under the
// cycle model its access time selects.
func designCells() []cellKey {
	var out []cellKey
	for _, c := range sweep.DesignSpace(16) {
		out = append(out, cellKey{config: c.Config, regs: c.Regs, parts: c.Partitions})
	}
	return out
}

// picker draws cells by Zipf(1.1) popularity over a seed-dependent ranking,
// so a few cells take most requests and which ones varies with the seed.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	rank []int
}

func newPicker(seed int64, n int) *picker {
	rng := rand.New(rand.NewSource(seed))
	return &picker{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), rank: rng.Perm(n)}
}

func (p *picker) next() int { return p.rank[p.zipf.Uint64()] }

func evalURL(base string, c cellKey) string {
	q := url.Values{}
	q.Set("workload", workload.Default)
	q.Set("config", c.config.String())
	q.Set("regs", strconv.Itoa(c.regs))
	q.Set("partitions", strconv.Itoa(c.parts))
	if c.z != 0 {
		q.Set("z", strconv.Itoa(c.z))
	}
	return base + "/v1/eval?" + q.Encode()
}

func sweepBody(cells []cellKey) []byte {
	req := serve.SweepRequest{Workload: workload.Default}
	for _, c := range cells {
		req.Cells = append(req.Cells, serve.SweepCell{Config: c.config.String(), Regs: c.regs, Partitions: c.parts, Z: c.z})
	}
	buf, _ := json.Marshal(req) // strings and ints: cannot fail
	return buf
}

// backend is one in-process server on a loopback listener.
type backend struct {
	srv    *serve.Server
	addr   string
	served chan struct{}
}

func startBackend(opts serve.Options) (*backend, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &backend{srv: srv, addr: l.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(b.served)
		srv.Serve(l) // returns when close stops the server
	}()
	return b, nil
}

func (b *backend) url() string { return "http://" + b.addr }

// close stops the server at once and waits for Serve to return.
func (b *backend) close() {
	b.srv.Close()
	<-b.served
}

// stats reads the backend's /v1/stats body in process, which works after
// close too.
func (b *backend) stats() (serve.StatsResponse, error) {
	rec := httptest.NewRecorder()
	b.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st serve.StatsResponse
	err := json.Unmarshal(rec.Body.Bytes(), &st)
	return st, err
}

// suiteComputes sums the suite computations of the backend's engines.
func (b *backend) suiteComputes() int64 {
	var n int64
	for _, e := range b.srv.Manager().Stats().Engines {
		n += e.SuiteComputes
	}
	return n
}

// newConn returns a client that holds at most one connection per host.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   time.Minute,
	}
}

// control carries the benchmark's own requests outside the measured load:
// warm-up sweeps and stats scrapes.
var control = newConn()

// fetch sends a request and reads the whole body into buf.
func fetch(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// sampleKey names a checked response: an eval body or a sweep line.
type sampleKey struct {
	line bool
	cell cellKey
}

// sampler keeps the first checked response per cell and compares later
// ones with it; verify then compares each kept response with what a
// separate engine computes, encoded the way the server encodes it.
type sampler struct {
	mu         sync.Mutex
	first      map[sampleKey][]byte
	checked    int
	mismatches []string
}

func newSampler() *sampler { return &sampler{first: map[sampleKey][]byte{}} }

func (s *sampler) add(k sampleKey, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checked++
	prev, ok := s.first[k]
	if !ok {
		s.first[k] = bytes.Clone(body)
		return
	}
	if !bytes.Equal(prev, body) {
		s.mismatches = append(s.mismatches, fmt.Sprintf("%+v answered two different bodies", k.cell))
	}
}

func (s *sampler) verify(o *outcome) error {
	w, err := workload.Build(workload.Default, serveLoops, 0)
	if err != nil {
		return err
	}
	ref := perfcost.NewFromWorkload(w, nil)
	for k, body := range s.first {
		want := evalBody(ref, workload.Default, k.cell)
		if k.line {
			want = sweepLine(ref, k.cell)
		}
		if !bytes.Equal(body, want) {
			s.mismatches = append(s.mismatches, fmt.Sprintf("%+v: got %q, want %q", k.cell, body, want))
		}
	}
	o.failed += int64(len(s.mismatches))
	for _, m := range s.mismatches {
		o.problem("response check: %s", m)
	}
	o.note("%d responses checked byte for byte, %d distinct, %d mismatched", s.checked, len(s.first), len(s.mismatches))
	return nil
}

// serveRig is serve-open's system under test and its load.
type serveRig struct {
	b      *backend
	cells  []cellKey
	conns  [loadConns]*http.Client
	bufs   [loadConns]bytes.Buffer
	samp   *sampler
	tr     *tracer
	nextID int64
}

// setupServe starts a server with the default workload preloaded and
// warms every design cell through one sweep.
func setupServe(cells []cellKey) (*backend, time.Duration, error) {
	start := time.Now()
	b, err := startBackend(serve.Options{Loops: serveLoops, Preload: []string{workload.Default}})
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	code, err := fetch(control, http.MethodPost, b.url()+"/v1/sweep", sweepBody(cells), &buf)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("warm-up sweep: status %d: %s", code, buf.Bytes())
	}
	if err != nil {
		b.close()
		return nil, 0, err
	}
	return b, time.Since(start), nil
}

// setups is how many times a serving run sets up: once for a traced run
// (which does not print setup_s) or a smoke run.
func setups(cfg config) int {
	if cfg.trace || cfg.small {
		return 1
	}
	return serveSetups
}

// setUpMedian sets up n times, closing every rig but the last, and returns
// the last rig with the median set-up time in seconds.
func setUpMedian[R any](n int, setup func() (R, time.Duration, error), closeRig func(R)) (R, float64, error) {
	var rig R
	var took []float64
	for i := range n {
		r, d, err := setup()
		if err != nil {
			return rig, 0, err
		}
		took = append(took, sec(d))
		if i < n-1 {
			closeRig(r)
		}
		rig = r
	}
	return rig, median(took), nil
}

// run makes one open-loop step at rate for dur, with cells drawn by p.
func (r *serveRig) run(o *outcome, p *picker, rate float64, dur time.Duration) step {
	offsets := arrivals(p.rng, rate, dur)
	picks := make([]int, len(offsets))
	urls := make([]string, len(offsets))
	for i := range picks {
		picks[i] = p.next()
		urls[i] = evalURL(r.b.url(), r.cells[picks[i]])
	}
	base := r.nextID
	r.nextID += int64(len(offsets))
	o.attempted += int64(len(offsets))
	st := openLoop(offsets, rate, func(conn, i int, due time.Time) bool {
		sent := time.Now()
		code, err := fetch(r.conns[conn], http.MethodGet, urls[i], nil, &r.bufs[conn])
		if r.tr != nil {
			id := r.tr.id()
			end := time.Now()
			r.tr.add(r.tr.id(), id, base+int64(i), "http.eval", sent, end)
			r.tr.add(id, 0, base+int64(i), "loadgen.request", due, end)
		}
		ok := err == nil && code == http.StatusOK
		if ok && i%checkEvery == 0 {
			r.samp.add(sampleKey{cell: r.cells[picks[i]]}, r.bufs[conn].Bytes())
		}
		return ok
	})
	o.failed += int64(st.errors)
	return st
}

func describe(name string, s step) string {
	return fmt.Sprintf("%s: %.0f req/s, n=%d, p50 %.3f ms, p99 %.3f ms (%d beyond), late p99 %.3f ms, backlog max %d end %d, errors %d, meets=%v",
		name, s.rate, len(s.latMS), median(s.latMS), quantile(s.latMS, 0.99), len(s.latMS)/100,
		quantile(s.lateMS, 0.99), s.backlogMax, s.backlogEnd, s.errors, s.meets())
}

func runServeOpen(cfg config) (*outcome, error) {
	o := newOutcome()
	cells := designCells()
	b, setup, err := setUpMedian(setups(cfg), func() (*backend, time.Duration, error) { return setupServe(cells) }, (*backend).close)
	if err != nil {
		return nil, err
	}
	defer b.close()
	o.metrics["setup_s"] = setup

	r := &serveRig{b: b, cells: cells, samp: newSampler()}
	for c := range r.conns {
		r.conns[c] = newConn()
	}
	p := newPicker(cfg.seed, len(cells))
	// An untraced run spends 30% of its time at the reference rate and 60%
	// at saturation; a traced run splits its time between an untraced and
	// a traced reference step and the rate ladder.
	part := func(f float64) time.Duration {
		if cfg.small {
			return time.Second
		}
		return time.Duration(cfg.seconds * f * float64(time.Second))
	}
	refDur := part(0.3)
	if cfg.trace {
		refDur = part(0.25)
	}
	computes := b.suiteComputes()

	snap := readRuntime()
	ref := r.run(o, p, refRate, refDur)
	allocPerReq := snap.allocMB() / float64(len(ref.latMS))
	o.note("%s", describe("reference", ref))
	if !ref.valid() {
		o.note("reference step invalid: generator late p99 %.3f ms > %.1f ms", quantile(ref.lateMS, 0.99), lateBoundMS)
	}

	if !cfg.trace {
		// The open loop's latency does not repeat on a shared host (see
		// README.md); the saturated closed loop's does, within its bound.
		rate, lat := r.saturate(o, p, part(0.6))
		o.metrics["latency_ms"] = median(lat)
		o.metrics["throughput_per_s"] = rate
		o.metrics["alloc_mb_per_op"] = allocPerReq
		o.metrics["peak_rss_mb"] = peakRSSMB()
		return o, r.samp.verify(o)
	}

	tr := newTracer()
	r.tr = tr
	traced := r.run(o, p, refRate, refDur)
	o.note("%s", describe("traced reference", traced))
	o.metrics["trace.overhead_frac"] = median(traced.latMS)/median(ref.latMS) - 1
	o.metrics["serve.open_p50_ms"] = median(ref.latMS)
	o.metrics["loadgen.late_p99_ms"] = quantile(ref.lateMS, 0.99)
	o.metrics["loadgen.backlog_max"] = float64(ref.backlogMax)
	o.metrics["latency.p99_ms"] = quantile(ref.latMS, 0.99)
	o.metrics["loadgen.p999_ms"] = quantile(ref.latMS, 0.999)
	delta := b.suiteComputes() - computes
	o.metrics["serve.suite_computes"] = float64(delta)
	o.metrics["sched.calls"] = float64(delta * serveLoops) // each suite schedules every loop at least once
	if err := probeServe(o, r); err != nil {
		return nil, err
	}
	r.tr = nil // the ladder runs untraced
	o.metrics["serve.max_rate_per_s"] = r.maxRate(o, p, ref, part(0.1), time.Now().Add(part(0.4)))
	if err := tr.write(cfg.spans); err != nil {
		return nil, err
	}
	return o, r.samp.verify(o)
}

// saturate runs loadConns clients back to back for dur and returns the
// evals completed per second and a uniform sample of the successful evals'
// latencies in milliseconds (satSample per connection; the connections make
// about as many evals each).
func (r *serveRig) saturate(o *outcome, p *picker, dur time.Duration) (float64, []float64) {
	urls := make([]string, 1<<14)
	picks := make([]int, len(urls))
	for i := range urls {
		picks[i] = p.next()
		urls[i] = evalURL(r.b.url(), r.cells[picks[i]])
	}
	var done [loadConns]int
	var failed [loadConns]int
	var latMS [loadConns]*reservoir
	for c := range latMS {
		latMS[c] = newReservoir(satSample, int64(c))
	}
	start := time.Now()
	closedLoop(dur, func(conn int) {
		i := (done[conn]*loadConns + conn) % len(urls)
		sent := time.Now()
		code, err := fetch(r.conns[conn], http.MethodGet, urls[i], nil, &r.bufs[conn])
		done[conn]++
		if err != nil || code != http.StatusOK {
			failed[conn]++
			return
		}
		latMS[conn].add(ms(time.Since(sent)))
		if done[conn]%checkEvery == 0 {
			r.samp.add(sampleKey{cell: r.cells[picks[i]]}, r.bufs[conn].Bytes())
		}
	})
	took := time.Since(start)
	n := 0
	var lat []float64
	for c := range done {
		n += done[c]
		o.failed += int64(failed[c])
		lat = append(lat, latMS[c].keep...)
	}
	o.attempted += int64(n)
	o.note("saturation: %d connections back to back, %d evals in %.2fs; sample of %d: p50 %.3f ms, p99 %.3f ms",
		loadConns, n, took.Seconds(), len(lat), median(lat), quantile(lat, 0.99))
	return float64(n) / took.Seconds(), lat
}

// maxRate estimates the highest rate that meets the latency limit. It steps
// up by ladderFactor from the reference until a step misses the limit, then
// bisects the bracket geometrically while time remains, and interpolates
// where the p99 crosses the limit between the last step that met it and
// the first that missed it (log p99 against log rate).
func (r *serveRig) maxRate(o *outcome, p *picker, ref step, stepDur time.Duration, end time.Time) float64 {
	lo, hi := ref, step{}
	for time.Until(end) >= stepDur {
		rate := lo.rate * ladderFactor
		if hi.rate > 0 {
			rate = math.Sqrt(lo.rate * hi.rate)
		}
		st := r.run(o, p, rate, stepDur)
		o.note("%s", describe("ladder", st))
		if st.meets() {
			lo = st
		} else {
			hi = st
		}
	}
	loP99, hiP99 := quantile(lo.latMS, 0.99), quantile(hi.latMS, 0.99)
	if hi.rate == 0 || !hi.valid() || hi.errors > 0 || hiP99 <= p99LimitMS {
		return lo.rate
	}
	f := (math.Log(p99LimitMS) - math.Log(loP99)) / (math.Log(hiP99) - math.Log(loP99))
	return lo.rate * math.Pow(hi.rate/lo.rate, min(max(f, 0), 1))
}

// probeServe makes the traced run's unloaded probes: paired handler and
// wire calls for one warm cell, engine acquisition, a warm evaluation, and
// cold engine builds.
func probeServe(o *outcome, r *serveRig) error {
	cell := r.cells[0]
	target := evalURL(r.b.url(), cell)
	h := r.b.srv.Handler()
	var handler, wire []float64
	var allocs uint64
	for i := range probes {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rec := httptest.NewRecorder()
		snap := readRuntime()
		d := r.tr.timed("serve.handler", 0, func(int64) { h.ServeHTTP(rec, req) })
		allocs += readRuntime().allocObjects - snap.allocObjects
		if rec.Code != http.StatusOK {
			return fmt.Errorf("probe %d: handler status %d", i, rec.Code)
		}
		handler = append(handler, us(d))
		var code int
		var err error
		d = r.tr.timed("http.wire", 0, func(int64) { code, err = fetch(r.conns[0], http.MethodGet, target, nil, &r.bufs[0]) })
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("probe %d: wire status %d: %v", i, code, err)
		}
		wire = append(wire, us(d))
	}
	o.metrics["serve.handler_p50_us"] = median(handler)
	o.metrics["serve.handler_allocs"] = float64(allocs) / probes
	o.metrics["http.wire_overhead_us"] = median(wire) - median(handler)

	mgr := r.b.srv.Manager()
	var acquire, eval []float64
	for range probes {
		start := time.Now()
		hd, err := mgr.Acquire(workload.Default)
		if err != nil {
			return err
		}
		acquire = append(acquire, us(time.Since(start)))
		e := hd.Engine()
		start = time.Now()
		e.Evaluate(cell.config, cell.regs, cell.parts)
		eval = append(eval, us(time.Since(start)))
		hd.Release()
	}
	o.metrics["serve.acquire_us"] = median(acquire)
	o.metrics["perfcost.eval_warm_us"] = median(eval)
	return probeBuilds(o)
}

// probeBuilds times what a cold engine costs: building the workload alone,
// and Manager.Acquire of a workload no engine holds yet.
func probeBuilds(o *outcome) error {
	var builds, engines []float64
	for range 5 {
		start := time.Now()
		if _, err := workload.Build(workload.Default, serveLoops, 0); err != nil {
			return err
		}
		builds = append(builds, sec(time.Since(start)))
		mgr := serve.NewManager(serve.ManagerOptions{Loops: serveLoops})
		start = time.Now()
		hd, err := mgr.Acquire(workload.Default)
		if err != nil {
			return err
		}
		engines = append(engines, sec(time.Since(start)))
		hd.Release()
	}
	o.metrics["workload.build_s"] = median(builds)
	o.metrics["serve.engine_build_s"] = median(engines)
	return nil
}
