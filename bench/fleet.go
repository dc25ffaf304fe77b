package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/perfcost"
	"repro/internal/resultcache"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/workload"
)

const (
	// evalShare is the share of fleet-failover operations that are evals;
	// the rest are streamed sweeps of sweepSize cells, coldPerSweep of them
	// cells no one has requested before while the phase's share of the
	// cold pool lasts.
	evalShare    = 0.8
	sweepSize    = 8
	coldPerSweep = 2
)

// coldPool lists the (configuration, register file, cycle model) keys the
// set-up does not warm, in a seed-dependent order. It leaves out 32-register
// files and 16-wide configurations, whose cells take 20 to 300 ms at 16
// loops against about 1 ms for the rest, and would make the cold work
// depend on which keys the seed puts first.
func coldPool(warm []cellKey, seed int64) []cellKey {
	type suite struct {
		config machine.Config
		regs   int
		z      int
	}
	warmed := map[suite]bool{}
	for _, c := range warm {
		warmed[suite{c.config, c.regs, machine.ModelForCycleTime(timing.Default.Relative(c.config, c.regs, c.parts)).Z}] = true
	}
	var pool []cellKey
	for _, c := range machine.ConfigsUpToFactor(16) {
		for _, regs := range machine.RegFileSizes {
			for _, m := range machine.CycleModels() {
				if c.Width <= 8 && regs >= 64 && !warmed[suite{c, regs, m.Z}] {
					pool = append(pool, cellKey{config: c, regs: regs, parts: 1, z: m.Z})
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// fleetRig is fleet-failover's system under test: a router over two
// backends that share one result cache directory.
type fleetRig struct {
	backends [2]*backend
	router   *fleet.Router
	url      string
	served   chan struct{}
	cacheDir string
}

func setupFleet(tmp string, cells []cellKey) (*fleetRig, time.Duration, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(tmp, "fleet-cache-")
	if err != nil {
		return nil, 0, err
	}
	f := &fleetRig{cacheDir: dir, served: make(chan struct{})}
	fail := func(err error) (*fleetRig, time.Duration, error) {
		f.close()
		return nil, 0, err
	}
	var urls []string
	for i := range f.backends {
		b, err := startBackend(serve.Options{Loops: serveLoops, Preload: []string{workload.Default}, CacheDir: dir})
		if err != nil {
			return fail(err)
		}
		f.backends[i] = b
		urls = append(urls, b.url())
	}
	if f.router, err = fleet.New(fleet.Options{Backends: urls}); err != nil {
		return fail(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	f.url = "http://" + l.Addr().String()
	go func() {
		defer close(f.served)
		f.router.Serve(l) // returns when close stops the router
	}()

	// The router's replica prewarm builds every registered workload on
	// both backends; wait for it, then warm the design cells through the
	// router, which computes them on the primary and persists them.
	for _, b := range f.backends {
		for len(b.srv.Manager().Stats().Engines) < len(workload.Names()) {
			if time.Since(start) > time.Minute {
				return fail(fmt.Errorf("replica prewarm did not finish within a minute"))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	var buf bytes.Buffer
	code, err := fetch(control, http.MethodPost, f.url+"/v1/sweep", sweepBody(cells), &buf)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("warm-up sweep: status %d: %s", code, buf.Bytes())
	}
	if err != nil {
		return fail(err)
	}
	return f, time.Since(start), nil
}

func (f *fleetRig) close() {
	if f.router != nil {
		f.router.Close()
		<-f.served
	}
	for _, b := range f.backends {
		if b != nil {
			b.close()
		}
	}
	os.RemoveAll(f.cacheDir)
}

// stats reads the router's aggregated /v1/stats.
func (f *fleetRig) stats() (fleet.StatsResponse, error) {
	var st fleet.StatsResponse
	var buf bytes.Buffer
	code, err := fetch(control, http.MethodGet, f.url+"/v1/stats", nil, &buf)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("router stats: status %d", code)
	}
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), &st)
	}
	return st, err
}

// primary returns the backend the router sends the default workload to.
func (f *fleetRig) primary() (*backend, error) {
	st, err := f.stats()
	if err != nil {
		return nil, err
	}
	addr := st.Fleet.Routing[workload.Default]
	for _, b := range f.backends {
		if strings.TrimPrefix(addr, "http://") == b.addr {
			return b, nil
		}
	}
	return nil, fmt.Errorf("router routes %s to %q, not a known backend", workload.Default, addr)
}

// fleetClient is one closed-loop client with its own connection and draw,
// and what it measured.
type fleetClient struct {
	rng  *rand.Rand
	pick *picker
	conn *http.Client
	buf  bytes.Buffer

	ops, failed, sweepPoints int
	onlyMS                   []float64    // eval latencies of the evals-only phase
	evalMS                   [2][]float64 // eval latencies of phases A and B
	ttfpMS                   []float64    // time to a sweep's first point
}

// fleetLoad is the closed loop's shared state.
type fleetLoad struct {
	f       *fleetRig
	cells   []cellKey
	pool    [2][]cellKey // the cold keys of phases A and B
	taken   [2]atomic.Int64
	samp    *sampler
	clients [loadConns]*fleetClient
	tr      *tracer
}

// nextCold returns the next unrequested cold key of the phase, if any.
func (l *fleetLoad) nextCold(phase int) (cellKey, bool) {
	i := int(l.taken[phase].Add(1)) - 1
	if i >= len(l.pool[phase]) {
		return cellKey{}, false
	}
	return l.pool[phase][i], true
}

// eval sends one routed eval for the client's next cell and returns its
// latency in milliseconds, or false when it failed.
func (l *fleetLoad) eval(conn int) (float64, bool) {
	c := l.clients[conn]
	c.ops++
	start := time.Now()
	cell := l.cells[c.pick.next()]
	code, err := fetch(c.conn, http.MethodGet, evalURL(l.f.url, cell), nil, &c.buf)
	end := time.Now()
	l.tr.add(l.tr.id(), 0, int64(conn)<<32|int64(c.ops), "fleet.eval", start, end)
	if err != nil || code != http.StatusOK {
		c.failed++
		return 0, false
	}
	if c.ops%checkEvery == 0 {
		l.samp.add(sampleKey{cell: cell}, c.buf.Bytes())
	}
	return ms(end.Sub(start)), true
}

// evalOnly is the evals-only phase: the client's next eval.
func (l *fleetLoad) evalOnly(conn int) {
	if lat, ok := l.eval(conn); ok {
		c := l.clients[conn]
		c.onlyMS = append(c.onlyMS, lat)
	}
}

// op sends the client's next operation of phase A or B: an eval, or a
// streamed sweep.
func (l *fleetLoad) op(conn, phase int) {
	c := l.clients[conn]
	if c.rng.Float64() < evalShare {
		if lat, ok := l.eval(conn); ok {
			c.evalMS[phase] = append(c.evalMS[phase], lat)
		}
	} else {
		c.ops++
		start := time.Now()
		var cells []cellKey
		cold := map[int]bool{}
		for len(cells) < sweepSize {
			if len(cold) < coldPerSweep {
				if k, ok := l.nextCold(phase); ok {
					cold[len(cells)] = true
					cells = append(cells, k)
					continue
				}
			}
			cells = append(cells, l.cells[c.pick.next()])
		}
		points, ttfp, ok := l.stream(c, cells, cold)
		if !ok {
			c.failed++
		} else {
			c.sweepPoints += points
			c.ttfpMS = append(c.ttfpMS, ms(ttfp))
		}
		l.tr.add(l.tr.id(), 0, int64(conn)<<32|int64(c.ops), "fleet.sweep", start, time.Now())
	}
}

// stream runs one NDJSON sweep through the router and checks it: every
// point arrives, the trailer counts them, and the cold points plus one
// point in checkEvery match a separate engine byte for byte.
func (l *fleetLoad) stream(c *fleetClient, cells []cellKey, cold map[int]bool) (points int, ttfp time.Duration, ok bool) {
	start := time.Now()
	resp, err := c.conn.Post(l.f.url+"/v1/sweep?stream=1", "application/json", bytes.NewReader(sweepBody(cells)))
	if err != nil {
		return 0, 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, false
	}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return points, ttfp, false // ended without a trailer: truncated
		}
		if points == 0 {
			ttfp = time.Since(start)
		}
		if points == len(cells) {
			var tr serve.SweepTrailer
			return points, ttfp, json.Unmarshal(line, &tr) == nil && tr.Done && tr.Points == len(cells)
		}
		if cold[points] || points%checkEvery == 0 {
			l.samp.add(sampleKey{line: true, cell: cells[points]}, line)
		}
		points++
	}
}

func runFleet(cfg config) (*outcome, error) {
	o := newOutcome()
	cells := designCells()
	f, setup, err := setUpMedian(setups(cfg), func() (*fleetRig, time.Duration, error) { return setupFleet(cfg.tmp, cells) }, (*fleetRig).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	o.metrics["setup_s"] = setup

	pool := coldPool(cells, cfg.seed)
	l := &fleetLoad{f: f, cells: cells, pool: [2][]cellKey{pool[:len(pool)/2], pool[len(pool)/2:]}, samp: newSampler()}
	for c := range l.clients {
		seed := cfg.seed*loadConns + int64(c)
		l.clients[c] = &fleetClient{rng: rand.New(rand.NewSource(seed)), pick: newPicker(seed, len(cells)), conn: newConn()}
	}
	// The run measures an evals-only phase, then phases A and B of mixed
	// operations before and after the primary closes.
	part := func(f float64) time.Duration {
		if cfg.small {
			return time.Second
		}
		return time.Duration(cfg.seconds * f * float64(time.Second))
	}
	onlyDur, phaseDur := part(0.3), [2]time.Duration{part(0.4), part(0.3)}
	if cfg.trace {
		l.tr = newTracer()
		if err := probeFleet(o, f, cells, l.tr); err != nil {
			return nil, err
		}
	}
	computes := f.backends[0].suiteComputes() + f.backends[1].suiteComputes()

	// The clients' connections open in an unmeasured warm-up.
	closedLoop(warmup, func(conn int) { l.eval(conn) })
	closedLoop(onlyDur, l.evalOnly)
	var only []float64
	opsBefore := 0
	for _, c := range l.clients {
		only = append(only, c.onlyMS...)
		opsBefore += c.ops
	}
	o.note("evals only %.1fs: %d routed evals, p50 %.3f ms, p99 %.3f ms (%d beyond)",
		sec(onlyDur), len(only), median(only), quantile(only, 0.99), len(only)/100)

	snap := readRuntime()
	start := time.Now()
	closedLoop(phaseDur[0], func(conn int) { l.op(conn, 0) })
	primary, err := f.primary()
	if err != nil {
		return nil, err
	}
	primary.close()
	closedLoop(phaseDur[1], func(conn int) { l.op(conn, 1) })
	took := time.Since(start)
	alloc := snap.allocMB()

	var evalA, evalB, ttfp []float64
	var ops, sweepPoints int
	for _, c := range l.clients {
		ops += c.ops
		o.failed += int64(c.failed)
		sweepPoints += c.sweepPoints
		evalA = append(evalA, c.evalMS[0]...)
		evalB = append(evalB, c.evalMS[1]...)
		ttfp = append(ttfp, c.ttfpMS...)
	}
	o.attempted += int64(ops)
	ops -= opsBefore
	o.note("phase A %.1fs, phase B %.1fs after closing the primary %s: %d operations, %d evals in A (p50 %.3f ms), %d in B, %d sweeps, %d of %d cold keys used",
		sec(phaseDur[0]), sec(phaseDur[1]), primary.addr, ops, len(evalA), median(evalA), len(evalB), len(ttfp),
		min(int(l.taken[0].Load()), len(l.pool[0]))+min(int(l.taken[1].Load()), len(l.pool[1])), len(pool))

	if !cfg.trace {
		o.metrics["latency_ms"] = median(only)
		o.metrics["throughput_per_s"] = float64(sweepPoints) / took.Seconds()
		o.metrics["alloc_mb_per_op"] = alloc / float64(ops)
		o.metrics["peak_rss_mb"] = peakRSSMB()
		return o, l.samp.verify(o)
	}

	o.metrics["latency.p99_ms"] = quantile(only, 0.99)
	o.metrics["fleet.failover_p99_ms"] = quantile(evalB, 0.99)
	o.metrics["fleet.sweep_ttfp_ms"] = median(ttfp)
	st, err := f.stats()
	if err != nil {
		return nil, err
	}
	fi := st.Fleet
	o.metrics["fleet.failovers"] = float64(fi.Failovers)
	o.metrics["fleet.rehashes"] = float64(fi.Rehashes)
	o.metrics["fleet.retries"] = float64(fi.Retries)
	o.metrics["fleet.hedges"] = float64(fi.Hedges)
	o.metrics["fleet.hedge_win_frac"] = float64(fi.HedgeWins) / float64(max(fi.Hedges, 1))
	o.metrics["fleet.retry_budget_exhausted"] = float64(fi.RetryBudgetExhausted)
	o.metrics["fleet.prewarms_cold"] = float64(fi.PrewarmsCold)
	var suites int64
	for _, b := range f.backends {
		bs, err := b.stats()
		if err != nil {
			return nil, err
		}
		if cs := bs.Cache; cs != nil {
			o.metrics["resultcache.writes"] += float64(cs.Writes)
			o.metrics["resultcache.hits"] += float64(cs.Hits)
			o.metrics["resultcache.misses"] += float64(cs.Misses)
			o.metrics["resultcache.bytes_written"] += float64(cs.BytesWritten)
			o.metrics["resultcache.corrupt"] += float64(cs.Corrupt)
		}
		for _, e := range bs.Engines {
			suites += e.SuiteComputes
			o.metrics["serve.disk_hits"] += float64(e.DiskHits)
		}
	}
	o.metrics["serve.suite_computes"] = float64(suites - computes)
	o.metrics["sched.calls"] = float64((suites - computes) * serveLoops) // each suite schedules every loop at least once
	if err := probeStore(o, cfg.tmp); err != nil {
		return nil, err
	}
	if err := l.tr.write(cfg.spans); err != nil {
		return nil, err
	}
	return o, l.samp.verify(o)
}

// probeFleet makes unloaded paired probes of one warm cell: direct to the
// primary, then through the router, first untraced and then in spans; the
// difference between the two routed medians is the tracing overhead.
func probeFleet(o *outcome, f *fleetRig, cells []cellKey, tr *tracer) error {
	primary, err := f.primary()
	if err != nil {
		return err
	}
	direct, routed := evalURL(primary.url(), cells[0]), evalURL(f.url, cells[0])
	conn := newConn()
	defer conn.CloseIdleConnections()
	var buf bytes.Buffer
	get := func(url string) (time.Duration, error) {
		start := time.Now()
		code, err := fetch(conn, http.MethodGet, url, nil, &buf)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("probe %s: status %d", url, code)
		}
		return time.Since(start), err
	}
	var plain, diffs, traced []float64
	for i := range 2 * probes {
		var dd, dr time.Duration
		if i < probes {
			if dd, err = get(direct); err == nil {
				dr, err = get(routed)
			}
			plain = append(plain, us(dr))
		} else {
			tr.timed("probe.direct", 0, func(int64) { dd, err = get(direct) })
			if err == nil {
				tr.timed("probe.routed", 0, func(int64) { dr, err = get(routed) })
			}
			traced = append(traced, us(dr))
		}
		if err != nil {
			return err
		}
		diffs = append(diffs, us(dr-dd))
	}
	o.metrics["fleet.overhead_p50_us"] = median(diffs)
	o.metrics["fleet.overhead_p99_us"] = quantile(diffs, 0.99)
	o.metrics["trace.overhead_frac"] = median(traced)/median(plain) - 1
	return probeBuilds(o)
}

// probeStore times direct result-cache calls with a payload the size of
// one cell.
func probeStore(o *outcome, tmp string) error {
	dir, err := os.MkdirTemp(tmp, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := resultcache.Open(dir)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(perfcost.SuiteResult{OK: true, Cycles: 123456.75, SpilledLoops: 3, SpillOps: 12})
	if err != nil {
		return err
	}
	var put, get []float64
	for i := range probes {
		key := resultcache.Sum("probe", fmt.Sprint(i))
		start := time.Now()
		if err := store.Put(key, payload); err != nil {
			return err
		}
		put = append(put, us(time.Since(start)))
		start = time.Now()
		if _, ok := store.Get(key); !ok {
			return fmt.Errorf("result cache lost the entry it just stored")
		}
		get = append(get, us(time.Since(start)))
	}
	o.metrics["resultcache.put_us"] = median(put)
	o.metrics["resultcache.get_us"] = median(get)
	return nil
}
