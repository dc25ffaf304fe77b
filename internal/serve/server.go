package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/perfcost"
	"repro/internal/resultcache"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Budget, Loops and Seed configure the engine manager (see
	// ManagerOptions).
	Budget int64
	Loops  int
	Seed   int64
	// Preload lists workloads whose engines are built at startup, so the
	// first request pays no synthesis or scheduling latency.
	Preload []string
	// CacheDir roots the persistent result cache: every engine the server
	// builds shares one content-addressed store there, so a restarted (or
	// evicted-and-rebuilt) engine rehydrates its cells from disk instead
	// of rescheduling. Empty disables persistence. Cache overrides
	// CacheDir with an already-open store (embedders, tests).
	CacheDir string
	Cache    *resultcache.Store
}

// Server is the long-lived design-space query service: an http.Handler
// over a Manager of warm engines. Build one with New, mount Handler (or
// call Serve), and stop it with Shutdown.
type Server struct {
	opts    Options
	mgr     *Manager
	cache   *resultcache.Store
	mux     *http.ServeMux
	hs      *http.Server
	started time.Time
	// preloadErrs records the startup preload failures (if any): the
	// server runs, but /healthz reports it degraded so operators and the
	// fleet router can see the missing warm starts.
	preloadErrs []string
}

// New builds a server and warms the preloaded engines. When some — but
// not all — preload entries fail, the server is still returned alongside
// the joined error (see Manager.Preload): callers that can tolerate
// partial warm-start keep serving with the engines that built, and
// callers that cannot treat the error as fatal as before. When every
// preload entry fails, nothing warmed and New fails outright.
func New(opts Options) (*Server, error) {
	cache := opts.Cache
	if cache == nil && opts.CacheDir != "" {
		var err error
		if cache, err = resultcache.Open(opts.CacheDir); err != nil {
			return nil, err
		}
	}
	s := &Server{
		opts:    opts,
		mgr:     NewManager(ManagerOptions{Budget: opts.Budget, Loops: opts.Loops, Seed: opts.Seed, Cache: cache}),
		cache:   cache,
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("POST /v1/workloads", s.handleImport)
	s.mux.HandleFunc("GET /v1/eval", s.handleEval)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/prewarm", s.handlePrewarm)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound,
			"no such endpoint %s (have /healthz, /v1/workloads, /v1/eval, /v1/sweep, /v1/experiments/{id}, /v1/stats, /v1/prewarm)",
			r.URL.Path)
	})
	s.hs = &http.Server{Handler: s.mux}
	if warmed, _, err := s.mgr.Preload(opts.Preload); err != nil {
		if warmed == 0 {
			return nil, err
		}
		for _, e := range flattenErrs(err) {
			s.preloadErrs = append(s.preloadErrs, e.Error())
		}
		return s, err
	}
	return s, nil
}

// flattenErrs unwraps an errors.Join result into its parts (or the error
// itself when it is not a join).
func flattenErrs(err error) []error {
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		return u.Unwrap()
	}
	return []error{err}
}

// Manager exposes the engine manager (tests and embedders).
func (s *Server) Manager() *Manager { return s.mgr }

// Handler returns the API handler, for mounting under httptest or a
// larger mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve answers requests on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	if err := s.hs.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown drains in-flight requests and stops the server.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.hs.Shutdown(ctx)
}

// Close stops the server immediately, abandoning in-flight requests. The
// serve command calls it when the graceful drain exceeds its
// -shutdown-timeout: a stuck stream must not hold the process hostage.
func (s *Server) Close() error {
	return s.hs.Close()
}

// degradedReasons reports what is impaired: preload entries that never
// warmed, and a result store that stopped absorbing writes. Both leave
// the server answering correctly — degraded, not down.
func (s *Server) degradedReasons() []string {
	reasons := append([]string(nil), s.preloadErrs...)
	if s.cache != nil {
		if n := s.cache.Stats().PutErrors; n > 0 {
			reasons = append(reasons, fmt.Sprintf("result cache: %d failed write(s) to %s", n, s.cache.Dir()))
		}
	}
	return reasons
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workloads:     len(workload.Names()) + len(s.mgr.Imported()),
	}
	if reasons := s.degradedReasons(); len(reasons) > 0 {
		resp.Status = "degraded"
		resp.Reasons = reasons
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePrewarm(w http.ResponseWriter, r *http.Request) {
	var req PrewarmRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "decode prewarm request: %v", err)
		return
	}
	if len(req.Workloads) == 0 {
		WriteError(w, http.StatusBadRequest, "prewarm request has no workloads")
		return
	}
	warmed, built, err := s.mgr.Preload(req.Workloads)
	resp := PrewarmResponse{Warmed: warmed, Built: built}
	if err != nil {
		for _, e := range flattenErrs(err) {
			resp.Errors = append(resp.Errors, e.Error())
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	resp := WorkloadsResponse{Registry: []WorkloadInfo{}, Imported: []WorkloadInfo{}}
	for _, info := range workload.Infos() {
		resp.Registry = append(resp.Registry, WorkloadInfo{
			Name:        info.Name,
			Description: info.Description,
			Loops:       info.Loops,
			Fixed:       info.Fixed,
		})
	}
	for _, wl := range s.mgr.Imported() {
		resp.Imported = append(resp.Imported, WorkloadInfo{
			Name:        wl.Name,
			Description: wl.Description,
			Loops:       len(wl.Loops),
			Ops:         totalOps(wl),
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	wl, err := workload.Decode(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	replaced, err := s.mgr.Import(wl)
	if err != nil {
		WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, ImportResponse{
		Name:     wl.Name,
		Loops:    len(wl.Loops),
		Ops:      totalOps(wl),
		Replaced: replaced,
	})
}

// requestContext applies the request's X-Deadline header (when present)
// to its context, so evaluation work is bounded by the client's
// end-to-end deadline rather than only by connection liveness. The
// error is a client error (bad header) the caller maps to 400.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	deadline, ok, err := ParseDeadlineHeader(r.Header.Get(DeadlineHeader), time.Now())
	if err != nil || !ok {
		return r.Context(), func() {}, err
	}
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	return ctx, cancel, nil
}

// writeDeadlineExceeded answers a request whose deadline passed before
// (or while) the evaluation could run: a structured 504 instead of
// burning scheduler time on an answer nobody is waiting for.
func writeDeadlineExceeded(w http.ResponseWriter, r *http.Request) {
	WriteError(w, http.StatusGatewayTimeout,
		"deadline %s exceeded before evaluation completed", r.Header.Get(DeadlineHeader))
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestContext(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	q := r.URL.Query()
	cfg, err := machine.ParseConfig(q.Get("config"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "config: %v (want the paper's XwY notation, e.g. 4w2)", err)
		return
	}
	regs, err := queryInt(q.Get("regs"), 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "regs: %v", err)
		return
	}
	parts, err := queryInt(q.Get("partitions"), 1)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "partitions: %v", err)
		return
	}
	z, err := queryInt(q.Get("z"), 0)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "z: %v", err)
		return
	}
	if regs < 1 || parts < 1 {
		WriteError(w, http.StatusBadRequest, "regs and partitions must be >= 1")
		return
	}
	h, err := s.acquire(w, r, q.Get("workload"))
	if err != nil {
		return
	}
	defer h.Release()
	if ctx.Err() != nil {
		writeDeadlineExceeded(w, r)
		return
	}
	p, err := evalCell(h.Engine(), cfg, regs, parts, z)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, EvalResponse{
		Workload:    h.Workload().Name,
		Point:       p,
		PeakSpeedup: h.Engine().PeakSpeedup(cfg),
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestContext(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "decode sweep request: %v", err)
		return
	}
	if len(req.Cells) == 0 {
		WriteError(w, http.StatusBadRequest, "sweep request has no cells")
		return
	}
	// Validate every cell before evaluating any: a typo in cell 40 must
	// not cost 39 schedules.
	cfgs := make([]machine.Config, len(req.Cells))
	for i, c := range req.Cells {
		cfg, err := machine.ParseConfig(c.Config)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "cell %d: config: %v", i, err)
			return
		}
		if c.Regs < 1 {
			WriteError(w, http.StatusBadRequest, "cell %d: regs must be >= 1", i)
			return
		}
		if c.Partitions < 0 {
			WriteError(w, http.StatusBadRequest, "cell %d: partitions must be >= 1 (or omitted for 1)", i)
			return
		}
		if c.Z != 0 {
			if _, ok := modelForZ(c.Z); !ok {
				WriteError(w, http.StatusBadRequest, "cell %d: %v", i, errBadModel(c.Z))
				return
			}
		}
		cfgs[i] = cfg
	}
	h, err := s.acquire(w, r, req.Workload)
	if err != nil {
		return
	}
	defer h.Release()
	eng := h.Engine()
	if ctx.Err() != nil {
		writeDeadlineExceeded(w, r)
		return
	}

	if Streaming(r) {
		// NDJSON: one point per line, in submission order, flushed as each
		// cell completes so slow sweeps render incrementally. The stream
		// ends with a SweepTrailer line — without it (encode failure,
		// dropped connection) the client knows the sweep was truncated
		// instead of mistaking the prefix for a complete result.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		sent := 0
		for i, c := range req.Cells {
			if ctx.Err() != nil {
				// Deadline passed mid-stream: stop evaluating and end the
				// stream without its trailer — the established truncation
				// signal — instead of scheduling cells nobody will wait for.
				return
			}
			p, _ := evalCell(eng, cfgs[i], c.Regs, max(c.Partitions, 1), c.Z)
			if err := enc.Encode(p); err != nil {
				return
			}
			sent++
			if flusher != nil {
				flusher.Flush()
			}
		}
		enc.Encode(SweepTrailer{Done: true, Points: sent})
		return
	}

	// Batch path: the unforced cells go through EvaluateMany as one
	// concurrent panel (duplicates coalesce on the engine's caches);
	// forced-model cells are evaluated individually.
	points := make([]Point, len(req.Cells))
	var batch []sweep.Cell
	var batchIdx []int
	for i, c := range req.Cells {
		if c.Z == 0 {
			batch = append(batch, sweep.Cell{Config: cfgs[i], Regs: c.Regs, Partitions: max(c.Partitions, 1)})
			batchIdx = append(batchIdx, i)
			continue
		}
		points[i], _ = evalCell(eng, cfgs[i], c.Regs, max(c.Partitions, 1), c.Z)
	}
	for bi, p := range eng.EvaluateMany(batch) {
		points[batchIdx[bi]] = toPoint(eng, p)
	}
	WriteJSON(w, http.StatusOK, SweepResponse{Workload: h.Workload().Name, Points: points})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	rctx, cancel, err := requestContext(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	id := r.PathValue("id")
	known := false
	for _, have := range experiments.IDs() {
		if have == id {
			known = true
			break
		}
	}
	if !known {
		WriteError(w, http.StatusNotFound, "unknown experiment %q (have %v)", id, experiments.IDs())
		return
	}
	var ctx *experiments.Context
	if experiments.Static(id) {
		// Workload-independent artifact (the cost-model tables/figures):
		// validate the workload name but do not materialize an engine a
		// static driver would never touch — a cold server must answer
		// table2 without synthesizing the 1180-loop default workbench.
		name := r.URL.Query().Get("workload")
		if name != "" && !s.mgr.Known(name) {
			WriteError(w, http.StatusNotFound, "%v", errUnknown(name))
			return
		}
		ctx = experiments.NewContextOver(nil, nil, 0, 0)
	} else {
		h, err := s.acquire(w, r, r.URL.Query().Get("workload"))
		if err != nil {
			return
		}
		defer h.Release()
		ctx = experiments.NewContextOver(h.Engine(), h.Workload(), s.opts.Loops, s.opts.Seed)
		// A served artifact is memoized whole: the next request — or a
		// rebuilt engine after eviction, or a fresh server on the same
		// cache dir — answers from disk without touching the scheduler.
		ctx.Cache = s.cache
	}
	if rctx.Err() != nil {
		writeDeadlineExceeded(w, r)
		return
	}
	res, err := ctx.Run(id)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// The response is the artifact's canonical export envelope, so a
	// served experiment and a `widening -out` file are byte-compatible.
	buf, err := sweep.MarshalArtifact(res)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	ms := s.mgr.Stats()
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		BudgetUnits:   ms.Budget,
		MemUnits:      ms.Mem,
		Hits:          ms.Hits,
		Misses:        ms.Misses,
		Builds:        ms.Builds,
		Evictions:     ms.Evictions,
		Engines:       ms.Engines,
	}
	if resp.Engines == nil {
		resp.Engines = []EngineStats{}
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		resp.Cache = &CacheStats{
			Dir:          s.cache.Dir(),
			Hits:         cs.Hits,
			Misses:       cs.Misses,
			Writes:       cs.Writes,
			Corrupt:      cs.Corrupt,
			BytesRead:    cs.BytesRead,
			BytesWritten: cs.BytesWritten,
			PutErrors:    cs.PutErrors,
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// acquire resolves the workload query parameter ("" = the default
// scenario) to a warm engine, writing the error response itself on
// failure. The request's tenant (X-Tenant) is recorded against the
// engine for budget attribution.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request, name string) (*Handle, error) {
	if name == "" {
		name = workload.Default
	}
	h, err := s.mgr.AcquireFor(name, r.Header.Get(TenantHeader))
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrUnknownWorkload) {
			code = http.StatusNotFound
		}
		WriteError(w, code, "%v", err)
		return nil, err
	}
	return h, nil
}

// evalCell evaluates one design cell, forcing the z cycle model when
// non-zero.
func evalCell(eng *perfcost.Engine, cfg machine.Config, regs, parts, z int) (Point, error) {
	if z == 0 {
		return toPoint(eng, eng.Evaluate(cfg, regs, parts)), nil
	}
	model, ok := modelForZ(z)
	if !ok {
		return Point{}, errBadModel(z)
	}
	return toPoint(eng, eng.EvaluateWithModel(cfg, regs, parts, model)), nil
}

func errBadModel(z int) error {
	var have []int
	for _, m := range machine.CycleModels() {
		have = append(have, m.Z)
	}
	return fmt.Errorf("no z=%d cycle model (have %v)", z, have)
}

func modelForZ(z int) (machine.CycleModel, bool) {
	for _, m := range machine.CycleModels() {
		if m.Z == z {
			return m, true
		}
	}
	return machine.CycleModel{}, false
}

func toPoint(eng *perfcost.Engine, p perfcost.Point) Point {
	return Point{
		Label:      p.Label(),
		Config:     p.Config.String(),
		Regs:       p.Regs,
		Partitions: p.Partitions,
		Tc:         p.Tc,
		Z:          p.Z,
		Cycles:     p.Cycles,
		Time:       p.Time,
		Area:       p.Area,
		OK:         p.OK,
		Failures:   p.Failures,
		Spilled:    p.SpilledLoops,
		SpillOps:   p.SpillOps,
		Speedup:    eng.Speedup(p),
	}
}

func totalOps(w *workload.Workload) int {
	var ops int
	for _, l := range w.Loops {
		ops += l.NumOps()
	}
	return ops
}

func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// Streaming reports whether a sweep request asks for the NDJSON stream
// (?stream=1, true or yes).
func Streaming(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// WriteJSON writes v as the indented JSON body of a response with status
// code. The fleet router writes its own answers through it too, so a
// routed error reads like a direct one.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes the structured Error body of a failed request.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, Error{Error: fmt.Sprintf(format, args...)})
}
