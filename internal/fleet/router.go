package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// maxProxyBody bounds a buffered backend response (experiment artifacts
// over the full workbench are single-digit MBs; this is slack, not a
// target).
const maxProxyBody = 256 << 20

// maxStreamLine mirrors serve.Client's NDJSON line bound.
const maxStreamLine = 1 << 20

// trailerPrefix mirrors serve.Client's trailer probe: every SweepTrailer
// line opens with it, no Point line does.
var trailerPrefix = []byte(`{"done":`)

// reqMeta is the per-request end-to-end metadata the router threads
// through every attempt: the tenant (X-Tenant) and the client's absolute
// deadline (X-Deadline), both forwarded to whichever backend serves.
type reqMeta struct {
	tenant      string
	deadline    time.Time
	hasDeadline bool
}

// apply stamps the metadata onto an outgoing backend request.
func (m reqMeta) apply(h http.Header) {
	if m.tenant != "" {
		h.Set(serve.TenantHeader, m.tenant)
	}
	if m.hasDeadline {
		serve.SetDeadlineHeader(h, m.deadline)
	}
}

// expired reports that the request carries a deadline and it passed.
func (m reqMeta) expired() bool {
	return m.hasDeadline && time.Until(m.deadline) <= 0
}

// attemptBudget splits the remaining deadline evenly over the attempts
// still available — each retry gets a shrinking slice instead of the
// first attempt eating the whole budget, so a straggling replica is
// abandoned in time for the next one to answer — floored at 5ms so an
// attempt is never pointless. 0 means no deadline.
func (m reqMeta) attemptBudget(attemptsLeft int) time.Duration {
	if !m.hasDeadline {
		return 0
	}
	budget := time.Until(m.deadline) / time.Duration(max(attemptsLeft, 1))
	return max(budget, 5*time.Millisecond)
}

// admit is the per-request front door: deadline parsing, per-tenant
// admission, retry-budget funding. On refusal it writes the structured
// 400/429 itself and returns ok=false.
func (rt *Router) admit(w http.ResponseWriter, r *http.Request) (reqMeta, bool) {
	var m reqMeta
	m.tenant = r.Header.Get(serve.TenantHeader)
	deadline, ok, err := serve.ParseDeadlineHeader(r.Header.Get(serve.DeadlineHeader), time.Now())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return m, false
	}
	m.deadline, m.hasDeadline = deadline, ok
	if retryAfter, admitted := rt.admission.admit(m.tenant); !admitted {
		rt.writeQuotaExceeded(w, m.tenant, retryAfter, "request rate quota exceeded")
		return m, false
	}
	rt.budget.fund()
	return m, true
}

// proxyResult is one successful buffered attempt.
type proxyResult struct {
	status      int
	contentType string
	body        []byte
}

// tryOnce issues one buffered attempt against a backend, bounded by
// budget (0 = the configured AttemptTimeout; a deadline-derived budget
// is additionally capped by it). Transport failures and gateway-style
// statuses come back as errors (retryable); any other status is the
// backend's answer, success or not.
func (rt *Router) tryOnce(ctx context.Context, addr, method, path string, body []byte, m reqMeta, budget time.Duration) (*proxyResult, error) {
	if budget <= 0 || budget > rt.opts.AttemptTimeout {
		budget = rt.opts.AttemptTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, addr+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	m.apply(req.Header)
	rt.noteRequest(addr)
	resp, err := rt.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return nil, &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(data))}
	}
	return &proxyResult{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		body:        data,
	}, nil
}

// deliver writes a buffered attempt's outcome to our client, tagging
// which backend answered.
func deliver(w http.ResponseWriter, addr string, pr *proxyResult) {
	if pr.contentType != "" {
		w.Header().Set("Content-Type", pr.contentType)
	}
	w.Header().Set("X-Fleet-Backend", addr)
	w.WriteHeader(pr.status)
	w.Write(pr.body)
}

// forward proxies a buffered request for key over the retry walk, each
// attempt bounded by its slice of the request's deadline, and writes the
// response (or the structured error) itself.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key, method, path string, body []byte, m reqMeta) {
	var pr *proxyResult
	addr, err := rt.walk(r.Context(), key, m, func(addr string, n int) (err error) {
		pr, err = rt.tryOnce(r.Context(), addr, method, path, body, m, m.attemptBudget(rt.opts.Retry.MaxAttempts-n))
		return err
	})
	switch {
	case err == nil:
		deliver(w, addr, pr)
	case errors.Is(err, errNoBackend):
		rt.writeUnavailable(w, key)
	case m.expired():
		rt.writeDeadlineExceeded(w, key, m)
	default:
		writeError(w, http.StatusBadGateway, "fleet: %s %s failed after retries: %v", method, path, err)
	}
}

func (rt *Router) writeUnavailable(w http.ResponseWriter, key string) {
	rt.unavailable.Add(1)
	_, healthy := rt.healthSnapshot()
	total := len(rt.members())
	retryAfter := int((2*rt.opts.ProbeInterval + time.Second - 1) / time.Second)
	if retryAfter < 1 {
		retryAfter = 1
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter))
	w.WriteHeader(http.StatusServiceUnavailable)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(Unavailable{
		Error: fmt.Sprintf(
			"fleet: no healthy backend for workload %q (%d/%d backends healthy); retry after the probe horizon",
			key, healthy, total),
		RetryAfterSeconds: retryAfter,
		BackendsTotal:     total,
		BackendsHealthy:   healthy,
	})
}

func tenantName(tenant string) string {
	if tenant == "" {
		return "(anonymous)"
	}
	return tenant
}

// writeQuotaExceeded is the structured 429 with Retry-After.
func (rt *Router) writeQuotaExceeded(w http.ResponseWriter, tenant string, retryAfter time.Duration, what string) {
	rt.quotaRejected.Add(1)
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.WriteHeader(http.StatusTooManyRequests)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(QuotaExceeded{
		Error:             fmt.Sprintf("fleet: tenant %s %s; retry after %ds", tenantName(tenant), what, secs),
		Tenant:            tenant,
		RetryAfterSeconds: secs,
	})
}

// writeDeadlineExceeded is the structured 504: the request's X-Deadline
// expired before any backend completed it.
func (rt *Router) writeDeadlineExceeded(w http.ResponseWriter, key string, m reqMeta) {
	rt.deadlineExceeded.Add(1)
	writeJSON(w, http.StatusGatewayTimeout, DeadlineExceeded{
		Error:          fmt.Sprintf("fleet: deadline expired before the request for %q completed", key),
		DeadlineUnixMS: m.deadline.UnixMilli(),
	})
}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rows, healthy := rt.healthSnapshot()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:          fleetStatus(healthy, len(rows)),
		UptimeSeconds:   time.Since(rt.started).Seconds(),
		BackendsTotal:   len(rows),
		BackendsHealthy: healthy,
		Backends:        rows,
	})
}

// handleWorkloads merges the fleet's view: the registry from any healthy
// backend (identical everywhere), the imported lists unioned across
// backends (each import lives on its owners).
func (rt *Router) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type fetched struct {
		wls serve.WorkloadsResponse
		err error
	}
	cands := rt.healthyBackends()
	if len(cands) == 0 {
		rt.writeUnavailable(w, "")
		return
	}
	results := make([]fetched, len(cands))
	var wg sync.WaitGroup
	for i, addr := range cands {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			results[i].wls, results[i].err = rt.fetchWorkloads(r.Context(), addr)
		}(i, addr)
	}
	wg.Wait()
	merged := serve.WorkloadsResponse{Registry: []serve.WorkloadInfo{}, Imported: []serve.WorkloadInfo{}}
	seen := map[string]bool{}
	ok := false
	var lastErr error
	for i := range results {
		if results[i].err != nil {
			rt.noteFailure(cands[i], results[i].err)
			lastErr = results[i].err
			continue
		}
		if !ok {
			merged.Registry = results[i].wls.Registry
			ok = true
		}
		for _, wl := range results[i].wls.Imported {
			if !seen[wl.Name] {
				seen[wl.Name] = true
				merged.Imported = append(merged.Imported, wl)
			}
		}
	}
	if !ok {
		writeError(w, http.StatusBadGateway, "fleet: no backend answered /v1/workloads: %v", lastErr)
		return
	}
	sort.Slice(merged.Imported, func(i, j int) bool { return merged.Imported[i].Name < merged.Imported[j].Name })
	writeJSON(w, http.StatusOK, merged)
}

func (rt *Router) healthyBackends() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []string
	for _, addr := range rt.ring.backends {
		if b := rt.backends[addr]; b != nil && b.inRotation() {
			out = append(out, addr)
		}
	}
	return out
}

// handleImport routes an upload to the backend owning the workload's
// name — the same backend every eval and sweep for that name will hash
// to. The fan-out replicates the engine to the rest of the replica set
// on the next membership change; until then replicas build it lazily.
func (rt *Router) handleImport(w http.ResponseWriter, r *http.Request) {
	m, ok := rt.admit(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	wl, err := workload.Decode(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.forward(w, r, wl.Name, http.MethodPost, "/v1/workloads", body, m)
}

func (rt *Router) handleEval(w http.ResponseWriter, r *http.Request) {
	m, ok := rt.admit(w, r)
	if !ok {
		return
	}
	key := r.URL.Query().Get("workload")
	if key == "" {
		key = workload.Default
	}
	rt.forward(w, r, key, http.MethodGet, "/v1/eval?"+r.URL.RawQuery, nil, m)
}

func (rt *Router) handleExperiment(w http.ResponseWriter, r *http.Request) {
	m, ok := rt.admit(w, r)
	if !ok {
		return
	}
	key := r.URL.Query().Get("workload")
	if key == "" {
		key = workload.Default
	}
	path := "/v1/experiments/" + r.PathValue("id")
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	rt.forward(w, r, key, http.MethodGet, path, nil, m)
}

func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	m, ok := rt.admit(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var req serve.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode sweep request: %v", err)
		return
	}
	key := req.Workload
	if key == "" {
		key = workload.Default
	}
	// Sweeps pin an engine for seconds; the concurrent-sweep quota keeps
	// one tenant from monopolizing every backend at once.
	if !rt.admission.beginSweep(m.tenant) {
		rt.writeQuotaExceeded(w, m.tenant, time.Second, "concurrent-sweep quota exceeded")
		return
	}
	defer rt.admission.endSweep(m.tenant)
	if !streaming(r) {
		rt.forward(w, r, key, http.MethodPost, "/v1/sweep", body, m)
		return
	}
	rt.streamSweep(w, r, key, body, m)
}

// streamSweep proxies an NDJSON sweep with mid-stream failover: points
// forward (and flush) as they arrive; when the backend dies before the
// trailer, the retry walk replays the sweep on the next replica and the
// deterministic prefix already delivered is skipped, so the client sees
// one seamless complete stream. The router writes the terminating
// trailer itself once some attempt reaches the backend's trailer.
func (rt *Router) streamSweep(w http.ResponseWriter, r *http.Request, key string, body []byte, m reqMeta) {
	ctx := r.Context()
	if m.hasDeadline {
		// The deadline rides both the context (kills the proxy leg) and
		// the forwarded header (the backend aborts between sweep cells).
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, m.deadline)
		defer cancel()
	}
	flusher, _ := w.(http.Flusher)
	sent := 0
	headerWritten := false
	_, err := rt.walk(ctx, key, m, func(addr string, _ int) error {
		return rt.streamAttempt(ctx, addr, body, m, &sent, &headerWritten, w, flusher)
	})
	switch {
	case err == nil:
		// streamAttempt wrote the trailer, or the backend's rejection.
	case headerWritten:
		// Points already went out and HTTP cannot take them back: ending
		// without the trailer is the protocol's truncation signal, which
		// serve.Client surfaces as a retryable ErrTruncatedStream.
		rt.logf("fleet: sweep stream for %q abandoned after %d point(s): %v", key, sent, err)
	case errors.Is(err, errNoBackend):
		rt.writeUnavailable(w, key)
	case m.expired():
		rt.writeDeadlineExceeded(w, key, m)
	default:
		writeError(w, http.StatusBadGateway, "fleet: sweep stream failed after retries: %v", err)
	}
}

func writeStreamHeader(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
}

// streamAttempt runs one backend sweep stream, skipping the first *sent
// point lines (already delivered by a previous attempt — the sweep is
// deterministic and ordered, so the retry's prefix is byte-identical)
// and forwarding the rest. Returns nil once the stream is answered: the
// backend's trailer confirmed it complete and the router's own trailer
// went out, or the backend's deterministic rejection was forwarded.
func (rt *Router) streamAttempt(ctx context.Context, addr string, body []byte, m reqMeta, sent *int, headerWritten *bool, w http.ResponseWriter, flusher http.Flusher) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/sweep?stream=1", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	m.apply(req.Header)
	rt.noteRequest(addr)
	resp, err := rt.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		switch resp.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(data))}
		}
		// The backend's deterministic rejection (bad cells, unknown
		// workload): forward it verbatim when we still can.
		if !*headerWritten {
			ct := resp.Header.Get("Content-Type")
			deliver(w, addr, &proxyResult{status: resp.StatusCode, contentType: ct, body: data})
			return nil
		}
		return fmt.Errorf("fleet: backend %s answered HTTP %d mid-resume", addr, resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxStreamLine)
	n := 0
	// One splice buffer per stream: sc.Bytes() aliases the scanner's
	// internal buffer, so the forwarded line + '\n' is assembled in a
	// buffer we own (and reuse across points) rather than a fresh
	// append-copy per point.
	var out []byte
	for sc.Scan() {
		line := sc.Bytes()
		if !json.Valid(line) {
			// A connection cut mid-line reaches us as a complete-looking
			// final token (bufio.Scanner flushes its partial buffer before
			// reporting the read error). Forwarding it would corrupt the
			// client's stream unrecoverably — the resume skips whole lines,
			// so the fragment would never be completed. Drop it and retry.
			return fmt.Errorf("fleet: %w: backend %s sent a partial line after %d point(s)", serve.ErrTruncatedStream, addr, n)
		}
		// Trailer lines (and only they) open with {"done": — Point lines
		// lead with "label" — so the per-point cost of the trailer probe
		// is one byte comparison, not a speculative decode.
		if bytes.HasPrefix(line, trailerPrefix) {
			var t serve.SweepTrailer
			if json.Unmarshal(line, &t) == nil && t.Done {
				if t.Points != n || n < *sent {
					return fmt.Errorf("fleet: %w: backend %s trailer reports %d point(s), saw %d (already delivered %d)",
						serve.ErrTruncatedStream, addr, t.Points, n, *sent)
				}
				if !*headerWritten {
					writeStreamHeader(w)
					*headerWritten = true
				}
				json.NewEncoder(w).Encode(serve.SweepTrailer{Done: true, Points: *sent})
				return nil
			}
		}
		n++
		if n <= *sent {
			continue // deterministic prefix, already delivered
		}
		if !*headerWritten {
			writeStreamHeader(w)
			*headerWritten = true
		}
		out = append(append(out[:0], line...), '\n')
		if _, err := w.Write(out); err != nil {
			return fmt.Errorf("%w: %v", errClientGone, err)
		}
		*sent = n
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("fleet: %w: backend %s read failed after %d point(s): %v", serve.ErrTruncatedStream, addr, n, err)
	}
	return fmt.Errorf("fleet: %w: backend %s closed after %d point(s) with no trailer", serve.ErrTruncatedStream, addr, n)
}

// handleStats aggregates: the router's own counters, the replica map,
// the per-tenant ledger, plus each backend's proxied /v1/stats. Backends
// are scraped concurrently under a short per-backend deadline, so one
// hung backend reports as health "timeout" instead of stalling the
// whole endpoint.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rows, healthy := rt.healthSnapshot()
	resp := StatsResponse{
		Fleet: FleetInfo{
			Status:               fleetStatus(healthy, len(rows)),
			UptimeSeconds:        time.Since(rt.started).Seconds(),
			BackendsTotal:        len(rows),
			BackendsHealthy:      healthy,
			Replication:          rt.opts.Replication,
			Failovers:            rt.failovers.Load(),
			Rehashes:             rt.rehashes.Load(),
			Retries:              rt.retries.Load(),
			Unavailable:          rt.unavailable.Load(),
			Prewarms:             rt.prewarms.Load(),
			PrewarmsBuilt:        rt.prewarmsBuilt.Load(),
			PrewarmsCold:         rt.prewarmsCold.Load(),
			RetryBudgetExhausted: rt.retryExhausted.Load(),
			QuotaRejected:        rt.quotaRejected.Load(),
			DeadlineExceeded:     rt.deadlineExceeded.Load(),
			Routing:              map[string]string{},
			Replicas:             map[string][]string{},
		},
		Backends: make([]BackendStats, len(rows)),
	}
	for _, name := range workload.Names() {
		if rs := rt.replicaSet(name); len(rs) > 0 {
			resp.Fleet.Routing[name] = rs[0]
			resp.Fleet.Replicas[name] = rs
		}
	}
	var wg sync.WaitGroup
	for i, row := range rows {
		resp.Backends[i] = BackendStats{
			Addr:                row.Addr,
			Healthy:             row.Healthy,
			ConsecutiveFailures: row.ConsecutiveFailures,
			LastError:           row.LastError,
			Health:              "unhealthy",
		}
		rt.mu.Lock()
		if b := rt.backends[row.Addr]; b != nil {
			resp.Backends[i].Requests = b.requests
			resp.Backends[i].Failures = b.failures
			resp.Backends[i].State = b.state.String()
		}
		rt.mu.Unlock()
		if !row.Healthy {
			continue
		}
		resp.Backends[i].Health = "unreachable" // upgraded by a successful scrape
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			pr, err := rt.tryOnce(r.Context(), addr, http.MethodGet, "/v1/stats", nil, reqMeta{}, rt.opts.ProbeTimeout)
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					resp.Backends[i].Health = "timeout"
				}
				return
			}
			var ss serve.StatsResponse
			if json.Unmarshal(pr.body, &ss) == nil {
				resp.Backends[i].Stats = &ss
				resp.Backends[i].Health = "ok"
			}
		}(i, row.Addr)
	}
	wg.Wait()

	// Per-tenant engine-budget attribution: each warm engine's mem_units
	// split across the tenants that used it, proportional to their share
	// of its recorded requests.
	units := map[string]float64{}
	for i := range resp.Backends {
		if resp.Backends[i].Stats == nil {
			continue
		}
		for _, e := range resp.Backends[i].Stats.Engines {
			var total int64
			for _, n := range e.Tenants {
				total += n
			}
			if total == 0 {
				continue
			}
			for t, n := range e.Tenants {
				units[t] += float64(e.MemUnits) * float64(n) / float64(total)
			}
		}
	}
	tenants, names := rt.admission.snapshot()
	if len(tenants) > 0 || len(units) > 0 {
		resp.Fleet.Tenants = map[string]TenantStats{}
		for _, name := range names {
			ts := tenants[name]
			ts.EngineUnits = int64(math.Round(units[name]))
			resp.Fleet.Tenants[name] = ts
			delete(units, name)
		}
		// Tenants visible on backends but not in this router's ledger
		// (e.g. another router's traffic against the same fleet).
		for name, u := range units {
			resp.Fleet.Tenants[name] = TenantStats{EngineUnits: int64(math.Round(u))}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func streaming(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true", "yes":
		return true
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, serve.Error{Error: fmt.Sprintf(format, args...)})
}
