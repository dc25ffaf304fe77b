// Package fleet is the sharded serving tier: a router that consistently
// hashes workload names onto a set of `widening serve` backends and
// keeps answering while backends fail. It speaks the same HTTP/JSON API
// as one backend — clients cannot tell a fleet from a single server,
// except that killing a backend under them does not fail their requests.
//
//	GET  /healthz                   fleet membership health
//	GET  /v1/workloads              merged registry + imported listing
//	POST /v1/workloads              import, routed to the owning backend
//	GET  /v1/eval                   routed + retried
//	POST /v1/sweep                  routed + retried (streams resume on survivors)
//	GET  /v1/experiments/{id}       routed + retried
//	GET  /v1/stats                  fleet counters + per-backend stats
//	GET  /v1/fleet                  membership + replica map
//	POST /v1/fleet/join             add a backend without restarting
//	POST /v1/fleet/leave            retire a backend without restarting
//
// Robustness model, in order of the request path:
//
//   - Ownership is replicated: each workload hashes to an ordered
//     replica set of Replication distinct backends (default 2), all kept
//     warm by a background prewarm fan-out that re-runs on every
//     membership change. The primary serves; when it dies the request
//     fails over to the already-warm standby — no rehash beyond the
//     replica set, no cold engine build on the read path.
//   - Membership is dynamic and health-checked: /v1/fleet/join adds a
//     backend (out of rotation until probed, prewarmed before it takes
//     keys) and /v1/fleet/leave retires one. Each member runs one failure
//     state machine (healthy → suspect → open → half-open): FailAfter
//     consecutive failures — /healthz probes and proxied requests share
//     the counter — drain it, RejoinAfter probe successes readmit it
//     half-open, and there its first request success makes it healthy
//     while its first failure drains it again. So a backend whose
//     /healthz answers but whose requests fail leaves rotation on its
//     first failed request after each rejoin. The hash ring rebuilds
//     only on join/leave — never on health flaps — so a rejoin restores
//     the exact pre-failure replica map.
//   - Requests are admitted per tenant (the X-Tenant header): a token
//     bucket caps each tenant's QPS and concurrent sweeps, refusing
//     excess with a structured 429 + Retry-After so one greedy client
//     cannot evict every other tenant's engines.
//   - Deadlines propagate end to end: a client's X-Deadline becomes
//     shrinking per-attempt budgets across retries, is forwarded to the
//     backend (which aborts evaluation between sweep cells), and expires
//     as a structured 504. The slices also bound a straggling backend:
//     it is abandoned after its slice and the next replica answers.
//     Without a deadline, AttemptTimeout bounds each buffered attempt.
//   - Every proxied request, buffered or streamed, takes one retry walk
//     over the key's in-rotation replicas in ring order: a failure moves
//     to an untried replica at once, and only re-asking a member already
//     tried waits out capped exponential backoff with jitter. Retries
//     spend a shared token-bucket retry budget (~10% of traffic), so
//     they can never storm a degraded fleet. Only idempotent failures
//     retry (see Retryable); a backend's deterministic answer is
//     forwarded, never re-asked.
//   - Streaming sweeps resume: points are forwarded as they arrive, and
//     when a backend dies mid-stream the router replays the sweep on the
//     next replica, skips the deterministic prefix it already delivered,
//     and continues — the client sees one complete, byte-identical
//     stream ending in the PR 6 trailer.
//   - When no replica for a key is in rotation, the router answers 503
//     with a structured Retry-After body immediately instead of hanging.
package fleet

import "repro/internal/serve"

// HealthResponse is the router's GET /healthz body.
type HealthResponse struct {
	// Status is "ok" (all backends healthy), "degraded" (some), or
	// "down" (none — every request would 503).
	Status          string          `json:"status"`
	UptimeSeconds   float64         `json:"uptime_seconds"`
	BackendsTotal   int             `json:"backends_total"`
	BackendsHealthy int             `json:"backends_healthy"`
	Backends        []BackendHealth `json:"backends"`
}

// BackendHealth is one backend's membership state.
type BackendHealth struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	// ConsecutiveFailures counts probe/request failures since the last
	// success; LastError is the most recent failure, kept across
	// recovery for post-mortems.
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
}

// BackendStats is one backend's row in the aggregated /v1/stats:
// membership state, the router's own traffic counters for it, and the
// backend's proxied /v1/stats body (nil when it cannot be fetched).
type BackendStats struct {
	Addr                string `json:"addr"`
	Healthy             bool   `json:"healthy"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
	// Health is the scrape outcome for this row: "ok" (Stats attached),
	// "unhealthy" (member out of rotation, not scraped), "timeout" (the
	// backend held the stats scrape past its per-backend deadline — a
	// hung backend must not stall the aggregate), or "unreachable"
	// (scrape failed outright).
	Health string `json:"health"`
	// State is the backend's failure state machine: "healthy",
	// "suspect" (failing, still in rotation), "open" (drained) or
	// "half-open" (readmitted; its next request decides).
	State string `json:"state"`
	// Requests counts proxied attempts the router sent here; Failures
	// counts the ones that failed at transport level.
	Requests int64 `json:"requests"`
	Failures int64 `json:"failures"`
	// Stats is the backend's own /v1/stats (engines, evictions, disk
	// cache traffic), fetched live for the aggregation.
	Stats *serve.StatsResponse `json:"stats,omitempty"`
}

// TenantStats is one tenant's row in the aggregated /v1/stats (the
// anonymous tenant — requests with no X-Tenant header — reports under
// the empty name).
type TenantStats struct {
	// Requests counts admitted data-path requests; Rejected counts the
	// 429s (rate and concurrent-sweep quotas combined).
	Requests int64 `json:"requests"`
	Rejected int64 `json:"rejected,omitempty"`
	// ActiveSweeps is the tenant's currently running sweep count.
	ActiveSweeps int `json:"active_sweeps,omitempty"`
	// EngineUnits attributes the fleet's warm-engine memory (mem_units,
	// summed across backends) to the tenant, proportional to its share
	// of each engine's recorded per-tenant requests — who is actually
	// spending the fleet's engine budget.
	EngineUnits int64 `json:"engine_units"`
}

// FleetInfo is the router-level block of the aggregated /v1/stats.
type FleetInfo struct {
	Status          string  `json:"status"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	BackendsTotal   int     `json:"backends_total"`
	BackendsHealthy int     `json:"backends_healthy"`
	// Replication is the configured ownership factor R.
	Replication int `json:"replication"`
	// Failovers counts requests served by a warm non-primary member of
	// their replica set (the replicated-ownership read path); Rehashes
	// counts requests served outside the replica set entirely (the PR 7
	// cold path — with R>=2 this stays zero unless R-1 replicas die
	// together). Retries counts extra attempts after a failure;
	// Unavailable counts requests refused 503 because no replica was
	// healthy.
	Failovers int64 `json:"failovers"`
	Rehashes  int64 `json:"rehashes"`
	Retries   int64 `json:"retries"`
	// Hedges and HedgeWins always read 0: the router no longer hedges
	// (the deadline slices bound stragglers), but the benchmark module
	// decodes both fields, so they stay in the wire format until it
	// changes.
	Hedges      int64 `json:"hedges"`
	HedgeWins   int64 `json:"hedge_wins"`
	Unavailable int64 `json:"unavailable"`
	// Prewarms counts prewarm fan-out RPCs; PrewarmsBuilt the engines
	// those RPCs actually constructed; PrewarmsCold the subset built on a
	// workload's current serving candidate by a repair fan-out — i.e.
	// windows where traffic could have found its engine cold. A clean
	// R>=2 failover keeps PrewarmsCold at zero: the standby was already
	// warm and only deeper replicas built.
	Prewarms      int64 `json:"prewarms"`
	PrewarmsBuilt int64 `json:"prewarms_built"`
	PrewarmsCold  int64 `json:"prewarms_cold"`
	// RetryBudgetExhausted counts retries suppressed by the retry
	// budget; QuotaRejected counts tenant 429s; DeadlineExceeded counts
	// requests answered with the structured 504.
	RetryBudgetExhausted int64 `json:"retry_budget_exhausted"`
	QuotaRejected        int64 `json:"quota_rejected"`
	DeadlineExceeded     int64 `json:"deadline_exceeded"`
	// Routing maps each registered workload to the backend currently
	// answering for it — after a failure this is where the failover
	// shows. Replicas maps each to its full current replica set
	// (Routing is Replicas[w][0]).
	Routing  map[string]string   `json:"routing"`
	Replicas map[string][]string `json:"replicas"`
	// Tenants is the per-tenant admission + engine-budget attribution.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// StatsResponse is the router's aggregated GET /v1/stats body.
type StatsResponse struct {
	Fleet    FleetInfo      `json:"fleet"`
	Backends []BackendStats `json:"backends"`
}

// Unavailable is the structured 503 body: no replica for the key is in
// rotation, and RetryAfterSeconds (also sent as the Retry-After header)
// is the probe horizon after which membership may have recovered.
type Unavailable struct {
	Error             string `json:"error"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
	BackendsTotal     int    `json:"backends_total"`
	BackendsHealthy   int    `json:"backends_healthy"`
}

// QuotaExceeded is the structured 429 body: the tenant is over its rate
// or concurrent-sweep quota. RetryAfterSeconds is also sent as the
// Retry-After header.
type QuotaExceeded struct {
	Error             string `json:"error"`
	Tenant            string `json:"tenant"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// DeadlineExceeded is the structured 504 body: the request's X-Deadline
// expired before any backend completed it.
type DeadlineExceeded struct {
	Error          string `json:"error"`
	DeadlineUnixMS int64  `json:"deadline_unix_ms"`
}

// MemberRequest is the POST /v1/fleet/join and /v1/fleet/leave body.
type MemberRequest struct {
	Addr string `json:"addr"`
}

// FleetMembership is the GET /v1/fleet body (also returned by join and
// leave): live membership plus the registered workloads' replica map.
type FleetMembership struct {
	Status          string              `json:"status"`
	Replication     int                 `json:"replication"`
	BackendsTotal   int                 `json:"backends_total"`
	BackendsHealthy int                 `json:"backends_healthy"`
	Backends        []BackendHealth     `json:"backends"`
	Replicas        map[string][]string `json:"replicas"`
}
