package main

// metricSpec names one metric the benchmark prints, with its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run prints. Every workload reports
// every one of them, each for the operation that workload performs (see
// README.md): a cold artifact regeneration on the batch workloads, an eval
// on serve-open, a routed eval or sweep on fleet-failover.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run prints. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricSpec{
	{"latency.p99_ms", "ms"},
	{"workload.build_s", "s"},
	{"widen.calls", "count"},
	{"widen.self_s", "s"},
	{"sched.calls", "count"},
	{"sched.self_s", "s"},
	{"sched.alloc_mb", "MB"},
	{"sched.ii_over_mii", "count"},
	{"lifetimes.self_s", "s"},
	{"regalloc.self_s", "s"},
	{"spill.calls", "count"},
	{"spill.self_s", "s"},
	{"spill.rounds", "count"},
	{"spill.ops", "count"},
	{"spill.ii_growth", "count"},
	{"spill.alloc_mb", "MB"},
	{"spill.first_fit_frac", "ratio"},
	{"spill.error_calls", "count"},
	{"spill.error_s", "s"},
	{"perfcost.cells", "count"},
	{"perfcost.cell_p50_ms", "ms"},
	{"perfcost.cell_max_ms", "ms"},
	{"perfcost.fallback_loops", "count"},
	{"perfcost.eval_warm_us", "us"},
	{"experiments.render_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.coverage", "ratio"},
	{"serve.max_rate_per_s", "1/s"},
	{"serve.open_p50_ms", "ms"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.acquire_us", "us"},
	{"serve.engine_build_s", "s"},
	{"serve.suite_computes", "count"},
	{"serve.disk_hits", "count"},
	{"http.wire_overhead_us", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.p999_ms", "ms"},
	{"fleet.overhead_p50_us", "us"},
	{"fleet.overhead_p99_us", "us"},
	{"fleet.failovers", "count"},
	{"fleet.rehashes", "count"},
	{"fleet.retries", "count"},
	{"fleet.hedges", "count"},
	{"fleet.hedge_win_frac", "ratio"},
	{"fleet.retry_budget_exhausted", "count"},
	{"fleet.prewarms_cold", "count"},
	{"fleet.failover_p99_ms", "ms"},
	{"fleet.sweep_ttfp_ms", "ms"},
	{"resultcache.writes", "count"},
	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.bytes_written", "B"},
	{"resultcache.corrupt", "count"},
	{"resultcache.get_us", "us"},
	{"resultcache.put_us", "us"},
}
