package main

// metric is one named figure the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units, directions and
// bounds; TestBenchmarkJSONMatchesTable keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound (end-to-end only) is the share of the parent's median by
	// which the metric may worsen before a change counts as a regression.
	Bound float64
	// Layer and Moves (per-layer only) name the module measured and the
	// end-to-end metric and workload the figure is expected to move.
	Layer string
	Moves string
}

// endToEnd are the figures a user of the library or the server sees,
// measured with tracing off. Every workload reports all of them; the
// comment on each says what it measures where.
var endToEnd = []metric{
	// Set-up time: the median of three complete set-ups, the first
	// timed from process start (expected outputs through the library;
	// on serve-* also server bring-up, warm-up and cache prewarm).
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Verified gamma values per second: through GenerateParallel on
	// bulk, downloaded over HTTP on serve-*.
	{Name: "values_per_s", Unit: "values/s", Better: "higher", Bound: 0.25},
	// Values per second through decwi.Generate on one goroutine: the
	// bulk job list, or on serve-* the library passes before and after
	// the served load; the median cycle, every configuration once.
	{Name: "seq_values_per_s", Unit: "values/s", Better: "higher", Bound: 0.25},
	// PortfolioRisk scenarios per second, measured like
	// seq_values_per_s.
	{Name: "risk_scenarios_per_s", Unit: "scenarios/s", Better: "higher", Bound: 0.25},
	// Per job: from its due time (serve-*) or its start (bulk) to a
	// verified complete result; on serve-* the median over windows of
	// 1000 jobs.
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// Jobs done, verified and within the workload's latency limit, over
	// jobs attempted.
	{Name: "goodput_ratio", Unit: "ratio", Better: "higher", Bound: 0.05},
	// The process's VmHWM.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// ungated are end-to-end figures every run prints and records but no
// bound guards: latency_p99_ms (as latency_p50_ms, at the 0.99
// quantile) moves by 0.3 to 1.3 of its median between runs on a shared
// two-vCPU virtual machine, where millisecond stalls of the host decide
// the slowest one job in a hundred, so no bound of at most 0.25 can hold
// it.
var ungated = []metric{
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
}

const (
	onBulk   = "bulk: values_per_s, seq_values_per_s"
	onSeq    = "bulk: seq_values_per_s"
	onRisk   = "bulk: risk_scenarios_per_s; serve-cold: latency of risk jobs"
	onCold50 = "serve-cold: latency_p50_ms"
	onCold99 = "serve-cold: latency_p99_ms, goodput_ratio"
	onHot50  = "serve-hot: latency_p50_ms (cold: flat)"
	onHTTP   = "serve-hot: latency_p50_ms most, serve-cold less"
	onMem    = "serve-*: peak_rss_mb, latency_p99_ms"
	onNone   = "none (tracing is off in end-to-end runs)"
)

// perLayer are the traced run's figures, one layer boundary each. The
// traced run replays the workload's own jobs down the ladder, so every
// workload reports every figure; a lane or span the workload never
// reaches reads 0.
var perLayer = []metric{
	{Name: "mt.ns_per_word.mt521", Unit: "ns/word", Better: "lower", Layer: "rng/mt", Moves: onBulk + " (Config2/4)"},
	{Name: "mt.ns_per_word.mt19937", Unit: "ns/word", Better: "lower", Layer: "rng/mt", Moves: onBulk + " (Config1/3)"},
	{Name: "mt.words_per_value.c1", Unit: "words/value", Better: "lower", Layer: "rng/mt", Moves: onBulk},
	{Name: "mt.words_per_value.c2", Unit: "words/value", Better: "lower", Layer: "rng/mt", Moves: onBulk},
	{Name: "mt.words_per_value.c3", Unit: "words/value", Better: "lower", Layer: "rng/mt", Moves: onBulk},
	{Name: "mt.words_per_value.c4", Unit: "words/value", Better: "lower", Layer: "rng/mt", Moves: onBulk},

	{Name: "normal.ns_per_attempt.mb", Unit: "ns/attempt", Better: "lower", Layer: "rng/normal", Moves: onBulk + " (Config1/2)"},
	{Name: "normal.ns_per_attempt.icdf", Unit: "ns/attempt", Better: "lower", Layer: "rng/normal", Moves: onBulk + " (Config3/4)"},
	{Name: "normal.valid_ratio.mb", Unit: "ratio", Better: "higher", Layer: "rng/normal", Moves: onBulk + " (Config1/2)"},

	{Name: "gamma.candidate_ns_per_attempt", Unit: "ns/attempt", Better: "lower", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.finish_ns_per_value", Unit: "ns/value", Better: "lower", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.accept_ratio.c1", Unit: "ratio", Better: "higher", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.accept_ratio.c2", Unit: "ratio", Better: "higher", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.accept_ratio.c3", Unit: "ratio", Better: "higher", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.accept_ratio.c4", Unit: "ratio", Better: "higher", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.attempts_per_value.c1", Unit: "attempts/value", Better: "lower", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.attempts_per_value.c2", Unit: "attempts/value", Better: "lower", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.attempts_per_value.c3", Unit: "attempts/value", Better: "lower", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.attempts_per_value.c4", Unit: "attempts/value", Better: "lower", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.cycleblock_ns_per_value.c1", Unit: "ns/value", Better: "lower", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.cycleblock_ns_per_value.c2", Unit: "ns/value", Better: "lower", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.cycleblock_ns_per_value.c3", Unit: "ns/value", Better: "lower", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.cycleblock_ns_per_value.c4", Unit: "ns/value", Better: "lower", Layer: "rng/gamma", Moves: onBulk},
	{Name: "gamma.stage_residual_ns_per_value", Unit: "ns/value", Better: "lower", Layer: "rng/gamma", Moves: onBulk},

	{Name: "core.runchunk_ns_per_value.c1", Unit: "ns/value", Better: "lower", Layer: "core", Moves: onBulk},
	{Name: "core.runchunk_ns_per_value.c2", Unit: "ns/value", Better: "lower", Layer: "core", Moves: onBulk},
	{Name: "core.runchunk_ns_per_value.c3", Unit: "ns/value", Better: "lower", Layer: "core", Moves: onBulk},
	{Name: "core.runchunk_ns_per_value.c4", Unit: "ns/value", Better: "lower", Layer: "core", Moves: onBulk},
	{Name: "core.residual_ns_per_value", Unit: "ns/value", Better: "lower", Layer: "core", Moves: onBulk},
	{Name: "core.alloc_bytes_per_value", Unit: "B/value", Better: "lower", Layer: "core", Moves: onBulk + "; peak_rss_mb"},

	{Name: "generate.residual_ns_per_value", Unit: "ns/value", Better: "lower", Layer: "decwi", Moves: onSeq},
	{Name: "parallel.ns_per_value.w1", Unit: "ns/value", Better: "lower", Layer: "decwi", Moves: "bulk: values_per_s"},
	{Name: "parallel.ns_per_value.wmax", Unit: "ns/value", Better: "lower", Layer: "decwi", Moves: "bulk: values_per_s; serve-cold: latency_p99_ms"},
	{Name: "parallel.scaling_eff", Unit: "ratio", Better: "higher", Layer: "decwi", Moves: "bulk: values_per_s (diagnostic; wall-clock scaling is noisy)"},
	{Name: "parallel.chunk_imbalance", Unit: "ratio", Better: "lower", Layer: "decwi", Moves: "bulk: values_per_s"},
	{Name: "parallel.steals_per_job", Unit: "count", Better: "lower", Layer: "decwi", Moves: "bulk: values_per_s"},

	{Name: "risk.ns_per_scenario", Unit: "ns/scenario", Better: "lower", Layer: "creditrisk", Moves: onRisk},
	{Name: "risk.mc_share", Unit: "ratio", Better: "higher", Layer: "creditrisk", Moves: onRisk},

	{Name: "sched.job_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: onCold50},
	{Name: "sched.overhead_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: onCold50},
	{Name: "sched.queue_wait_ms_p99", Unit: "ms", Better: "lower", Layer: "serve", Moves: onCold99},
	{Name: "sched.lane_share.fast-path", Unit: "ratio", Better: "higher", Layer: "serve", Moves: onHot50},
	{Name: "sched.lane_share.queued", Unit: "ratio", Better: "lower", Layer: "serve", Moves: onHot50},
	{Name: "sched.lane_share.cache-hit", Unit: "ratio", Better: "higher", Layer: "serve", Moves: onHot50},
	{Name: "sched.lane_share.coalesced", Unit: "ratio", Better: "higher", Layer: "serve", Moves: onHot50},
	{Name: "sched.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "serve", Moves: onHot50},
	{Name: "span.validate_us_p50", Unit: "us", Better: "lower", Layer: "serve", Moves: onHTTP},
	{Name: "span.cache-lookup_us_p50", Unit: "us", Better: "lower", Layer: "serve", Moves: "serve-hot: latency_p50_ms"},
	{Name: "span.quota_us_p50", Unit: "us", Better: "lower", Layer: "serve", Moves: onCold50},
	{Name: "span.enqueue_us_p50", Unit: "us", Better: "lower", Layer: "serve", Moves: onCold50},
	{Name: "span.queue-wait_us_p50", Unit: "us", Better: "lower", Layer: "serve", Moves: onCold99},
	{Name: "span.engine-run_us_p50", Unit: "us", Better: "lower", Layer: "serve", Moves: "serve-cold: latency_p50_ms, latency_p99_ms"},
	{Name: "span.digest_us_p50", Unit: "us", Better: "lower", Layer: "serve", Moves: "serve-cold: latency_p50_ms, latency_p99_ms"},
	{Name: "span.stream-out_us_p50", Unit: "us", Better: "lower", Layer: "serve", Moves: "serve-hot: latency_p50_ms"},

	{Name: "http.submit_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: onHTTP},
	{Name: "http.await_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: onHTTP},
	{Name: "http.download_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: onHTTP},
	{Name: "http.delete_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: onHTTP},
	{Name: "http.overhead_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", Moves: onHTTP},
	// Process-wide TotalAlloc delta per HTTP job: client and server
	// together, since both run in the benchmark process.
	{Name: "http.alloc_bytes_per_job", Unit: "B/job", Better: "lower", Layer: "serve", Moves: onMem},
	{Name: "gc.cycles_per_job", Unit: "cycles/job", Better: "lower", Layer: "serve", Moves: onMem},

	{Name: "loadgen.lag_ms_p99", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "validity of serve-* runs"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Layer: "telemetry/flight", Moves: onNone},
}

// lookupMetric finds a metric by name in either table.
func lookupMetric(name string) (metric, bool) {
	for _, tab := range [][]metric{endToEnd, ungated, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}
