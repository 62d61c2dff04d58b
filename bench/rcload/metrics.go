package main

// metricDef declares one metric rcload reports. BENCHMARK.json at
// the repository root declares the same lists (plus each end-to-end
// bound); a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics an untraced run reports, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sat_rps", "1/s", "higher"},
	{"decide_p50_ms", "ms", "lower"},
	{"alloc_kb_per_op", "KiB/op", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// perLayer are the metrics a traced run reports, for every workload. A
// layer the workload does not exercise reads 0. They carry no bound;
// Better says which way an improvement of that layer moves them.
var perLayer = []metricDef{
	// Per-request server cost, timed around the exported calls the
	// decide handler makes, replayed one request at a time.
	{"server.handler_us", "us", "lower"},
	{"http.transport_us", "us", "lower"},
	{"server.dto_decode_us", "us", "lower"},
	{"server.gate_us", "us", "lower"},
	{"obs.snapshot_us", "us", "lower"},
	{"server.finish_us", "us", "lower"},
	{"server.dto_encode_us", "us", "lower"},
	{"server.response_bytes", "bytes", "lower"},
	// The problem rebuild a query or budget override costs.
	{"probjson.build_us", "us", "lower"},
	// The deciders, one per served property.
	{"core.consistency_us", "us", "lower"},
	{"core.rcdp_strong_us", "us", "lower"},
	{"core.rcdp_weak_us", "us", "lower"},
	{"core.certain_us", "us", "lower"},
	{"core.minp_strong_us", "us", "lower"},
	{"core.rcqp_strong_us", "us", "lower"},
	// Work counts, as deltas of the server's own counters over the
	// untraced closed loop.
	{"core.models_checked_per_decide", "count/decide", "lower"},
	{"core.valuations_per_decide", "count/decide", "lower"},
	{"search.items_per_decide", "count/decide", "lower"},
	{"eval.plan_compilations_per_decide", "count/decide", "lower"},
	{"eval.plan_runs_per_decide", "count/decide", "lower"},
	{"eval.rows_probed_per_decide", "count/decide", "lower"},
	{"relation.index_probes_per_decide", "count/decide", "lower"},
	{"relation.values_interned_per_op", "count/op", "lower"},
	{"cc.rhs_cache_hit_ratio", "ratio", "higher"},
	// The PUT path, replayed on the workload's documents.
	{"server.decode_doc_us", "us", "lower"},
	{"probjson.build_put_us", "us", "lower"},
	{"durable.append_us", "us", "lower"},
	{"server.registry_put_us", "us", "lower"},
	// Memory and the runtime.
	{"relation.resident_bytes_per_problem", "bytes", "lower"},
	{"runtime.gc_cycles_per_kop", "count/kop", "lower"},
	{"runtime.gc_pause_max_ms", "ms", "lower"},
	// Shares of the blocking path, the checks the workloads were built
	// to pass (bench/README.md).
	{"share.core_of_handler", "ratio", "higher"},
	{"share.server_of_rtt", "ratio", "lower"},
	{"share.build_of_handler", "ratio", "lower"},
	{"share.append_of_put", "ratio", "lower"},
	// Open-loop latencies, from when each request was due: too noisy
	// here to bound (0 where a workload sends no PUTs). Then the
	// validity of the run itself.
	{"load.decide_p50_ms", "ms", "lower"},
	{"load.decide_p90_ms", "ms", "lower"},
	{"load.decide_p99_ms", "ms", "lower"},
	{"load.put_p50_ms", "ms", "lower"},
	{"load.put_p99_ms", "ms", "lower"},
	{"server.queue_wait_ms_p99", "ms", "lower"},
	{"load.gen_late_p99_ms", "ms", "lower"},
	{"load.fail_frac", "ratio", "lower"},
	{"trace.replay_coverage", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}
