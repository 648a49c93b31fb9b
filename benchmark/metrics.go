package main

// The metric declarations: BENCHMARK.json lists the same names, units,
// directions and bounds (bench_test.go holds the two together), -compare
// takes its bounds from here, and README.md explains each.

type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline's median by which it may worsen
	// On lists the workloads that report the metric; nil means all.
	On []string
	// Moves names, for a per-layer metric, the end-to-end metric it
	// should move and on which workload.
	Moves string
}

// countBound is the bound of the count metrics. They repeat exactly, and
// a run whose communication volume is not the Theorem 3 prediction, or
// whose peak is above its theorem's bound, is not correct in the first
// place; the bound only has to be smaller than any real change.
const countBound = 0.001

// endToEndMetrics is what the driver compares between commits. Its
// schema wants every metric from every workload, so the four workloads
// share one set of names: the operation a name measures is the
// workload's own (see opOf), and the workload-specific names of the
// issue are reported beside them as detailMetrics.
var endToEndMetrics = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alt_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "mem_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "build_comm_elems", Unit: "count", Better: "lower", Bound: countBound},
	{Name: "build_peak_elems", Unit: "count", Better: "lower", Bound: countBound},
}

// opOf says which of the issue's metrics each shared name carries on
// each workload.
var opOf = map[string]map[string]string{
	"ops_per_s": {
		"build":        "Build+BuildParallel pairs per second of engine time",
		"serve_hot":    "query_qps",
		"serve_cold":   "query_qps",
		"ingest_mixed": "ingest_rec_per_s",
	},
	"op_p50_ms": {
		"build":        "build_par_s in ms",
		"serve_hot":    "query_p50_us in ms",
		"serve_cold":   "query_p50_us in ms",
		"ingest_mixed": "ingest_ack_p50_ms",
	},
	"op_tail_ms": {
		"build":        "p90 of the BuildParallel walls",
		"serve_hot":    "query_p99_us in ms",
		"serve_cold":   "query_p99_us in ms",
		"ingest_mixed": "ingest_ack_p95_ms",
	},
	"alt_p50_ms": {
		"build":        "build_seq_s in ms",
		"serve_hot":    "open-loop median from the due time",
		"serve_cold":   "open-loop median from the due time",
		"ingest_mixed": "the reader's query_p50_us in ms",
	},
}

var (
	onBuild  = []string{"build"}
	onServe  = []string{"serve_hot", "serve_cold"}
	onQuery  = []string{"serve_hot", "serve_cold", "ingest_mixed"}
	onIngest = []string{"ingest_mixed"}
)

// detailMetrics are the issue's end-to-end metrics under the issue's
// names, each on the workloads it belongs to. They are in every result
// file and -compare judges them with these bounds.
var detailMetrics = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "build_seq_s", Unit: "s", Better: "lower", Bound: 0.10, On: onBuild},
	{Name: "build_par_s", Unit: "s", Better: "lower", Bound: 0.10, On: onBuild},
	{Name: "build_comm_elems", Unit: "count", Better: "lower", Bound: 0},
	{Name: "build_peak_elems", Unit: "count", Better: "lower", Bound: 0},
	{Name: "query_qps", Unit: "1/s", Better: "higher", Bound: 0.10, On: onQuery},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.10, On: onQuery},
	{Name: "query_p99_us", Unit: "us", Better: "lower", Bound: 0.20, On: onServe},
	{Name: "ingest_rec_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, On: onIngest},
	{Name: "ingest_ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: onIngest},
	{Name: "ingest_ack_p95_ms", Unit: "ms", Better: "lower", Bound: 0.20, On: onIngest},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.10, On: onIngest},
	{Name: "wal_bytes_per_rec", Unit: "bytes", Better: "lower", Bound: 0, On: onIngest},
	{Name: "mem_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0},
}

// perLayerMetrics come from the traced run. A workload that does not
// exercise a layer takes the layer's numbers from a short canary run of
// one that does (see runTraced).
var perLayerMetrics = []metricDecl{
	{Name: "parcube.update_ms", Unit: "ms", Better: "lower", Moves: "ingest_rec_per_s, ingest_ack_p50_ms, recover_s on ingest_mixed; none on serve_*"},
	{Name: "parcube.update_ms_1row", Unit: "ms", Better: "lower", Moves: "as parcube.update_ms"},

	{Name: "seq.updates", Unit: "count", Better: "lower", Moves: "build_seq_s on build"},
	{Name: "seq.first_level_share", Unit: "ratio", Better: "higher", Moves: "build_seq_s on build"},
	{Name: "seq.input_scans", Unit: "count", Better: "lower", Moves: "build_seq_s on build"},
	{Name: "seq.ns_per_update", Unit: "ns", Better: "lower", Moves: "build_seq_s on build"},

	{Name: "array.scan_sparse_ns_per_update", Unit: "ns", Better: "lower", Moves: "build_seq_s, build_par_s on build"},
	{Name: "array.scan_dense_ns_per_update", Unit: "ns", Better: "lower", Moves: "build_seq_s, build_par_s on build"},
	{Name: "array.combine_at_ns_per_elem", Unit: "ns", Better: "lower", Moves: "build_par_s on build; query_p50_us on serve_cold through merge; none on serve_hot"},
	{Name: "array.scan_bytes_per_update", Unit: "bytes", Better: "lower", Moves: "computed from array sizes; build_seq_s on build"},

	{Name: "parallel.partition_input_ms", Unit: "ms", Better: "lower", Moves: "build_par_s on build"},
	{Name: "parallel.first_level_updates", Unit: "count", Better: "lower", Moves: "build_par_s on build"},
	{Name: "parallel.writeback_elems", Unit: "count", Better: "lower", Moves: "build_par_s on build"},
	{Name: "parallel.wall_over_seq", Unit: "ratio", Better: "lower", Moves: "build_par_s over build_seq_s on build"},
	{Name: "cluster.modeled_makespan_s", Unit: "s", Better: "lower", Moves: "modeled, not wall: moves only with comm.* or the update count"},
	{Name: "cluster.modeled_speedup", Unit: "ratio", Better: "higher", Moves: "modeled, not wall"},
	{Name: "comm.messages", Unit: "count", Better: "lower", Moves: "must not move unless build_comm_elems does"},
	{Name: "comm.bytes", Unit: "bytes", Better: "lower", Moves: "must not move unless build_comm_elems does"},
	{Name: "comm.reduce_us", Unit: "us", Better: "lower", Moves: "build_par_s on build"},
	{Name: "theory.greedy_partition_us", Unit: "us", Better: "lower", Moves: "build_par_s on build, setup_s on serve_*"},

	{Name: "mux.frame_codec_ns", Unit: "ns", Better: "lower", Moves: "query_p50_us, query_qps on serve_hot; small share on serve_cold"},
	{Name: "mux.roundtrip_us", Unit: "us", Better: "lower", Moves: "query_p50_us, query_qps on serve_hot; small share on serve_cold"},
	{Name: "mux.overloads", Unit: "count", Better: "lower", Moves: "fail_ratio on serve_*"},

	{Name: "server.self_us_16c", Unit: "us", Better: "lower", Moves: "query_p50_us on serve_hot"},
	{Name: "server.self_us_256c", Unit: "us", Better: "lower", Moves: "query_p50_us on serve_hot and serve_cold"},
	{Name: "server.self_us_1024c", Unit: "us", Better: "lower", Moves: "query_p50_us on serve_cold, paid twice: node to coordinator and coordinator to client"},
	{Name: "server.resp_bytes_p50", Unit: "bytes", Better: "lower", Moves: "query_p50_us on serve_*"},

	{Name: "qcache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "query_qps, query_p50_us on serve_hot; about 1 there, below 0.15 on serve_cold, falling with invalidations on ingest_mixed"},
	{Name: "qcache.self_us_hit", Unit: "us", Better: "lower", Moves: "query_qps, query_p50_us on serve_hot; none on serve_cold"},
	{Name: "qcache.self_us_miss", Unit: "us", Better: "lower", Moves: "query_p50_us on serve_cold"},
	{Name: "qcache.evictions", Unit: "count", Better: "lower", Moves: "query_p50_us on serve_cold"},
	{Name: "qcache.invalidations", Unit: "count", Better: "lower", Moves: "the reader's query_p50_us on ingest_mixed"},

	{Name: "shard.coord_span_us_p50", Unit: "us", Better: "lower", Moves: "query_p50_us on serve_cold; none on serve_hot"},
	{Name: "shard.coord_span_us_p99", Unit: "us", Better: "lower", Moves: "query_p99_us on serve_cold"},
	{Name: "shard.node_probe_us", Unit: "us", Better: "lower", Moves: "query_p50_us on serve_cold: the slowest block sets the time"},
	{Name: "shard.merge_self_us", Unit: "us", Better: "lower", Moves: "query_p50_us on serve_cold"},
	{Name: "shard.asks", Unit: "count", Better: "lower", Moves: "query_qps on serve_cold"},
	{Name: "shard.retries", Unit: "count", Better: "lower", Moves: "query_p99_us on serve_cold"},
	{Name: "shard.failovers", Unit: "count", Better: "lower", Moves: "query_p99_us on serve_cold"},
	{Name: "shard.hedges_fired", Unit: "count", Better: "lower", Moves: "query_p99_us on serve_cold"},
	{Name: "shard.delta_span_ms", Unit: "ms", Better: "lower", Moves: "ingest_ack_p50_ms on ingest_mixed"},
	{Name: "shard.ingest_batch_size_p50", Unit: "count", Better: "higher", Moves: "ingest_rec_per_s on ingest_mixed"},
	{Name: "shard.rejoin_ms", Unit: "ms", Better: "lower", Moves: "diagnostic; includes the coordinator's 100 ms probe interval"},

	{Name: "wal.append_sync_us", Unit: "us", Better: "lower", Moves: "ingest_ack_p50_ms on ingest_mixed, expected share today below 2%"},
	{Name: "wal.group_size_p50", Unit: "count", Better: "higher", Moves: "ingest_ack_p50_ms on ingest_mixed"},
	{Name: "wal.syncs_per_rec", Unit: "ratio", Better: "lower", Moves: "ingest_ack_p50_ms on ingest_mixed"},
	{Name: "wal.bytes_per_rec", Unit: "bytes", Better: "lower", Moves: "is wal_bytes_per_rec"},

	{Name: "recovery.checkpoint_ms", Unit: "ms", Better: "lower", Moves: "ingest_ack_p95_ms on ingest_mixed"},
	{Name: "recovery.checkpoint_bytes", Unit: "bytes", Better: "lower", Moves: "recover_s on ingest_mixed"},
	{Name: "recovery.checkpoints", Unit: "count", Better: "lower", Moves: "ingest_ack_p95_ms on ingest_mixed"},
	{Name: "recovery.open_ms", Unit: "ms", Better: "lower", Moves: "recover_s on ingest_mixed"},
	{Name: "recovery.replay_rec_per_s", Unit: "1/s", Better: "higher", Moves: "recover_s on ingest_mixed"},
	{Name: "recovery.stall_ack_max_ms", Unit: "ms", Better: "lower", Moves: "ingest_ack_p95_ms on ingest_mixed"},

	{Name: "elastic.migrate_s", Unit: "s", Better: "lower", Moves: "diagnostic for the BENCH_10 anomaly; not gated"},
	{Name: "elastic.ship_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "diagnostic; over the whole migration"},
	{Name: "elastic.replay_rec_per_s", Unit: "1/s", Better: "higher", Moves: "diagnostic; over the whole migration"},
	{Name: "elastic.cutover_ms", Unit: "ms", Better: "lower", Moves: "diagnostic"},
	{Name: "elastic.failed_queries_during", Unit: "count", Better: "lower", Moves: "fail_ratio on ingest_mixed"},

	{Name: "client.gen_late_p99_us", Unit: "us", Better: "lower", Moves: "the harness itself: how late the open-loop generator sent"},
	{Name: "client.service_p99_us", Unit: "us", Better: "lower", Moves: "the harness itself: send to reply in the open loop"},
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "the harness itself: traced over untraced median"},
	{Name: "client.path_cover", Unit: "ratio", Better: "higher", Moves: "the harness itself: mux + server + backend spans over the client median; 1 when the decomposition holds"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Moves: "query_qps on serve_*, ingest_rec_per_s on ingest_mixed, through GC"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower", Moves: "query_p99_us on serve_*"},
	{Name: "runtime.cpu_s_per_1k_ops", Unit: "s", Better: "lower", Moves: "ops_per_s on every workload: all layers share two cores"},
}

// reportedOn reports whether workload w reports metric m.
func (m metricDecl) reportedOn(w string) bool {
	if m.On == nil {
		return true
	}
	for _, on := range m.On {
		if on == w {
			return true
		}
	}
	return false
}
