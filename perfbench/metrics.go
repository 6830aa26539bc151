package main

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root repeats name, unit and direction (its schema has no
// field for the rest); metrics_test.go keeps the two lists identical.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// moves names, for a per-layer metric, the end-to-end metric and
	// workload a change to the layer should move.
	moves string
}

// endToEnd metrics are what a user of the library or server pays, and
// each has a regression bound in BENCHMARK.json. Every workload
// reports every one of them; what one operation is, is defined per
// workload in the workload's file. The client.* metrics are just as
// user-visible (latency above all), but on a small shared host their
// run-to-run spread is wider than any bound the benchmark may set:
// handing a request between goroutines waits on idle virtual CPUs
// waking, which the host's load sets. They are reported with the
// per-layer metrics instead of gated.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "heap_bytes_per_record", unit: "B", better: "lower"},
	{name: "throughput_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
}

// Where a layer's work sits on each workload's blocking path.
const (
	writePath = "cpu_us_per_op and client.latency_p50_ms on churn"
	readPath  = "cpu_us_per_op and client.read_p50_ms on churn; client.release_s on bulk; setup_s only on read"
	accelPath = "cpu_us_per_op and client.read_p50_ms on churn; setup_s only on read"
	shardPath = "cpu_us_per_op and client.read_p50_ms on sharded"
	queryPath = "throughput_per_s and cpu_us_per_op on read"
)

// perLayer metrics come from the traced run; every run prints them.
// A workload that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{"rplustree.bulkload_ms", "ms", "lower", "throughput_per_s on bulk"},
	{"pager.reads", "count", "lower", "throughput_per_s on bulk"},
	{"pager.writes", "count", "lower", "throughput_per_s on bulk"},
	{"rplustree.leaves", "count", "lower", "context for client.release_s on bulk and client.read_p50_ms on churn"},
	{"rplustree.snapshot_leaves_us", "us", "lower", writePath},
	{"core.leafscan_base_ms", "ms", "lower", readPath},
	{"core.leafscan_k1_ms", "ms", "lower", readPath},
	{"verify.release_ms", "ms", "lower", readPath},
	{"verify.releases_single_ms", "ms", "lower", "cpu_us_per_op and client.read_p50_ms on churn"},
	{"verify.releases_pair_ms", "ms", "lower", "cpu_us_per_op and client.read_p50_ms on churn"},
	{"verify.releases_joint_ms", "ms", "lower", "client.release_s on bulk"},
	{"verify.releases_allocs", "count", "lower", "cpu_us_per_op on churn and runtime.gc_cpu_frac"},
	{"routing.build_ms", "ms", "lower", accelPath},
	{"verify.routing_ms", "ms", "lower", accelPath},
	{"serve.accel_ms", "ms", "lower", accelPath},
	{"verify.crossshard_ms", "ms", "lower", shardPath},
	{"shard.release_ms", "ms", "lower", shardPath},
	{"shard.count_ms", "ms", "lower", shardPath},
	{"wal.apply_batch_us", "us", "lower", writePath},
	{"serve.write_service_us", "us", "lower", writePath},
	{"serve.ops_per_batch", "count", "higher", writePath},
	{"wal.checkpoint_ms", "ms", "lower", "client.latency_p99_ms on churn"},
	{"wal.checkpoints", "count", "lower", "client.latency_p99_ms on churn"},
	{"wal.replayed_ops", "count", "lower", "client.recover_s on churn"},
	{"wal.recover_ms", "ms", "lower", "client.recover_s on churn"},
	{"wal.bytes_per_user_byte", "ratio", "lower", "none: disk space beside the write path on churn"},
	{"serve.epochs_per_read", "count", "lower", "client.read_p50_ms on churn"},
	{"serve.first_read_ms", "ms", "lower", "client.read_p50_ms on churn (derive ms per epoch)"},
	{"serve.shed", "count", "lower", "client.failed_frac"},
	{"serve.expired", "count", "lower", "client.failed_frac"},
	{"serve.retries", "count", "lower", "client.failed_frac"},
	{"shard.partials", "count", "lower", "client.failed_frac on sharded"},
	{"shard.retries", "count", "lower", "client.failed_frac on sharded"},
	{"shard.write_service_us", "us", "lower", "cpu_us_per_op and client.latency_p50_ms on sharded"},
	{"shard.ops_skew", "ratio", "lower", "client.latency_p50_ms and client.latency_p99_ms on sharded"},
	{"query.point_ns", "ns", "lower", queryPath},
	{"query.range_us", "us", "lower", "client.latency_p99_ms on read"},
	{"query.estimate_us", "us", "lower", "client.latency_p99_ms on read"},
	{"query.allocs_per_op", "count", "lower", queryPath},
	{"runtime.gc_cpu_frac", "ratio", "lower", "cpu_us_per_op on every workload"},
	{"runtime.heap_peak_mb", "MB", "lower", "heap_bytes_per_record"},
	{"loadgen.late_ms", "ms", "lower", "none: validity check on the generator"},
	{"client.latency_p50_ms", "ms", "lower", "none: the workload's requests"},
	{"client.latency_p99_ms", "ms", "lower", "none: tail of client.latency_p50_ms"},
	{"client.read_p50_ms", "ms", "lower", "none: reads that wait on a release"},
	{"client.read_p90_ms", "ms", "lower", "none: tail of client.read_p50_ms on churn and sharded"},
	{"client.release_s", "s", "lower", "none: the audited granularity ladder"},
	{"client.recover_s", "s", "lower", "none: reopen up to the first audited base release"},
	{"client.failed_frac", "ratio", "lower", "none: a refusal misses every latency limit"},
	{"trace.spans", "count", "lower", "none: size of the trace"},
	{"trace.throughput_per_s", "1/s", "higher", "none: throughput_per_s with tracing on, for the overhead"},
	{"trace.cpu_us_per_op", "us", "lower", "none: cpu_us_per_op with tracing on, for the overhead"},
}

// workloads lists what the benchmark runs, in BENCHMARK.json order.
var workloads = []string{"bulk", "churn", "read", "sharded"}
