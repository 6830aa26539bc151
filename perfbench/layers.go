package main

import (
	"sort"
	"time"
)

// spanMetrics maps per-layer timing metrics to the span recorded
// around the call they time; the metric is the median duration.
var spanMetrics = []struct {
	metric, span string
	unit         time.Duration
}{
	{"rplustree.bulkload_ms", "rplustree.bulkload", time.Millisecond},
	{"rplustree.snapshot_leaves_us", "rplustree.Tree.SnapshotLeaves", time.Microsecond},
	{"core.leafscan_base_ms", "core.LeafScanP/base", time.Millisecond},
	{"core.leafscan_k1_ms", "core.LeafScanP/k1", time.Millisecond},
	{"verify.release_ms", "verify.Release", time.Millisecond},
	{"verify.releases_single_ms", "verify.Releases/single", time.Millisecond},
	{"verify.releases_pair_ms", "verify.Releases/pair", time.Millisecond},
	{"verify.releases_joint_ms", "verify.Releases/joint", time.Millisecond},
	{"routing.build_ms", "routing.Build", time.Millisecond},
	{"verify.routing_ms", "verify.Routing", time.Millisecond},
	{"serve.accel_ms", "serve.View.Accel", time.Millisecond},
	{"verify.crossshard_ms", "verify.CrossShard", time.Millisecond},
	{"shard.release_ms", "shard.Coordinator.Release", time.Millisecond},
	{"shard.count_ms", "shard.Coordinator.Count", time.Millisecond},
	{"wal.apply_batch_us", "wal.Store.ApplyBatch", time.Microsecond},
	{"wal.checkpoint_ms", "wal.Store.Checkpoint", time.Millisecond},
	{"wal.recover_ms", "wal.Open", time.Millisecond},
}

// spanLayers fills the per-layer metrics of a traced run: timings from
// the spans, and 0 for every layer the workload never called.
func spanLayers(e *env, r *result) {
	if e.tr == nil {
		return
	}
	sum := e.tr.summarize()
	for _, m := range spanMetrics {
		if st := sum[m.span]; st != nil {
			r.layer[m.metric] = float64(st.median()) / float64(m.unit)
		}
	}
	for _, m := range perLayer {
		if _, ok := r.layer[m.name]; !ok {
			r.layer[m.name] = 0
		}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
