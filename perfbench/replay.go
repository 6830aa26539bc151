package main

import (
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/query"
	"spatialanon/internal/routing"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/sfc"
	"spatialanon/internal/verify"
	"spatialanon/internal/wal"
)

// shardLayout is the routing a sharded run used: the replay splits the
// op stream across per-shard stores with it.
type shardLayout struct {
	table []verify.KeyRange
	quant *sfc.Quantizer
	curve sfc.Curve
}

func (l *shardLayout) shards() int {
	if l == nil {
		return 1
	}
	return len(l.table)
}

func (l *shardLayout) route(qi []float64) int {
	if l == nil {
		return 0
	}
	key := l.quant.Key(l.curve, qi)
	for i, rg := range l.table {
		if rg.Contains(key) {
			return i
		}
	}
	return len(l.table) - 1
}

// replay is the traced run's serial layer replay. The serving layer's
// committer and view derivations are not callable from outside, so
// this replays the live run's op stream (the writes and reads it
// sent, in schedule order, in batches of the live run's mean batch
// size) by calling the layers the committer and a first read after
// publish call: wal.Store.ApplyBatch, Tree.SnapshotLeaves, the base
// leaf scan and its audits, the k=50 scan and its pair audit, and the
// routing build with its audit, each in its own span.
func replay(e *env, r *result, sched *schedule, layout *shardLayout, batch, writes, reads int) error {
	n := layout.shards()
	stores := make([]*wal.Store, n)
	defer func() {
		for _, st := range stores {
			if st != nil {
				st.Close()
			}
		}
	}()
	perShard := make([][]attr.Record, n)
	for _, rec := range sched.preload {
		s := layout.route(rec.QI)
		perShard[s] = append(perShard[s], rec)
	}
	snaps := make([][]rplustree.LeafView, n)
	for s := range stores {
		// Checkpoints are taken explicitly below, at the live
		// store's cadence, so each is its own span.
		opts := walOptions(filepath.Join(e.dir, fmt.Sprintf("replay%d", s)))
		opts.CheckpointEvery = 0
		st, err := wal.Create(opts)
		if err != nil {
			return err
		}
		stores[s] = st
		if err := preloadStore(st, perShard[s]); err != nil {
			return err
		}
		snaps[s] = st.Tree().SnapshotLeaves(nil)
	}

	since := make([]int, n)
	checkpoints := 0
	var allocs []float64
	perRead := writeRate / readRate
	wi := 0
	for ri := 0; ri <= reads; ri++ {
		limit := writes
		if ri < reads {
			limit = min(writes, ri*perRead)
		}
		for wi < limit {
			j := min(wi+batch, limit)
			groups := make([][]wal.Op, n)
			for _, op := range sched.writes[wi:j] {
				qi := op.OldQI
				if op.Type == wal.TypeInsert {
					qi = op.Rec.QI
				}
				s := layout.route(qi)
				if op.Type == wal.TypeUpdate && layout.route(op.Rec.QI) != s {
					// A cross-shard relocation is a delete here and an
					// insert there, as the coordinator runs it.
					groups[s] = append(groups[s], wal.Op{Type: wal.TypeDelete, ID: op.ID, OldQI: op.OldQI})
					s2 := layout.route(op.Rec.QI)
					groups[s2] = append(groups[s2], wal.Op{Type: wal.TypeInsert, Rec: op.Rec})
					continue
				}
				groups[s] = append(groups[s], op)
			}
			req := int64(wi + 1)
			for s, ops := range groups {
				if len(ops) == 0 {
					continue
				}
				st := stores[s]
				var err error
				e.tr.do("wal.Store.ApplyBatch", 0, req, func() { _, err = st.ApplyBatch(ops) })
				if err != nil {
					return err
				}
				if since[s] += len(ops); since[s] >= checkpointEvery {
					e.tr.do("wal.Store.Checkpoint", 0, req, func() { err = st.Checkpoint() })
					if err != nil {
						return err
					}
					since[s] = 0
					checkpoints++
				}
				e.tr.do("rplustree.Tree.SnapshotLeaves", 0, req, func() { snaps[s] = st.Tree().SnapshotLeaves(snaps[s]) })
			}
			wi = j
		}
		if ri < reads {
			a, err := replayRead(e, r, stores, snaps, layout, sched.reads[ri], readReq(ri))
			if err != nil {
				return err
			}
			allocs = append(allocs, a)
		}
	}
	r.layer["wal.checkpoints"] = float64(checkpoints)
	r.layer["verify.releases_allocs"] = median(allocs)
	reportFirstRead(e)
	return nil
}

// replayRead is one first read after publish: what View.Release(50)
// and View.Count (or their coordinator counterparts) run on a fresh
// epoch. It returns the allocations of the single-release audit.
func replayRead(e *env, r *result, stores []*wal.Store, snaps [][]rplustree.LeafView, layout *shardLayout, q attr.Box, req int64) (float64, error) {
	root := e.tr.begin("replay.first_read", 0, req)
	defer e.tr.end(root)
	c := anonmodel.KAnonymity{K: baseK}
	bases := make([][]anonmodel.Partition, len(stores))
	var allocs float64
	for s := range stores {
		leaves := leafParts(snaps[s])
		var err error
		e.tr.do("core.LeafScanP/base", root, req, func() { bases[s], err = core.LeafScanP(leaves, c, 0) })
		if err != nil {
			return 0, err
		}
		e.tr.do("verify.Release", root, req, func() { err = verify.Release(bases[s], c) })
		r.check(err == nil, "replay: base release audit failed: %v", err)
		a0 := heapAllocs()
		e.tr.do("verify.Releases/single", root, req, func() { err = verify.Releases([][]anonmodel.Partition{bases[s]}, baseK) })
		allocs += heapAllocs() - a0
		r.check(err == nil, "replay: base k-boundness audit failed: %v", err)
	}
	joint := bases[0]
	if layout != nil {
		views := make([]verify.ShardView, len(stores))
		joint = nil
		for s, st := range stores {
			views[s] = verify.ShardView{Range: layout.table[s], Parts: bases[s], Seq: int64(st.Seq()), WantSeq: int64(st.Seq())}
			joint = append(joint, bases[s]...)
		}
		var err error
		e.tr.do("verify.CrossShard", root, req, func() { err = verify.CrossShard(views, layout.table, layout.quant, layout.curve, baseK) })
		r.check(err == nil, "replay: cross-shard audit failed: %v", err)
	}
	var coarse []anonmodel.Partition
	var err error
	e.tr.do("core.LeafScanP/k1", root, req, func() { coarse, err = core.LeafScanP(joint, anonmodel.KAnonymity{K: readK}, 0) })
	if err != nil {
		return 0, err
	}
	e.tr.do("verify.Releases/pair", root, req, func() { err = verify.Releases([][]anonmodel.Partition{joint, coarse}, baseK) })
	r.check(err == nil, "replay: pair k-boundness audit failed: %v", err)
	for s := range stores {
		var idx *routing.Index
		e.tr.do("routing.Build", root, req, func() { idx, err = routing.Build(bases[s], routing.Options{}) })
		if err != nil {
			return 0, err
		}
		e.tr.do("verify.Routing", root, req, func() { err = verify.Routing(idx, bases[s]) })
		r.check(err == nil, "replay: routing audit failed: %v", err)
		e.tr.do("query.Estimator.Estimate", root, req, func() { query.NewEstimator(bases[s], idx).Estimate(q) })
	}
	return allocs, nil
}

func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// firstReadLayers are the spans a replayed first read is made of.
var firstReadLayers = []string{
	"core.LeafScanP/base", "verify.Release", "verify.Releases/single", "verify.CrossShard",
	"core.LeafScanP/k1", "verify.Releases/pair", "routing.Build", "verify.Routing", "query.Estimator.Estimate",
}

// reportFirstRead prints how the replayed first reads' time splits
// across the layers they call, and how much of it the layer spans
// account for.
func reportFirstRead(e *env) {
	sum := e.tr.summarize()
	fr := sum["replay.first_read"]
	if fr == nil || fr.Total == 0 {
		return
	}
	type part struct {
		name string
		self time.Duration
	}
	var parts []part
	var layers time.Duration
	for _, name := range firstReadLayers {
		if st := sum[name]; st != nil {
			parts = append(parts, part{name, st.Self})
			layers += st.Self
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].self > parts[j].self })
	e.logf("first read after publish (replay, %d reads): mean %.3f ms; layer self times cover %.1f%%, unattributed %.3f ms per read",
		fr.Count, float64(fr.Total)/float64(fr.Count)/1e6, 100*float64(layers)/float64(fr.Total), float64(fr.Self)/float64(fr.Count)/1e6)
	for _, p := range parts {
		e.logf("  %-26s %6.1f%%  %.3f ms per read", p.name, 100*float64(p.self)/float64(fr.Total), float64(p.self)/float64(fr.Count)/1e6)
	}
}
