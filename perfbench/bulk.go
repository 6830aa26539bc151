package main

import (
	"fmt"
	"runtime"
	"time"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/pager"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
)

// The bulk workload: the paper's headline path. 400k Lands End records
// (12.8 MB at 32 B each) are anonymized at base k=5 by the buffer-tree
// loader under a 4 MB memory budget, so buffers spill through the
// pager; the index is then released at every granularity of ladder,
// each audited, plus one joint Lemma-1 audit over all five.
//
// Its client metrics:
//   - throughput_per_s: records anonymized per second (load plus sync),
//     the median over the loads that fit in the run;
//   - cpu_us_per_op: process CPU time per record loaded;
//   - client.latency_p50_ms, client.latency_p99_ms: one request is one
//     1000-record InsertBatch into the loader, or the final Flush;
//   - client.read_p50_ms: releasing one granularity (leaf scan plus
//     audit);
//   - client.release_s: the whole ladder plus the joint audit;
//   - heap_bytes_per_record: live heap the loaded index adds per record.
const (
	bulkRecords = 400_000
	bulkChunk   = 1000
	bulkMemory  = 4 << 20
	recordBytes = 32 // Lands End on-disk record size
	baseK       = 5
)

// ladder is the set of granularities every workload releases.
var ladder = []int{5, 10, 25, 50, 100}

// A run releases the ladder at least minReleaseReps times and until
// minReleaseTime has passed; release_s is the median.
const (
	minReleaseReps = 1
	minReleaseTime = time.Second
)

// moreReleases reports whether a run that started releasing at t0 and
// has done reps releases should do another.
func moreReleases(reps int, t0 time.Time) bool {
	return reps < minReleaseReps || time.Since(t0) < minReleaseTime
}

func treeConfig() rplustree.Config {
	return rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: baseK}
}

func runBulk(e *env) (*result, error) {
	r := newResult()
	t0 := time.Now()
	recs := dataset.GenerateLandsEnd(bulkRecords, e.seed)
	// Warm the loader's code paths and the allocator on a tenth of the
	// data before anything is timed.
	if _, _, err := loadTree(nil, recs[:bulkRecords/10], new(hist), 0); err != nil {
		return nil, fmt.Errorf("bulk setup: %w", err)
	}
	r.e2e["setup_s"] = time.Since(t0).Seconds()

	var lat hist
	var tree *rplustree.Tree
	var rates []float64
	loads := 0
	heap0 := liveHeap()
	var cpu float64
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for loads == 0 || time.Now().Before(deadline) {
		tree = nil
		runtime.GC()
		t0, c0 := time.Now(), cpuSeconds()
		t, io, err := loadTree(e.tr, recs, &lat, int64(loads+1))
		rates = append(rates, bulkRecords/time.Since(t0).Seconds())
		cpu += cpuSeconds() - c0
		r.attempted += int64(len(recs)/bulkChunk + 1)
		if err != nil {
			return nil, fmt.Errorf("bulk load: %w", err)
		}
		if loads == 0 {
			r.e2e["heap_bytes_per_record"] = (liveHeap() - heap0) / bulkRecords
			r.layer["pager.reads"] = float64(io.Reads)
			r.layer["pager.writes"] = float64(io.Writes)
		}
		r.check(t.Len() == bulkRecords, "bulk: index holds %d records, want %d", t.Len(), bulkRecords)
		tree = t
		loads++
	}
	r.e2e["throughput_per_s"] = median(rates)
	r.e2e["cpu_us_per_op"] = cpu / float64(loads*bulkRecords) * 1e6
	r.layer["client.latency_p50_ms"] = lat.ms(0.50)
	r.layer["client.latency_p99_ms"] = lat.ms(0.99)
	e.logf("bulk: %d loads of %d records, %d requests (%d beyond p99)", loads, bulkRecords, lat.n, lat.beyond(0.99))

	leaves := leafParts(tree.Leaves())
	r.layer["rplustree.leaves"] = float64(len(leaves))
	var rel hist
	var reps []float64
	for i, began := 0, time.Now(); moreReleases(i, began); i++ {
		runtime.GC()
		d, err := releaseLadder(e, r, leaves, bulkRecords, &rel, int64(loads+1+i))
		if err != nil {
			return nil, err
		}
		r.attempted += int64(len(ladder) + 1)
		reps = append(reps, d.Seconds())
	}
	r.layer["client.release_s"] = median(reps)
	r.layer["client.read_p50_ms"] = rel.ms(0.50)
	spanLayers(e, r)
	return r, nil
}

// loadTree anonymizes recs with the buffer-tree loader and syncs it,
// recording each InsertBatch and the final Flush into lat.
func loadTree(tr *tracer, recs []attr.Record, lat *hist, req int64) (*rplustree.Tree, pager.Stats, error) {
	t, err := rplustree.New(treeConfig())
	if err != nil {
		return nil, pager.Stats{}, err
	}
	bl, err := rplustree.NewBulkLoader(t, rplustree.BulkLoadConfig{RecordBytes: recordBytes, MemoryBytes: bulkMemory})
	if err != nil {
		return nil, pager.Stats{}, err
	}
	root := tr.begin("rplustree.bulkload", 0, req)
	for i := 0; i < len(recs); i += bulkChunk {
		chunk := recs[i:min(i+bulkChunk, len(recs))]
		t0 := time.Now()
		tr.do("rplustree.BulkLoader.InsertBatch", root, req, func() { err = bl.InsertBatch(chunk) })
		lat.record(time.Since(t0))
		if err != nil {
			return nil, pager.Stats{}, err
		}
	}
	t0 := time.Now()
	tr.do("rplustree.BulkLoader.Flush", root, req, func() { err = bl.Flush() })
	lat.record(time.Since(t0))
	tr.end(root)
	if err != nil {
		return nil, pager.Stats{}, err
	}
	io := bl.Stats()
	return t, io, bl.Close()
}

func leafParts(ls []rplustree.LeafView) []anonmodel.Partition {
	ps := make([]anonmodel.Partition, len(ls))
	for i, l := range ls {
		ps[i] = anonmodel.Partition{Box: l.MBR, Records: l.Records}
	}
	return ps
}

// releaseLadder derives the base release from the index leaves and
// every coarser granularity from the base, audits each with
// verify.Release, and audits all of them jointly with verify.Releases,
// recording each granularity's latency into rel.
func releaseLadder(e *env, r *result, leaves []anonmodel.Partition, n int, rel *hist, req int64) (time.Duration, error) {
	t0 := time.Now()
	root := e.tr.begin("release.ladder", 0, req)
	sets := make([][]anonmodel.Partition, 0, len(ladder))
	for _, k := range ladder {
		kt := time.Now()
		src, name := leaves, "core.LeafScanP/base"
		if len(sets) > 0 {
			src, name = sets[0], "core.LeafScanP/k1"
		}
		c := anonmodel.KAnonymity{K: k}
		var ps []anonmodel.Partition
		var err error
		e.tr.do(name, root, req, func() { ps, err = core.LeafScanP(src, c, 0) })
		if err != nil {
			return 0, fmt.Errorf("leaf scan at k=%d: %w", k, err)
		}
		e.tr.do("verify.Release", root, req, func() { err = verify.Release(ps, c) })
		rel.record(time.Since(kt))
		r.check(err == nil, "release at k=%d failed its audit: %v", k, err)
		r.check(recordCount(ps) == n, "release at k=%d holds %d records, want %d", k, recordCount(ps), n)
		sets = append(sets, ps)
	}
	var err error
	e.tr.do("verify.Releases/joint", root, req, func() { err = verify.Releases(sets, baseK) })
	e.tr.end(root)
	r.check(err == nil, "joint Lemma-1 audit failed: %v", err)
	return time.Since(t0), nil
}

func recordCount(ps []anonmodel.Partition) int {
	n := 0
	for _, p := range ps {
		n += len(p.Records)
	}
	return n
}
