package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/serve"
	"spatialanon/internal/shard"
	"spatialanon/internal/verify"
	"spatialanon/internal/wal"
)

// The churn and sharded workloads: a durable serving stack preloaded
// with 20k records, fsync on, a writer issuing 200 ops/s (insert,
// relocate, delete over fresh keys) and a reader issuing 5 reads/s,
// each read a release at k=50 plus a range count. Every group commit
// publishes a new epoch, so nearly every read pays the base derive,
// the Lemma-1 audits and the routing build. churn runs one
// serve.Server over one wal.Store; sharded runs a shard.Coordinator
// with 2 shards and the same data, rates and mix.
//
// Their client metrics:
//   - throughput_per_s: completed requests per second (the offered
//     205/s unless a backlog grows);
//   - cpu_us_per_op: process CPU time per completed request, writes
//     and reads together, so both the write path and the per-epoch
//     derivations and audits show in it;
//   - client.latency_p50_ms, client.latency_p99_ms: acknowledged
//     writes, timed from the intended send time;
//   - client.read_p50_ms, client.read_p90_ms: reads, timed the same way;
//   - client.release_s: after reopening, the audited release of every
//     ladder granularity through the serving API plus the joint audit;
//   - client.recover_s: reopening up to the first audited base release;
//   - heap_bytes_per_record: live heap the preloaded stack adds per
//     preloaded record.

// servingSystem is the surface a serving workload drives.
type servingSystem interface {
	write(tr *tracer, req int64, op wal.Op) (found bool, err error)
	// read releases at readK and counts q, returning the epoch read.
	read(tr *tracer, req int64, q attr.Box) (epoch uint64, err error)
	release(k int) ([]anonmodel.Partition, error)
	records() ([]attr.Record, error)
	close() error
}

// serverSystem is one serve.Server over one wal.Store.
type serverSystem struct {
	st  *wal.Store
	srv *serve.Server
}

func walOptions(dir string) wal.Options {
	return wal.Options{Dir: dir, Tree: treeConfig(), CheckpointEvery: checkpointEvery}
}

func createServer(dir string, preload []attr.Record) (*serverSystem, error) {
	st, err := wal.Create(walOptions(dir))
	if err != nil {
		return nil, err
	}
	if err := preloadStore(st, preload); err != nil {
		st.Close()
		return nil, err
	}
	srv, err := serve.New(st, serve.Options{})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &serverSystem{st: st, srv: srv}, nil
}

// preloadStore inserts recs as one logged batch, so the preload costs
// one checkpoint rather than one per checkpointEvery records.
func preloadStore(st *wal.Store, recs []attr.Record) error {
	ops := make([]wal.Op, len(recs))
	for i, rec := range recs {
		ops[i] = wal.Op{Type: wal.TypeInsert, Rec: rec}
	}
	if _, err := st.ApplyBatch(ops); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

// openServer recovers the store and serves its first audited base
// release.
func openServer(tr *tracer, dir string) (*serverSystem, error) {
	var st *wal.Store
	var err error
	tr.do("wal.Open", 0, 0, func() { st, err = wal.Open(walOptions(dir)) })
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(st, serve.Options{})
	if err != nil {
		st.Close()
		return nil, err
	}
	s := &serverSystem{st: st, srv: srv}
	if _, err := srv.View().Base(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serverSystem) write(tr *tracer, req int64, op wal.Op) (found bool, err error) {
	tr.do("serve.Server.write", 0, req, func() {
		switch op.Type {
		case wal.TypeInsert:
			found, err = true, s.srv.Insert(op.Rec)
		case wal.TypeUpdate:
			found, err = s.srv.Update(op.ID, op.OldQI, op.Rec)
		default:
			found, err = s.srv.Delete(op.ID, op.OldQI)
		}
	})
	return found, err
}

func (s *serverSystem) read(tr *tracer, req int64, q attr.Box) (uint64, error) {
	root := tr.begin("serve.read", 0, req)
	defer tr.end(root)
	v := s.srv.View()
	var err error
	tr.do("serve.View.Release", root, req, func() { _, err = v.Release(readK) })
	if err != nil {
		return 0, err
	}
	tr.do("serve.View.Count", root, req, func() { _, err = v.Count(q) })
	return v.Epoch(), err
}

func (s *serverSystem) release(k int) ([]anonmodel.Partition, error) { return s.srv.View().Release(k) }

func (s *serverSystem) records() ([]attr.Record, error) { return s.srv.View().Records(), nil }

func (s *serverSystem) close() error {
	err := s.srv.Close()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// shardSystem is a shard.Coordinator.
type shardSystem struct {
	c    *shard.Coordinator
	opts shard.Options
}

func shardOptions(dir string, shards int, domain attr.Box) shard.Options {
	return shard.Options{
		Dir: dir, Shards: shards, Domain: domain,
		Tree: treeConfig(), CheckpointEvery: checkpointEvery,
	}
}

func createShards(dir string, shards int, preload []attr.Record) (*shardSystem, error) {
	opts := shardOptions(dir, shards, attr.DomainOf(len(preload[0].QI), preload))
	o := opts
	o.Preload = preload
	c, err := shard.New(o)
	if err != nil {
		return nil, err
	}
	return &shardSystem{c: c, opts: opts}, nil
}

func openShards(tr *tracer, opts shard.Options) (*shardSystem, error) {
	var c *shard.Coordinator
	var err error
	tr.do("shard.Open", 0, 0, func() { c, err = shard.Open(opts) })
	if err != nil {
		return nil, err
	}
	s := &shardSystem{c: c, opts: opts}
	if _, err := c.Release(0); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *shardSystem) write(tr *tracer, req int64, op wal.Op) (found bool, err error) {
	tr.do("shard.Coordinator.write", 0, req, func() {
		switch op.Type {
		case wal.TypeInsert:
			found, err = true, s.c.Insert(op.Rec)
		case wal.TypeUpdate:
			found, err = s.c.Update(op.ID, op.OldQI, op.Rec)
		default:
			found, err = s.c.Delete(op.ID, op.OldQI)
		}
	})
	return found, err
}

func (s *shardSystem) read(tr *tracer, req int64, q attr.Box) (uint64, error) {
	root := tr.begin("shard.read", 0, req)
	defer tr.end(root)
	var err error
	tr.do("shard.Coordinator.Release", root, req, func() { _, err = s.c.Release(readK) })
	if err != nil {
		return 0, err
	}
	tr.do("shard.Coordinator.Count", root, req, func() { _, err = s.c.Count(q) })
	per, _, _ := s.c.Stats()
	var epoch uint64
	for _, st := range per {
		epoch += st.Serve.Epoch
	}
	return epoch, err
}

func (s *shardSystem) release(k int) ([]anonmodel.Partition, error) { return s.c.Release(k) }

func (s *shardSystem) records() ([]attr.Record, error) {
	ps, err := s.c.Export(0)
	if err != nil {
		return nil, err
	}
	var recs []attr.Record
	for _, p := range ps {
		recs = append(recs, p.Records...)
	}
	return recs, nil
}

func (s *shardSystem) close() error { return s.c.Close() }

// model is the acknowledged state the writer has been told about.
// Records whose last operation's outcome is unknown are uncertain and
// excluded from the multiset comparison.
type model struct {
	live      map[int64][]float64
	uncertain map[int64]bool
	checks    []string
}

func newModel(preload []attr.Record) *model {
	m := &model{live: make(map[int64][]float64, len(preload)), uncertain: map[int64]bool{}}
	for _, rec := range preload {
		m.live[rec.ID] = rec.QI
	}
	return m
}

// apply folds one acknowledged (or failed) write into the model and
// returns the failure class, or "" on success.
func (m *model) apply(op wal.Op, found bool, err error) string {
	id := op.ID
	if op.Type == wal.TypeInsert {
		id = op.Rec.ID
	}
	if err != nil {
		class := classify(err)
		if class == "other" || class == "partial" {
			m.uncertain[id] = true
		}
		return class
	}
	_, exists := m.live[id]
	if op.Type != wal.TypeInsert && found != exists && !m.uncertain[id] {
		m.checks = append(m.checks, fmt.Sprintf("op on record %d reported found=%v, acknowledged state says %v", id, found, exists))
	}
	switch {
	case op.Type == wal.TypeInsert:
		m.live[id] = op.Rec.QI
	case op.Type == wal.TypeUpdate && found:
		m.live[id] = op.Rec.QI
	case op.Type == wal.TypeDelete && found:
		delete(m.live, id)
	}
	return ""
}

// diff compares a recovered record multiset with the model.
func (m *model) diff(recs []attr.Record) string {
	seen := make(map[int64]bool, len(recs))
	for _, rec := range recs {
		if m.uncertain[rec.ID] {
			continue
		}
		qi, ok := m.live[rec.ID]
		if !ok || seen[rec.ID] || !sameQI(qi, rec.QI) {
			return fmt.Sprintf("recovered record %d is not in the acknowledged state", rec.ID)
		}
		seen[rec.ID] = true
	}
	for id := range m.live {
		if !seen[id] && !m.uncertain[id] {
			return fmt.Sprintf("acknowledged record %d missing after reopen", id)
		}
	}
	return ""
}

func sameQI(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// samePartitions reports whether two releases are identical: the same
// boxes holding the same records in the same order.
func samePartitions(a, b []anonmodel.Partition) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Box) != len(b[i].Box) || len(a[i].Records) != len(b[i].Records) {
			return false
		}
		for d := range a[i].Box {
			if a[i].Box[d] != b[i].Box[d] {
				return false
			}
		}
		for j := range a[i].Records {
			if a[i].Records[j].ID != b[i].Records[j].ID || !sameQI(a[i].Records[j].QI, b[i].Records[j].QI) {
				return false
			}
		}
	}
	return true
}

func runServing(e *env, shards int) (*result, error) {
	r := newResult()
	dir := filepath.Join(e.dir, "store")
	t0 := time.Now()
	sched := newSchedule(e.seed, e.seconds)
	gen := time.Since(t0)
	heap0 := liveHeap()
	t0 = time.Now()
	var sys servingSystem
	var err error
	if shards == 1 {
		sys, err = createServer(dir, sched.preload)
	} else {
		sys, err = createShards(dir, shards, sched.preload)
	}
	if err == nil {
		// Warm-up: derive and audit the first epoch's read path once.
		if _, err = sys.read(nil, 0, sched.reads[0]); err != nil {
			sys.close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.e2e["setup_s"] = (gen + time.Since(t0)).Seconds()
	r.e2e["heap_bytes_per_record"] = (liveHeap() - heap0) / servingRecords
	reopen := func() (servingSystem, error) { return openServer(e.tr, dir) }
	if s, ok := sys.(*shardSystem); ok {
		reopen = func() (servingSystem, error) { return openShards(e.tr, s.opts) }
	}

	// Measured phase: both clients share one start so their schedules
	// interleave as designed.
	m := newModel(sched.preload)
	start, cpu0 := time.Now().Add(10*time.Millisecond), cpuSeconds()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	var ws, rs *clientStats
	var firstRead hist
	var epochs []uint64
	wfail, rfail := map[string]int64{}, map[string]int64{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ws = openLoop(start, deadline, interval(writeRate), len(sched.writes), func(i int) bool {
			op := sched.writes[i]
			found, err := sys.write(e.tr, int64(i+1), op)
			if class := m.apply(op, found, err); class != "" {
				wfail[class]++
				return true
			}
			return false
		})
	}()
	go func() {
		defer wg.Done()
		rs = openLoop(start, deadline, interval(readRate), len(sched.reads), func(i int) bool {
			t0 := time.Now()
			epoch, err := sys.read(e.tr, readReq(i), sched.reads[i])
			if err != nil {
				rfail[classify(err)]++
				return true
			}
			if len(epochs) == 0 || epoch != epochs[len(epochs)-1] {
				firstRead.record(time.Since(t0))
			}
			epochs = append(epochs, epoch)
			return false
		})
	}()
	wg.Wait()
	cpu := cpuSeconds() - cpu0
	for c, n := range wfail {
		r.failures[c] += n
	}
	for c, n := range rfail {
		r.failures[c] += n
	}
	r.checks = append(r.checks, m.checks...)
	r.attempted += ws.sent + rs.sent
	r.failed += ws.failed + rs.failed
	end := ws.lastDone
	if rs.lastDone.After(end) {
		end = rs.lastDone
	}
	done := float64(ws.sent + rs.sent - ws.failed - rs.failed)
	r.e2e["throughput_per_s"] = done / end.Sub(start).Seconds()
	r.e2e["cpu_us_per_op"] = cpu / done * 1e6
	r.layer["client.latency_p50_ms"] = ws.lat.ms(0.50)
	r.layer["client.latency_p99_ms"] = ws.lat.ms(0.99)
	r.layer["client.read_p50_ms"] = rs.lat.ms(0.50)
	r.layer["client.read_p90_ms"] = rs.lat.ms(0.90)
	late := ws.late
	late.merge(&rs.late)
	r.layer["loadgen.late_ms"] = late.ms(0.99)
	r.layer["serve.first_read_ms"] = firstRead.ms(0.50)
	if len(epochs) > 1 {
		r.layer["serve.epochs_per_read"] = float64(epochs[len(epochs)-1]-epochs[0]) / float64(len(epochs)-1)
	}
	svcName := "serve.write_service_us"
	if shards > 1 {
		svcName = "shard.write_service_us"
	}
	r.layer[svcName] = ws.svc.us(0.50)
	e.logf("writes: %d sent, p50 %.3f ms, p99 %.3f ms (%d beyond p99)", ws.sent, ws.lat.ms(0.5), ws.lat.ms(0.99), ws.lat.beyond(0.99))
	e.logf("reads: %d sent, p50 %.3f ms, p90 %.3f ms (%d beyond p90); %.2f epochs per read, %.3f ms derive per epoch",
		rs.sent, rs.lat.ms(0.5), rs.lat.ms(0.9), rs.lat.beyond(0.9), r.layer["serve.epochs_per_read"], firstRead.ms(0.5))

	var exportBefore []anonmodel.Partition
	var layout *shardLayout
	batch := 1
	switch s := sys.(type) {
	case *serverSystem:
		st := s.srv.Stats()
		serveCounters(r, []serve.Stats{st})
		batch = opsPerBatch(st.Ops, st.Batches)
	case *shardSystem:
		per, partials, retries := s.c.Stats()
		stats := make([]serve.Stats, len(per))
		for i, p := range per {
			stats[i] = p.Serve
		}
		ops, batches := serveCounters(r, stats)
		batch = opsPerBatch(ops, batches)
		r.layer["shard.partials"] = float64(partials)
		r.layer["shard.retries"] = float64(retries)
		lo, hi := stats[0].Ops, stats[0].Ops
		for _, st := range stats {
			lo, hi = min(lo, st.Ops), max(hi, st.Ops)
		}
		if lo > 0 {
			r.layer["shard.ops_skew"] = float64(hi) / float64(lo)
		}
		if exportBefore, err = s.c.Export(readK); err != nil {
			return nil, fmt.Errorf("export before close: %w", err)
		}
		layout = &shardLayout{table: s.c.Table(), quant: s.c.Quantizer(), curve: s.c.Curve()}
	}
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if size, err := dirBytes(dir); err == nil {
		r.layer["wal.bytes_per_user_byte"] = float64(size) / float64(len(m.live)*recordBytes)
	}

	err = reopenCycles(e, r, reopen, func(rsys servingSystem) error {
		recs, err := rsys.records()
		if err != nil {
			return fmt.Errorf("records after reopen: %w", err)
		}
		if msg := m.diff(recs); msg != "" {
			r.checks = append(r.checks, msg)
		}
		switch s := rsys.(type) {
		case *serverSystem:
			r.layer["wal.replayed_ops"] = float64(s.st.RecoveryStats().Replayed)
		case *shardSystem:
			after, err := s.c.Export(readK)
			r.check(err == nil && samePartitions(exportBefore, after), "Export(%d) differs after reopen (err %v)", readK, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if e.tr != nil {
		if err := replay(e, r, sched, layout, batch, int(ws.sent), int(rs.sent)); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
	}
	spanLayers(e, r)
	return r, nil
}

// readReq numbers reads apart from writes in the trace.
func readReq(i int) int64 { return int64(1)<<32 + int64(i) }

// serveCounters sums the serving layers' counters into r and returns
// the total ops and batches.
func serveCounters(r *result, stats []serve.Stats) (ops, batches int64) {
	var shed, expired, retries int64
	for _, st := range stats {
		ops += st.Ops
		batches += st.Batches
		shed += st.Shed
		expired += st.Expired
		retries += st.Retries
	}
	r.layer["serve.shed"] = float64(shed)
	r.layer["serve.expired"] = float64(expired)
	r.layer["serve.retries"] = float64(retries)
	if batches > 0 {
		r.layer["serve.ops_per_batch"] = float64(ops) / float64(batches)
	}
	return ops, batches
}

func opsPerBatch(ops, batches int64) int {
	if batches == 0 {
		return 1
	}
	return max(1, int((ops+batches/2)/batches))
}

// reopenCycles reopens the stopped store until moreReleases says
// stop, timing recovery up to the first audited base release
// (client.recover_s) and then the ladder through the serving API
// (client.release_s). check runs on the first reopened system.
func reopenCycles(e *env, r *result, reopen func() (servingSystem, error), check func(servingSystem) error) error {
	var recovers, releases []float64
	for c, began := 0, time.Now(); moreReleases(c, began); c++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := reopen()
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		recovers = append(recovers, time.Since(t0).Seconds())
		runtime.GC()
		d, err := servingLadder(e, r, sys, int64(c+1))
		r.attempted += int64(len(ladder) + 1)
		if err == nil && c == 0 {
			err = check(sys)
		}
		if cerr := sys.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		releases = append(releases, d.Seconds())
	}
	r.layer["client.release_s"] = median(releases)
	r.layer["client.recover_s"] = median(recovers)
	return nil
}

// servingLadder releases every ladder granularity through the serving
// API and audits them jointly.
func servingLadder(e *env, r *result, sys servingSystem, req int64) (time.Duration, error) {
	t0 := time.Now()
	root := e.tr.begin("release.ladder", 0, req)
	defer e.tr.end(root)
	sets := make([][]anonmodel.Partition, 0, len(ladder))
	n := -1
	for _, k := range ladder {
		var ps []anonmodel.Partition
		var err error
		e.tr.do("release.granularity", root, req, func() { ps, err = sys.release(k) })
		if err != nil {
			return 0, fmt.Errorf("release at k=%d: %w", k, err)
		}
		if n < 0 {
			n = recordCount(ps)
		}
		r.check(recordCount(ps) == n, "release at k=%d holds %d records, the base %d", k, recordCount(ps), n)
		sets = append(sets, ps)
	}
	var err error
	e.tr.do("verify.Releases/joint", root, req, func() { err = verify.Releases(sets, baseK) })
	r.check(err == nil, "joint Lemma-1 audit failed: %v", err)
	return time.Since(t0), nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
