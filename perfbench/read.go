package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/query"
)

// The read workload: one serve.Server over 100k records and no writes
// while measuring, so one epoch's cache holds the whole working set.
// Set-up derives the base and k=50 releases and their accelerators;
// then nproc closed-loop readers, each holding its own Counter(0) and
// Estimator(50), issue a fixed seeded mix of 64 point counts to 1
// range count to 1 estimate.
//
// Its client metrics:
//   - throughput_per_s: queries per second over all readers;
//   - cpu_us_per_op: process CPU time per query;
//   - client.latency_p50_ms, client.latency_p99_ms and
//     client.read_p50_ms: one query (every request here is a read, so
//     the two p50s are equal);
//   - client.release_s: after reopening, the audited ladder through the
//     serving API plus the joint audit;
//   - heap_bytes_per_record: live heap the loaded, warmed server adds
//     per record.
const (
	readRecords = 100_000
	pointShare  = 64 // point counts per range count and per estimate
	mixLen      = 1 << 16
	traceEvery  = 64 // traced run: one query in this many gets spans
	checkSample = 256
)

type queryKind uint8

const (
	pointQuery queryKind = iota
	rangeQuery
	estimateQuery
)

var queryNames = [...]string{"query.Counter.Point", "query.Counter.Range", "query.Estimator.Estimate"}

// readerInput is one reader's seeded query stream.
type readerInput struct {
	kinds  []queryKind
	points [][]float64
	boxes  []attr.Box
}

func newReaderInput(recs []attr.Record, seed int64) *readerInput {
	rng := rand.New(rand.NewSource(seed))
	in := &readerInput{
		kinds:  make([]queryKind, mixLen),
		points: query.PointWorkload(recs, 4096, seed),
		boxes:  query.FullRangeWorkload(recs, 4096, seed),
	}
	for i := range in.kinds {
		switch v := rng.Intn(pointShare + 2); {
		case v < pointShare:
			in.kinds[i] = pointQuery
		case v == pointShare:
			in.kinds[i] = rangeQuery
		default:
			in.kinds[i] = estimateQuery
		}
	}
	return in
}

// session is one reader's warm query state.
type session struct {
	cnt *query.Counter
	est *query.Estimator
	in  *readerInput
}

// do runs query i of the reader's stream; the sink defeats dead-code
// elimination.
func (s *session) do(i int) float64 {
	switch s.in.kinds[i%mixLen] {
	case pointQuery:
		return float64(s.cnt.Point(s.in.points[i%len(s.in.points)]))
	case rangeQuery:
		return float64(s.cnt.Range(s.in.boxes[i%len(s.in.boxes)]))
	}
	return s.est.Estimate(s.in.boxes[i%len(s.in.boxes)])
}

type readState struct {
	sys      *serverSystem
	sessions []*session
	base     []anonmodel.Partition
	coarse   []anonmodel.Partition
}

func runRead(e *env) (*result, error) {
	r := newResult()
	dir := filepath.Join(e.dir, "store")
	t0 := time.Now()
	recs := dataset.GenerateLandsEnd(readRecords, e.seed)
	gen := time.Since(t0)
	heap0 := liveHeap()
	t0 = time.Now()
	st, err := setupRead(e, dir, recs)
	if err != nil {
		if st != nil {
			st.sys.close()
		}
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.e2e["setup_s"] = (gen + time.Since(t0)).Seconds()
	r.e2e["heap_bytes_per_record"] = (liveHeap() - heap0) / readRecords

	// Measured phase: closed loop, one reader per core.
	all := make([]hist, len(st.sessions))
	byKind := make([][3]hist, len(st.sessions))
	ops := make([]int64, len(st.sessions))
	sinks := make([]float64, len(st.sessions))
	start, cpu0 := time.Now(), cpuSeconds()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for g, s := range st.sessions {
		wg.Add(1)
		go func(g int, s *session) {
			defer wg.Done()
			sink := 0.0
			i := 0
			for t0 := time.Now(); t0.Before(deadline); i++ {
				kind := s.in.kinds[i%mixLen]
				var id int32
				if e.tr != nil && i%traceEvery == 0 {
					id = e.tr.begin(queryNames[kind], 0, int64(g)<<32|int64(i))
				}
				sink += s.do(i)
				t1 := time.Now()
				e.tr.end(id)
				all[g].record(t1.Sub(t0))
				byKind[g][kind].record(t1.Sub(t0))
				t0 = t1
			}
			ops[g], sinks[g] = int64(i), sink
		}(g, s)
	}
	wg.Wait()
	elapsed, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
	var lat hist
	var kinds [3]hist
	var total int64
	for g := range all {
		lat.merge(&all[g])
		for k := range kinds {
			kinds[k].merge(&byKind[g][k])
		}
		total += ops[g]
	}
	r.attempted += total
	r.e2e["throughput_per_s"] = float64(total) / elapsed
	r.e2e["cpu_us_per_op"] = cpu / float64(total) * 1e6
	r.layer["client.latency_p50_ms"] = lat.ms(0.50)
	r.layer["client.latency_p99_ms"] = lat.ms(0.99)
	r.layer["client.read_p50_ms"] = lat.ms(0.50)
	r.layer["query.point_ns"] = kinds[pointQuery].quantile(0.5)
	r.layer["query.range_us"] = kinds[rangeQuery].us(0.5)
	r.layer["query.estimate_us"] = kinds[estimateQuery].us(0.5)
	e.logf("read: %d queries by %d readers, p50 %.3f us, p99 %.3f us (%d beyond p99)", total, len(st.sessions), lat.us(0.5), lat.us(0.99), lat.beyond(0.99))

	checkAnswers(r, st)
	s := st.sessions[0]
	i := 0
	allocs := testing.AllocsPerRun(mixLen, func() { s.do(i); i++ })
	r.layer["query.allocs_per_op"] = allocs
	r.check(allocs == 0, "warm query sessions allocate %.2f objects per query, want 0", allocs)

	if err := st.sys.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	err = reopenCycles(e, r, func() (servingSystem, error) { return openServer(e.tr, dir) }, func(sys servingSystem) error {
		r.layer["wal.replayed_ops"] = float64(sys.(*serverSystem).st.RecoveryStats().Replayed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	spanLayers(e, r)
	return r, nil
}

// setupRead loads recs into a server, derives the base and k=50
// releases with their accelerators, and opens one warm session per
// reader.
func setupRead(e *env, dir string, recs []attr.Record) (*readState, error) {
	sys, err := createServer(dir, recs)
	if err != nil {
		return nil, err
	}
	rs := &readState{sys: sys}
	v := sys.srv.View()
	for _, k := range []int{0, readK} {
		e.tr.do("serve.View.Release", 0, 0, func() { _, err = v.Release(k) })
		if err == nil {
			e.tr.do("serve.View.Accel", 0, 0, func() { _, err = v.Accel(k) })
		}
		if err != nil {
			return rs, err
		}
	}
	if rs.base, err = v.Release(0); err != nil {
		return rs, err
	}
	if rs.coarse, err = v.Release(readK); err != nil {
		return rs, err
	}
	for g := 0; g < e.procs; g++ {
		s := &session{in: newReaderInput(recs, e.seed*1000+int64(g))}
		if s.cnt, err = v.Counter(0); err != nil {
			return rs, err
		}
		if s.est, err = v.Estimator(readK); err != nil {
			return rs, err
		}
		rs.sessions = append(rs.sessions, s)
	}
	return rs, nil
}

// checkAnswers compares a seeded sample of session answers with the
// linear reference implementations, bit for bit.
func checkAnswers(r *result, st *readState) {
	s := st.sessions[0]
	for i := 0; i < checkSample; i++ {
		p := s.in.points[i%len(s.in.points)]
		q := s.in.boxes[i%len(s.in.boxes)]
		if got, want := s.cnt.Point(p), query.CountAnonymizedPoint(st.base, p); got != want {
			r.check(false, "point count %d: session %d, reference %d", i, got, want)
			return
		}
		if got, want := s.cnt.Range(q), query.CountAnonymized(st.base, q); got != want {
			r.check(false, "range count %d: session %d, reference %d", i, got, want)
			return
		}
		if got, want := s.est.Estimate(q), query.EstimateUniform(st.coarse, q); math.Float64bits(got) != math.Float64bits(want) {
			r.check(false, "estimate %d: session %v, reference %v", i, got, want)
			return
		}
	}
}
