package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Spans of one request share
// Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so measured code calls it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do wraps one call in a span.
func (t *tracer) do(name string, parent int32, req int64, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

// spanStats aggregates every closed span of one name.
type spanStats struct {
	Count int
	Total time.Duration // sum of durations
	Self  time.Duration // sum of self times
	durs  []time.Duration
}

// median is the median duration of the name's spans.
func (s *spanStats) median() time.Duration {
	if len(s.durs) == 0 {
		return 0
	}
	d := append([]time.Duration(nil), s.durs...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// summarize computes per-name totals and self times. A span's self
// time is its duration minus the part of it its children cover.
func (t *tracer) summarize() map[string]*spanStats {
	out := map[string]*spanStats{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		dur := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += dur
		st.Self += dur - covered(kids[s.ID], s.Start, s.End)
		st.durs = append(st.durs, dur)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(ch []span, lo, hi int64) time.Duration {
	sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
	var sum, curLo, curHi int64
	open := false
	for _, c := range ch {
		s, e := max(c.Start, lo), min(c.End, hi)
		if e <= s {
			continue
		}
		if open && s <= curHi {
			curHi = max(curHi, e)
			continue
		}
		if open {
			sum += curHi - curLo
		}
		curLo, curHi, open = s, e, true
	}
	if open {
		sum += curHi - curLo
	}
	return time.Duration(sum)
}

// write dumps every span as one JSON object per line, after a header
// line carrying the run's stamp.
func (t *tracer) write(path string, header any) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("write trace header: %w", err)
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write trace span: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush trace file: %w", err)
	}
	return f.Close()
}
