package main

import (
	"reflect"
	"testing"

	"spatialanon/internal/dataset"
	"spatialanon/internal/wal"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := newSchedule(7, 2), newSchedule(7, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different op schedules")
	}
	if reflect.DeepEqual(a.writes, newSchedule(8, 2).writes) {
		t.Fatal("different seeds gave the same op schedule")
	}
	if len(a.writes) < 2*writeRate || len(a.reads) < 2*readRate {
		t.Fatalf("schedule too short for 2 s: %d writes, %d reads", len(a.writes), len(a.reads))
	}
	r1, r2 := newReaderInput(a.preload, 3), newReaderInput(a.preload, 3)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("the same seed gave two different query mixes")
	}
}

// TestExactCountsRepeat: the counts the benchmark reports as exact
// (pager I/O, leaves, replayed ops) repeat for a seed.
func TestExactCountsRepeat(t *testing.T) {
	recs := dataset.GenerateLandsEnd(50_000, 5)
	type counts struct{ reads, writes, leaves, replayed int64 }
	measure := func() counts {
		tree, io, err := loadTree(nil, recs, new(hist), 0)
		if err != nil {
			t.Fatal(err)
		}
		return counts{io.Reads, io.Writes, int64(len(tree.Leaves())), int64(replayedOps(t, 5))}
	}
	a, b := measure(), measure()
	if a != b {
		t.Fatalf("exact counts differ between identical runs: %+v vs %+v", a, b)
	}
	if a.reads == 0 || a.writes == 0 || a.replayed == 0 {
		t.Fatalf("counts should be non-zero at this size: %+v", a)
	}
}

// replayedOps applies a seeded schedule's first writes one batch at a
// time, closes the store without a checkpoint and reports how many
// operations recovery replays.
func replayedOps(t *testing.T, seed int64) int {
	s := newSchedule(seed, 4)
	dir := t.TempDir()
	st, err := wal.Create(walOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := preloadStore(st, s.preload); err != nil {
		t.Fatal(err)
	}
	for _, op := range s.writes[:checkpointEvery+checkpointEvery/2] {
		if _, err := st.ApplyBatch([]wal.Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = wal.Open(walOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return st.RecoveryStats().Replayed
}
