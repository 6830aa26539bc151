package main

import (
	"math"
	"time"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/query"
	"spatialanon/internal/wal"
)

// The serving workloads' traffic: one writer at writeRate and one
// reader at readRate, both open-loop. The rates sit at about half of
// what the 2-core reference host sustains (500 writes/s plus 20
// reads/s grew a backlog there), so queues stay short and latency is
// service time plus the waits the derivations impose.
const (
	servingRecords  = 20_000
	writeRate       = 200 // writes per second
	readRate        = 5   // reads per second
	readK           = 50  // granularity each read releases
	checkpointEvery = 280 // logged operations between checkpoints; not a divisor of the op counts, so recovery replays a tail
	freshIDBase     = int64(1) << 40
)

// schedule is a serving run's whole input, a pure function of the
// seed: the preload, the writer's op stream and the reader's queries.
// Request i of a client is due at i times its interval after the
// start of the measured phase.
type schedule struct {
	preload []attr.Record
	writes  []wal.Op
	reads   []attr.Box
}

func interval(rate int) time.Duration { return time.Second / time.Duration(rate) }

// newSchedule builds enough requests to fill seconds at the fixed
// rates. The writer cycles insert, relocate (Update) and delete over
// fresh keys, so the store's size stays at the preload size.
func newSchedule(seed int64, seconds float64) *schedule {
	nw := int(math.Ceil(seconds*writeRate)) + 3
	nr := int(math.Ceil(seconds*readRate)) + 1
	preload := dataset.GenerateLandsEnd(servingRecords, seed)
	fresh := dataset.GenerateLandsEnd(2*(nw/3+1), seed^0x5eed)
	s := &schedule{preload: preload, reads: query.FullRangeWorkload(preload, nr, seed)}
	for j := 0; len(s.writes) < nw; j++ {
		rec := fresh[2*j]
		rec.ID = freshIDBase + int64(j)
		moved := attr.Record{ID: rec.ID, QI: fresh[2*j+1].QI, Sensitive: rec.Sensitive}
		s.writes = append(s.writes,
			wal.Op{Type: wal.TypeInsert, Rec: rec},
			wal.Op{Type: wal.TypeUpdate, ID: rec.ID, OldQI: rec.QI, Rec: moved},
			wal.Op{Type: wal.TypeDelete, ID: rec.ID, OldQI: moved.QI},
		)
	}
	s.writes = s.writes[:nw]
	return s
}
