package main

import (
	"math"
	"time"
)

// refused is the latency a failed or refused request is recorded with:
// it misses every latency limit.
const refused = time.Duration(math.MaxInt64)

// clientStats is what one open-loop client measured. Late is the
// generator's own lateness: how long after the client was free to send
// a request (its due time, or the previous request's completion if
// that came later) it actually sent it, which is timer and scheduler
// overshoot on the client's side. Latency runs from the intended send
// time, so a stall also charges the requests it delayed, minus that
// lateness, which is the generator's and not the system's; service
// time runs from the actual send.
type clientStats struct {
	lat, svc, late hist
	sent, failed   int64
	lastDone       time.Time
}

// openLoop sends request i at start + i*every until the next one would
// be due at or after deadline, one request at a time, and returns what
// it measured. do reports whether the request failed.
func openLoop(start, deadline time.Time, every time.Duration, n int, do func(i int) bool) *clientStats {
	cs := &clientStats{lastDone: start}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * every)
		if !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		ready := due
		if cs.lastDone.After(ready) {
			ready = cs.lastDone
		}
		late := sent.Sub(ready)
		cs.late.record(late)
		failed := do(i)
		done := time.Now()
		cs.lastDone = done
		cs.sent++
		if failed {
			cs.failed++
			cs.lat.record(refused)
			continue
		}
		cs.lat.record(done.Sub(due) - late)
		cs.svc.record(done.Sub(sent))
	}
	return cs
}
