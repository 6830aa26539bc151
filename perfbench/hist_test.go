package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHistQuantileError checks every reported quantile against the
// exact order statistic of the same samples, within histRelErr.
func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := map[string]func() time.Duration{
		"uniform":   func() time.Duration { return time.Duration(rng.Int63n(int64(100 * time.Millisecond))) },
		"lognormal": func() time.Duration { return time.Duration(math.Exp(rng.NormFloat64()*2 + 10)) },
		"bimodal": func() time.Duration {
			if rng.Intn(50) == 0 {
				return time.Duration(30e6 + rng.Int63n(5e6))
			}
			return time.Duration(70e3 + rng.Int63n(2e3))
		},
		"small": func() time.Duration { return time.Duration(rng.Intn(200)) },
	}
	for name, draw := range dists {
		var h hist
		xs := make([]float64, 20000)
		for i := range xs {
			d := draw()
			h.record(d)
			xs[i] = float64(d)
		}
		sort.Float64s(xs)
		for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			want := xs[int(math.Ceil(q*float64(len(xs))))-1]
			got := h.quantile(q)
			if math.Abs(got-want) > histRelErr*want+0.5 {
				t.Errorf("%s q=%v: got %v, exact %v, beyond the %.4f relative error", name, q, got, want, histRelErr)
			}
		}
	}
}

func TestHistMergeAndRefused(t *testing.T) {
	var a, b hist
	for i := 1; i <= 99; i++ {
		a.record(time.Duration(i) * time.Millisecond)
	}
	b.record(refused)
	a.merge(&b)
	if a.n != 100 {
		t.Fatalf("merged count %d, want 100", a.n)
	}
	if got := a.ms(0.99); math.Abs(got-99) > 99*histRelErr {
		t.Errorf("p99 %v ms, want 99", got)
	}
	if got := a.quantile(1); got < float64(time.Hour) {
		t.Errorf("a refused request must miss every limit; max reads %v ns", got)
	}
	if a.beyond(0.99) != 1 {
		t.Errorf("beyond(0.99) = %d, want 1", a.beyond(0.99))
	}
}

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 123456789, 1<<63 - 1} {
		i := bucketOf(v)
		if i >= len(hist{}.counts) {
			t.Fatalf("value %d lands in bucket %d, past the end", v, i)
		}
		if mid := bucketMid(i); math.Abs(mid-float64(v)) > histRelErr*float64(v)+0.5 {
			t.Errorf("value %d: bucket midpoint %v off by more than the stated error", v, mid)
		}
	}
}
