// Command perfbench is the repository's benchmark: one process that
// runs a named, seeded workload against the library and serving stack,
// checks its outputs, and prints every metric by name with its unit.
// run.py builds it and runs it; from the repository root:
//
//	python3 perfbench/run.py --workload churn --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the run records a span around
// every layer call it makes, writes them under --workdir, and reports
// the per-layer metrics instead. The exit code is non-zero when an
// output check fails or the run cannot complete.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"spatialanon/internal/serve"
	"spatialanon/internal/shard"
)

// env is what every workload receives: its seed, its measuring time,
// the tracer (nil in the untraced run) and a scratch directory.
type env struct {
	seed    int64
	seconds float64
	tr      *tracer
	dir     string
	procs   int
	out     io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.out, format+"\n", args...) }

// result is one run's outcome.
type result struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	failures  map[string]int64 // failed operations by class
	checks    []string         // output checks that failed
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, failures: map[string]int64{}}
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

var runners = map[string]func(*env) (*result, error){
	"bulk":    runBulk,
	"churn":   func(e *env) (*result, error) { return runServing(e, 1) },
	"read":    runRead,
	"sharded": func(e *env) (*result, error) { return runServing(e, 2) },
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload name: bulk, churn, read or sharded")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for stores and trace files")
	commit := flag.String("commit", "unknown", "commit or source digest stamped on the result")
	flag.Parse()

	run, ok := runners[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloads)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	stamp := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "commit": *commit, "fsync": true,
	}
	line, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", line)

	e := &env{seed: *seed, seconds: *seconds, dir: dir, procs: runtime.GOMAXPROCS(0), out: os.Stdout}
	if *trace == 1 {
		e.tr = newTracer()
	}
	gc0 := readGC()
	stopPeak := samplePeakHeap(e.tr != nil)
	res, err := run(e)
	peak := stopPeak()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if e.tr != nil {
		res.layer["runtime.gc_cpu_frac"] = readGC().fracSince(gc0)
		res.layer["runtime.heap_peak_mb"] = peak / (1 << 20)
		res.layer["trace.spans"] = float64(len(e.tr.spans))
		res.layer["trace.throughput_per_s"] = res.e2e["throughput_per_s"]
		res.layer["trace.cpu_us_per_op"] = res.e2e["cpu_us_per_op"]
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := e.tr.write(path, stamp); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("trace written to %s\n", path)
	}
	if res.attempted > 0 {
		res.layer["client.failed_frac"] = float64(res.failed) / float64(res.attempted)
	}
	return report(os.Stdout, res, *trace == 1)
}

// report prints every metric by name with its unit, then the result
// line, and returns the exit code.
func report(w io.Writer, res *result, traced bool) int {
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.name] = true
	}
	for name := range res.layer {
		if !declared[name] {
			res.checks = append(res.checks, "metric "+name+" is not declared")
		}
	}
	defs, vals := endToEnd, res.e2e
	if traced {
		defs, vals = perLayer, res.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.checks = append(res.checks, "metric "+m.name+" not measured")
			v = 0
		}
		ms[m.name] = value{v, m.unit}
	}

	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-30s %14.6g %s\n", m.name, res.e2e[m.name], m.unit)
	}
	for _, m := range perLayer {
		if v, ok := res.layer[m.name]; ok {
			fmt.Fprintf(w, "%-30s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	classes := make([]string, 0, len(res.failures))
	for c := range res.failures {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "failed.%-23s %14d count\n", c, res.failures[c])
	}
	for _, c := range res.checks {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.checks) == 0, res.attempted, res.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", out)
	if len(res.checks) > 0 {
		return 1
	}
	return 0
}

// liveHeap collects garbage and returns the live heap in bytes. The
// second collection empties the sync.Pool victim caches, which would
// otherwise keep the previous collection's pooled objects alive.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// gcSample reads the runtime's cumulative GC and total CPU time.
type gcSample struct{ gc, total float64 }

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64()}
}

func (s gcSample) fracSince(prev gcSample) float64 {
	if d := s.total - prev.total; d > 0 {
		return (s.gc - prev.gc) / d
	}
	return 0
}

// samplePeakHeap polls the heap size every 20 ms while on; the returned
// stop function ends the poller, waits for it and returns the peak.
func samplePeakHeap(on bool) func() float64 {
	if !on {
		return func() float64 { return 0 }
	}
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := 0.0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = math.Max(peak, float64(s[0].Value.Uint64()))
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// classify buckets a failed operation's error for failed_frac.
func classify(err error) string {
	var tr interface{ Transient() bool }
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return "shed"
	case errors.Is(err, serve.ErrDeadlineExceeded):
		return "expired"
	case errors.Is(err, serve.ErrDegraded):
		return "degraded"
	case errors.Is(err, serve.ErrRecovering):
		return "recovering"
	case errors.Is(err, shard.ErrPartial):
		return "partial"
	case errors.As(err, &tr) && tr.Transient():
		return "transient"
	}
	return "other"
}
