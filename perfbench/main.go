// Command perfbench is the repository's benchmark: it runs one named
// workload through the program's public entry points, checks that the
// reports are correct, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the same workload runs untraced and traced,
// and the metrics are the per-layer ones from the traced run. See
// README.md for the workloads, the metrics and how to reproduce the
// baseline.
//
// Usage:
//
//	perfbench --workload longtail|shortcells --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
)

// defaultSeed is the seed whose canonical report digests are pinned.
const defaultSeed = 1

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark invocation: one workload at one seed.
type run struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	traceDir string

	attempted, failed int64
	problems          []string

	metrics map[string]metric
	notes   []string
}

func (r *run) attempt(n int) { r.attempted += int64(n) }

// fail records a failed correctness check; n operations count as
// failed.
func (r *run) fail(n int, format string, args ...any) {
	r.failed += int64(n)
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.notef("%s: no samples; reported as 0", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// nominalRepSeconds is about how long one repetition of each workload
// takes on a 2-vCPU machine. A run makes round(seconds / nominal)
// repetitions, so the same --seed and --seconds always measure the
// same inputs.
var nominalRepSeconds = map[string]float64{"longtail": 9, "shortcells": 6.5}

// reps is how many repetitions the run measures. A traced run makes
// each repetition twice (untraced, then traced) and adds the probes, so
// it makes half as many.
func (r *run) reps() int {
	n := int(float64(r.seconds)/nominalRepSeconds[r.workload] + 0.5)
	if r.traced {
		n /= 2
	}
	return max(n, 1)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: longtail or shortcells")
		seed     = flag.Int64("seed", defaultSeed, "workload seed; the same seed gives the same specs")
		seconds  = flag.Int("seconds", 40, "about how long the run measures")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "where a traced run writes its spans")
	)
	flag.Parse()
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want longtail or shortcells)\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds,
		traced: *trace == 1, traceDir: *traceDir,
		metrics: map[string]metric{},
	}
	if err := r.runLocal(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !r.traced {
		r.set("max_rss_mb", maxRSSMB(), "MB")
	}
	r.print()
}

// print writes the human-readable lines, then the JSON result line.
func (r *run) print() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v reps=%d\n",
		r.workload, r.seed, r.seconds, r.traced, r.reps())
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Printf("  FAILED: %s\n", p)
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if r.attempted < 1 {
		r.attempted = 1
	}
	fmt.Printf("  error_frac %.6g (%d failed of %d attempted)\n",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20) // bytes
	}
	return float64(ru.Maxrss) / (1 << 10) // KiB
}
