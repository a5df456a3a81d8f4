// Command perfbench is FRIEDA's layered benchmark. It drives both executors
// from outside, through their public entry points only:
//
//   - rt-microtasks, rt-als-stage and rt-blast-common submit one job at a
//     time to the real runtime (core.NewController / Start / SpawnWorker /
//     Wait) and verify every task's output against references computed
//     before timing;
//   - sim-scale builds the 65,536-worker BLAST real-time cell exactly as
//     `friedabench -exp scale` does and checks its virtual makespan and
//     bytes moved against BENCH_scale.json.
//
// Each run is a closed loop with one client: the next job starts when the
// previous one has finished and been verified. Jobs repeat for --seconds;
// the end-to-end metrics are medians over the jobs (latency percentiles
// pool every task of the run). With --trace 1 the run instead measures the
// per-layer metrics: the first half repeats untraced jobs, the second half
// wraps Transport, Source, Store and Program, records spans and a CPU
// profile, and compares the two halves' run_s as the tracing overhead.
//
//	bash perfbench/run.sh --workload rt-blast-common --seed 3 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A human-readable table goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict for one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are printed to standard error only (sample counts, failure
	// causes, artifact paths).
	notes []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for traced-run artifacts
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"rt-microtasks":   runMicrotasks,
	"rt-als-stage":    runALSStage,
	"rt-blast-common": runBLASTCommon,
	"sim-scale":       runSimScale,
}

func main() {
	name := flag.String("workload", "", "workload: rt-microtasks, rt-als-stage, rt-blast-common or sim-scale")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds (jobs repeat until this much wall time has passed)")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_build/trace", "directory for traced-run spans and profiles")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printResult(*name, res)
}

// printResult writes the table to standard error and the JSON verdict as
// the last line of standard output.
func printResult(name string, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "  #", n)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// timed calls fn until budget wall time has passed, at least once.
func timed(budget time.Duration, fn func() error) error {
	start := time.Now()
	for {
		if err := fn(); err != nil {
			return err
		}
		if time.Since(start) >= budget {
			return nil
		}
	}
}

// budget converts seconds to a duration.
func budget(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// median returns the middle value (mean of the middle two), or 0 when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between closest
// ranks, or 0 when xs is empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
