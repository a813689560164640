// Command lspperf is the repository's end-to-end and per-layer benchmark.
//
//	lspperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It generates the workload's inputs from the seed with internal/datagen,
// hands the program only those inputs, measures for about --seconds, checks
// the mined output, and prints as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, measured with tracing off; with --trace 1 they
// are the per-layer ones, timed by spans the benchmark records around its
// own calls into each layer's public functions (written to
// .bench_build/spans-<workload>-<seed>.json).
//
//	lspperf --steady <runs> --workload <name> [--seed <first>] [--seconds <s>]
//
// runs the steadiness self-check: two sets of <runs> end-to-end runs of one
// workload, each run a separate process, then each metric's median,
// quartiles and spread per set against the bound in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mine_s", "s"},
	{"mine_p90_s", "s"},
	{"mine_cpu_s", "s"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the metrics a --trace 1 run reports. A layer the workload
// does not call reports 0.
var perLayer = []metricDef{
	{"seqdb.import_s", "s"},
	{"seqdb.pass_s", "s"},
	{"seqdb.bytes_per_pass", "bytes"},
	{"seqdb.full_passes", "count"},
	{"core.phase1_s", "s"},
	{"core.phase1_kernel_s", "s"},
	{"miner.phase2_s", "s"},
	{"match.incremental_s", "s"},
	{"miner.phase2_self_s", "s"},
	{"miner.candidates", "count"},
	{"miner.ambiguous", "count"},
	{"miner.phase2_alloc_mb", "MiB"},
	{"border.finalize_s", "s"},
	{"miner.probe_s", "s"},
	{"match.probe_kernel_s", "s"},
	{"border.self_s", "s"},
	{"border.probe_scans", "count"},
	{"border.probed", "count"},
	{"border.probed_ratio", "ratio"},
	{"stream.advance_s", "s"},
	{"stream.remine_ratio", "ratio"},
	{"stream.window_scans", "count"},
	{"stream.reprobes_avoided", "count"},
	{"jobs.append_s", "s"},
	{"jobs.append_rejected", "count"},
	{"seqdb.tail_s", "s"},
	{"seqdb.log_bytes_per_seq", "bytes"},
	{"checkpoint.save_s", "s"},
	{"checkpoint.bytes", "bytes"},
	{"trace.mine_s", "s"},
	{"trace.untraced_mine_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// workloads maps each workload name to its run.
var workloads = map[string]func(*bench) error{
	"disk-collapse": diskCollapse,
	"deep-sample":   deepSample,
	"stream-follow": streamFollow,
}

// bench is one run's shared state: its inputs, the tracer (nil with
// tracing off), the scratch directory inside the working tree, the counts
// of attempted and failed operations, and the measured values.
type bench struct {
	seed    int64
	seconds float64
	tr      *Tracer
	dir     string

	attempted, failed int
	problems          []string
	values            map[string]float64
}

// op counts one operation (a mine, an append, an advance) and whether it
// failed.
func (b *bench) op(err error) error {
	b.attempted++
	if err != nil {
		b.failed++
	}
	return err
}

// check records an output mismatch; the run then reports correct=false.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// set records a measured value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// deadline is when the timed repetitions of a run stop being started.
func (b *bench) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(b.seconds * float64(time.Second)))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: disk-collapse, deep-sample or stream-follow")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 25, "how long the timed repetitions run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from spans")
	steady := flag.Int("steady", 0, "run the steadiness self-check with this many runs per set")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *workload, names())
	}
	if *steady > 0 {
		if err := steadiness(*workload, *seed, *seconds, *steady); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(".bench_build", "lspperf-run-")
	if err != nil {
		fatalf("%v", err)
	}
	b := &bench{seed: *seed, seconds: *seconds, dir: dir, values: map[string]float64{}}
	if *trace == 1 {
		b.tr = NewTracer(fmt.Sprintf("%s/seed-%d/pid-%d", *workload, *seed, os.Getpid()))
	}
	fmt.Fprintf(os.Stderr, "lspperf: workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	runErr := run(b)
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "lspperf: %v\n", err)
	}
	if runErr != nil {
		fatalf("%s: %v", *workload, runErr)
	}
	if b.tr != nil {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		if err := b.tr.WriteFile(path); err != nil {
			fatalf("write spans: %v", err)
		}
		fmt.Fprintf(os.Stderr, "lspperf: %d spans written to %s\n", len(b.tr.spans), path)
	}
	os.Exit(report(b, *trace == 1))
}

// report prints the run's result line and returns the exit code: 0 only
// for a correct run.
func report(b *bench, traced bool) int {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultOut{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok && !traced {
			b.check(false, "end-to-end metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	b.check(b.attempted > 0, "no operation was attempted")
	b.check(b.failed == 0, "%d of %d operations failed", b.failed, b.attempted)
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "lspperf: check failed: %s\n", p)
	}
	out.Correct = len(b.problems) == 0
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-26s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lspperf: "+format+"\n", args...)
	os.Exit(2)
}

// names lists the workloads for messages.
func names() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, ", ")
}
