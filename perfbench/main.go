// Command perfbench is the benchmark of the SAIM solver stack. It runs one
// named workload from a seed, checks every output the program returns,
// and prints its metrics: with -trace 0 the end-to-end metrics, with
// -trace 1 the per-layer metrics of a traced run. The last line of
// standard output is one JSON object
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// preceded by a line with the host and a line with every other number
// the run measured (quality, sample counts, end-to-end values in traced
// runs). run.sh builds this command and cmd/saimserve from the checkout
// and runs it from the checkout root:
//
//	bash perfbench/run.sh --workload qkp300 --seed 1 --seconds 10 --trace 0
//
// It exits 1 without a result line when the workload cannot run, and
// exits 1 after printing the result line when an output check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// endToEnd lists the end-to-end metrics every workload prints with
// -trace 0, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"sweeps_per_s", "1/s"},
	{"feasible_ratio", "%"},
	{"peak_rss_mb", "MB"},
}

type metricSpec struct{ name, unit string }

// perLayer lists the per-layer metrics every workload prints with
// -trace 1.
var perLayer = []metricSpec{
	{"model.build_s", "s"}, {"model.alloc_mb", "MB"}, {"model.gc_cycles", "count"},
	{"model.compile_s", "s"}, {"model.terms", "count"},
	{"pbit.sweep_us", "us"}, {"pbit.spin_updates_per_s", "1/s"},
	{"pbit.packed_sweep_us", "us"}, {"pbit.lane_updates_per_s", "1/s"},
	{"pbit.bytes_per_sweep", "B"}, {"pbit.gb_per_s", "GB/s"}, {"pbit.share_pct", "%"},
	{"core.solve_s", "s"}, {"core.self_s", "s"}, {"core.iter_ms", "ms"},
	{"core.compile_ms", "ms"}, {"core.iterations", "count"}, {"core.sweeps", "count"},
	{"saim.solve_s", "s"}, {"saim.self_s", "s"}, {"saim.greedy_ms", "ms"},
	{"service.queue_wait_ms", "ms"}, {"service.run_ms", "ms"},
	{"service.busy_pct", "%"}, {"service.rejected", "count"}, {"service.dedup_hits", "count"},
	{"wal.appends_per_job", "count"}, {"wal.bytes_per_job", "B"}, {"wal.syncs_per_s", "1/s"},
	{"saimserve.wire_ms", "ms"}, {"saimserve.req_bytes", "B"},
	{"saimserve.resp_bytes", "B"}, {"saimserve.requests_per_job", "count"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// outcome accumulates one run's results.
type outcome struct {
	attempted, failed int
	checkErrors       []string
	e2e, layers       metrics
	// extra holds every other measured number: quality, counts behind
	// percentiles, and the failure breakdown.
	extra metrics
	// notes explains values that stand in for something the workload
	// does not exercise.
	notes map[string]string
}

func newOutcome() *outcome {
	return &outcome{e2e: metrics{}, layers: metrics{}, extra: metrics{}, notes: map[string]string{}}
}

func (o *outcome) endToEnd(name, unit string, v float64) { o.e2e[name] = metric{v, unit} }
func (o *outcome) layer(name, unit string, v float64)    { o.layers[name] = metric{v, unit} }
func (o *outcome) report(name, unit string, v float64)   { o.extra[name] = metric{v, unit} }

// checkFailed records an output that did not match its re-evaluation.
// The run then reports correct=false and exits non-zero.
func (o *outcome) checkFailed(msg string) {
	o.checkErrors = append(o.checkErrors, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string // directory holding the saimserve binary
	work     string // scratch directory inside the checkout
	root     string // checkout root
}

func main() { os.Exit(run()) }

// procs is the benchmark process's GOMAXPROCS. Both workloads solve on
// one goroutine (one replica; one 64-lane task on one worker), so a second
// P only lets the collector run beside the program: on a shared 2-CPU
// host six back-to-back builds of the GC-bound qkp300 model took
// 1.95–2.71 s with two Ps and 1.01–1.03 s with one. The saimserve child
// keeps its default.
const procs = 1

func run() int {
	runtime.GOMAXPROCS(procs)
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: qkp300 or color-packed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the saimserve binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for traces and journals")
	flag.Parse()
	cfg.trace = trace == 1
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.root = root
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	out := newOutcome()
	tr := newTracer(cfg.trace)
	ctx := context.Background()
	want := endToEnd
	switch cfg.workload {
	case "qkp300":
		err = runBatch(ctx, cfg, qkp300(), out, tr)
	case "color-packed":
		err = runBatch(ctx, cfg, colorPacked(), out, tr)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err == nil && cfg.trace {
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err = tr.write(path); err == nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	have := out.e2e
	if cfg.trace {
		want, have = perLayer, out.layers
	}
	final := metrics{}
	for _, m := range want {
		v, ok := have[m.name]
		if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s missing or not finite (%v)\n", cfg.workload, m.name, v)
			return 1
		}
		final[m.name] = v
	}
	if out.attempted > 0 {
		out.report("failed_pct", "%", 100*float64(out.failed)/float64(out.attempted))
	}
	side := out.extra
	if cfg.trace {
		for k, v := range out.e2e {
			side["e2e."+k] = v
		}
	}
	// One JSON object per line; the result comes last.
	for _, line := range []map[string]any{
		{"host": readHost(cfg.root), "workload": cfg.workload, "seed": cfg.seed},
		{"report": side, "notes": out.notes, "check_errors": out.checkErrors},
		{"correct": len(out.checkErrors) == 0, "attempted": out.attempted, "failed": out.failed, "metrics": final},
	} {
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(data))
	}
	if len(out.checkErrors) > 0 {
		return 1
	}
	return 0
}
