// Command perfbench is the repository benchmark. It drives the selfstab
// library and the selfstabd service in-process over four seeded
// workloads, checks every output against the verify oracles, and prints
// one JSON result line as the last line of standard output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the workload runs twice (untraced, then with in-memory spans)
// followed by the layer probes, and the result carries the per-layer
// metrics. README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"

	"selfstab/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) *outcome{
	"converge-1m": convergeWorkload,
	"mutate-1k":   mutateWorkload,
	"mixed-16k":   mixedWorkload,
	"churn-64k":   churnWorkload,
}

// env carries one run's parameters into a workload pass.
type env struct {
	seed    int64
	seconds int
	// work is the run's scratch directory (service data dirs); the run
	// removes it at exit.
	work string
	// tr records spans; nil on untraced passes.
	tr *tracer
}

// outcome is what one workload pass measured and checked.
type outcome struct {
	e2e   map[string]float64
	layer map[string]float64
	// attempted and failed count the timed operations: trials, requests
	// or create+delete pairs.
	attempted, failed int
	// problems lists correctness violations; any makes the run fail.
	problems []string
	// report holds the workload's own metric lines (per-workload names, sample
	// counts), printed to standard error.
	report []string
	// g is the workload's graph, which the layer probes run on.
	g *graph.Graph
	// counts are the deterministic per-trial rounds and moves
	// (converge-1m), compared between the untraced and traced passes.
	counts []int
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a correctness violation; only the first few are kept.
func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// note adds one line to the human-readable report.
func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports; README.md
// gives each workload's definition of main and second.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"main_p50_ms", "ms"},
	{"second_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics of a traced run. A layer a
// workload bypasses reports 0.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{"graph.gen_s", "s"},
		{"graph.csr_build_ms", "ms"},
		{"core.smm_eval_ns_per_node", "ns"},
		{"core.smi_eval_ns_per_node", "ns"},
		{"sim.smm_rounds", "count"},
		{"sim.smm_moves", "count"},
		{"sim.smi_rounds", "count"},
		{"sim.smi_moves", "count"},
		{"sim.round_ms_p50", "ms"},
		{"sim.round_ms_max", "ms"},
		{"sim.ns_per_move", "ns"},
		{"sim.first_round_share", "ratio"},
		{"sim.converge_ms", "ms"},
		{"faults.converge_ms", "ms"},
		{"faults.slowdown", "ratio"},
		{"verify.smm_check_ms", "ms"},
		{"verify.smi_check_ms", "ms"},
		{"service.open_ms", "ms"},
		{"service.recover_ms", "ms"},
		{"service.create_ms", "ms"},
		{"service.delete_ms", "ms"},
		{"service.fsyncs_per_mutation", "ratio"},
		{"service.mean_batch", "ratio"},
		{"service.segments", "count"},
		{"service.replay_suffix_bytes", "bytes"},
		{"service.rate_limited", "count"},
		{"service.overloaded", "count"},
		{"service.panics", "count"},
		{"service.epoch_rounds_max", "count"},
		{"service.moves_per_mutation", "ratio"},
		{"service.epochs_over_bound", "count"},
		{"service.data_bytes_per_mutation", "bytes"},
	}
	for _, b := range batchBuckets {
		ms = append(ms, metricDef{"service.batch_hist_" + b, "count"})
	}
	for _, r := range routes {
		ms = append(ms,
			metricDef{"http.handler_ms." + r, "ms"},
			metricDef{"http.transport_ms." + r, "ms"},
			metricDef{"http.resp_bytes." + r, "bytes"},
		)
	}
	// Only these routes carry a request body.
	for _, r := range []string{"mutation", "create"} {
		ms = append(ms, metricDef{"http.req_bytes." + r, "bytes"})
	}
	for _, l := range layers {
		ms = append(ms, metricDef{"self_ms." + l, "ms"})
	}
	for _, m := range e2eMetrics {
		ms = append(ms, metricDef{"trace.overhead." + m.name, m.unit})
	}
	return ms
}()

// batchBuckets name the service's group-commit batch-size histogram
// buckets: 1, 2, ≤4, ≤8, ≤16, ≤32, ≤64, >64.
var batchBuckets = []string{"1", "2", "4", "8", "16", "32", "64", "gt64"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "run length; every request stream and trial count is sized from it")
	trace := fs.Int("trace", 0, "1 runs the workload untraced and traced, then the layer probes, and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for per-run scratch data and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload in {%s}, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*workdir, "run-"+*name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{seed: *seed, seconds: *seconds, work: work}

	var res result
	var problems []string
	if *trace == 0 {
		o := drive(e)
		printReport(stderr, *name, "untraced", o)
		res = result{Attempted: o.attempted, Failed: o.failed, Metrics: pick(e2eMetrics, o.e2e)}
		problems = o.problems
	} else {
		base := drive(e)
		printReport(stderr, *name, "untraced", base)
		e.tr = newTracer()
		o := drive(e)
		tr := e.tr
		e.tr = nil
		printReport(stderr, *name, "traced", o)
		problems = append(base.problems, o.problems...)
		if !slices.Equal(base.counts, o.counts) {
			problems = append(problems, fmt.Sprintf("rounds/moves differ between two passes of seed %d: %v vs %v", e.seed, base.counts, o.counts))
		}
		for _, m := range e2eMetrics {
			o.layer["trace.overhead."+m.name] = o.e2e[m.name] - base.e2e[m.name]
		}
		tr.summarize(o.layer)
		o.layer["graph.gen_s"] = median(tr.durations("graph.gen")) / 1e3
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.jsonl", *name, *seed))
		if err := tr.write(path); err != nil {
			problems = append(problems, fmt.Sprintf("write spans: %v", err))
		} else {
			fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
		}
		if o.g != nil {
			problems = append(problems, probeLayers(e, o.g, o.layer)...)
		}
		res = result{Attempted: o.attempted, Failed: o.failed, Metrics: pick(layerMetrics, o.layer)}
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintf(stderr, "perfbench: INCORRECT: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// pick renders the named metrics; a metric the pass did not set is 0.
func pick(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func printReport(w io.Writer, name, pass string, o *outcome) {
	fmt.Fprintf(w, "perfbench: %s (%s pass): attempted %d, failed %d\n", name, pass, o.attempted, o.failed)
	for _, line := range o.report {
		fmt.Fprintf(w, "  %s\n", line)
	}
	for _, m := range e2eMetrics {
		fmt.Fprintf(w, "  %s = %.6g %s\n", m.name, o.e2e[m.name], m.unit)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}
