// Command perfbench is the repository's end-to-end benchmark. It drives
// seeded workloads through the entry points users hit — the traceserved
// handler in process, campaign.Run on the spec t2campaign builds, and the
// trace → mine → selection path — checks every output, and prints the
// end-to-end metrics (tracing off) or the per-layer breakdown of a traced
// run. Workloads are closed loops: each client sends its next request only
// after the previous one returned.
//
//	bash perfbench/run.sh --workload select-cold --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (name → value and unit). Every
// line before it is the human-readable table: each metric by name, with
// its unit and sample count. The exit code is non-zero when any output
// check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
// op_p50_ms and op_tail_ms are over the workload's op (see workloadDef).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// layer a workload does not run reads 0.
var perLayer = []metricDef{
	{"serve.decode_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.requests", "count"},
	{"serve.rejected", "count"},
	{"spec.build_ms", "ms"},
	{"spec.flows", "count"},
	{"pipeline.fingerprint_ms", "ms"},
	{"pipeline.store_get_ms", "ms"},
	{"pipeline.store_put_ms", "ms"},
	{"pipeline.store_hit_share", "ratio"},
	{"pipeline.session_ms", "ms"},
	{"pipeline.session_wait_ms", "ms"},
	{"pipeline.session_hit_share", "ratio"},
	{"pipeline.evictions", "count"},
	{"pipeline.reconstruct_hit_share", "ratio"},
	{"interleave.build_ms", "ms"},
	{"interleave.states", "count"},
	{"interleave.edges", "count"},
	{"interleave.alloc_bytes_per_state", "B/state"},
	{"interleave.count_ms", "ms"},
	{"core.evaluator_ms", "ms"},
	{"core.select_ms.exhaustive", "ms"},
	{"core.select_ms.knapsack", "ms"},
	{"core.select_ms.branch-bound", "ms"},
	{"core.select_ms.greedy", "ms"},
	{"core.select_runs", "count"},
	{"core.gain_evals", "count"},
	{"core.select_ms.reconstruct", "ms"},
	{"core.ambiguity_evals", "count"},
	{"reconstruct.paircount_ms", "ms"},
	{"reconstruct.engine_ms", "ms"},
	{"reconstruct.nodes", "count"},
	{"soc.run_ms", "ms"},
	{"soc.events", "count"},
	{"soc.cycles", "count"},
	{"soc.ns_per_event", "ns"},
	{"debugger.observe_ms", "ms"},
	{"debugger.debug_ms", "ms"},
	{"debugger.steps", "count"},
	{"debugger.eliminated_share", "ratio"},
	{"campaign.points", "count"},
	{"campaign.outcome.symptom", "count"},
	{"campaign.outcome.pass", "count"},
	{"campaign.outcome.error", "count"},
	{"campaign.outcome.panic", "count"},
	{"campaign.outcome.timeout", "count"},
	{"campaign.idle_ms", "ms"},
	{"trace.parse_ms", "ms"},
	{"trace.bytes", "count"},
	{"trace.lines", "count"},
	{"mine.corpus_ms", "ms"},
	{"mine.materialize_ms", "ms"},
	{"mine.slices", "count"},
	{"mine.split_share", "ratio"},
	{"mine.censored", "count"},
	{"mine.select_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KB/op"},
	{"runtime.gc_cpu_share", "ratio"},
	{"bench.untraced_ops_per_s", "ops/s"},
	{"bench.traced_ops_per_s", "ops/s"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.untraced_op_ms", "ms"},
	{"bench.accounted_op_ms", "ms"},
	{"bench.spans", "count"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	clients int
}

// duration is the length of each timed phase: a traced run splits its
// seconds between the untraced and the traced phase.
func (c runConfig) duration() time.Duration {
	d := time.Duration(c.seconds) * time.Second
	if c.trace {
		d /= 2
	}
	return d
}

// report is what one workload run measured and checked.
type report struct {
	// setups holds each setup repetition's wall time in seconds.
	setups []float64
	// timed is the untraced timed phase; traced the traced replay phase
	// (trace mode only).
	timed, traced *phase
	// tailQ is the tail percentile op_tail_ms and the per-class tables
	// report for this workload.
	tailQ float64
	// warmOps is the length of the warm-up; heapMB the heapQ-percentile
	// of its heapReads live-heap readings.
	warmOps, heapReads int
	heapMB             float64
	// layers are the per-layer metrics (trace mode only).
	layers map[string]float64
	// checkErrs are output-check failures found outside any op.
	checkErrs []string
	// notes are printed under the table.
	notes []string
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name    string
	clients int
	run     func(runConfig) (*report, error)
}

var workloads = []workloadDef{
	{"select-cold", 2, runSelectCold},
	{"serve-warm", 1, runServeWarm},
	{"campaign", 1, runCampaign},
	{"trace-mine", 1, runTraceMine},
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run parses args, runs the workload(s), prints the tables and the JSON
// line, and reports whether every output check passed.
func run(args []string, w io.Writer) (bool, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run ("+workloadNames()+", or all)")
	seed := fs.Int64("seed", 1, "workload seed; the program sees only the inputs generated from it")
	seconds := fs.Int("seconds", 10, "length of each timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return false, errors.New("usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	var selected []workloadDef
	for _, wd := range workloads {
		if *name == wd.name || *name == "all" {
			selected = append(selected, wd)
		}
	}
	if len(selected) == 0 {
		return false, fmt.Errorf("unknown workload %q (have %s, all)", *name, workloadNames())
	}
	var out result
	out.Correct = true
	out.Metrics = map[string]metric{}
	for _, wd := range selected {
		cfg.clients = wd.clients
		rep, err := wd.run(cfg)
		if err != nil {
			return false, fmt.Errorf("%s: %w", wd.name, err)
		}
		res := rep.result(cfg.trace)
		printTable(w, wd, cfg, rep, res)
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(selected) > 1 {
				k = wd.name + "/" + k
			}
			out.Metrics[k] = v
		}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, string(raw))
	return out.Correct, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wd := range workloads {
		names[i] = wd.name
	}
	return strings.Join(names, ", ")
}

// measured is the phase whose ops the result counts: the traced replay in
// trace mode, the untraced phase otherwise.
func (r *report) measured(trace bool) *phase {
	if trace && r.traced != nil {
		return r.traced
	}
	return r.timed
}

// result folds the report into the JSON line.
func (r *report) result(trace bool) result {
	p := r.measured(trace)
	res := result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	if trace && r.traced != nil {
		res.Attempted += r.timed.attempted
		res.Failed += r.timed.failed
	}
	res.Correct = res.Failed == 0 && len(r.checkErrs) == 0 && res.Attempted > 0
	if trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{r.layers[m.name], m.unit}
		}
		return res
	}
	p50, _, _ := p.latency("", 0.5)
	tail, _, _ := p.latency("", r.tailQ)
	values := map[string]float64{
		"setup_s":      median(r.setups),
		"ops_per_s":    p.opsPerS(),
		"op_p50_ms":    p50,
		"op_tail_ms":   tail,
		"peak_heap_mb": r.heapMB,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return res
}

// printTable writes the human-readable table: every end-to-end metric by
// name with its unit and sample count, per-class latencies with the
// samples beyond each tail, and the per-layer metrics of a traced run.
func printTable(w io.Writer, wd workloadDef, cfg runConfig, r *report, res result) {
	fmt.Fprintf(w, "# workload %s  seed %d  seconds %d  trace %v  clients %d\n", wd.name, cfg.seed, cfg.seconds, cfg.trace, wd.clients)
	row := func(name string, v float64, unit, count string) {
		fmt.Fprintf(w, "  %-34s %14.6g %-8s %s\n", name, v, unit, count)
	}
	p := r.timed
	row("setup_s", median(r.setups), "s", fmt.Sprintf("n=%d setups", len(r.setups)))
	row("ops_per_s", p.opsPerS(), "ops/s", fmt.Sprintf("n=%d ops in %.3fs, median of %d blocks", p.attempted, p.wall.Seconds(), phaseBlocks))
	row("fail_share", failShare(p.attempted, p.failed), "ratio", fmt.Sprintf("n=%d failed of %d", p.failed, p.attempted))
	row("peak_heap_mb", r.heapMB, "MB", fmt.Sprintf("n=%d readings over %d warm-up ops, p%g", r.heapReads, r.warmOps, heapQ*100))
	tailRow := func(stem, class string, q float64) {
		v50, n, _ := p.latency(class, 0.5)
		row(stem+"_p50_ms", v50, "ms", fmt.Sprintf("n=%d", n))
		v, n, beyond := p.latency(class, q)
		flag := ""
		if beyond < minBeyond {
			flag = fmt.Sprintf(" (fewer than %d beyond)", minBeyond)
		}
		row(fmt.Sprintf("%s_p%g_ms", stem, q*100), v, "ms", fmt.Sprintf("n=%d, at least %d beyond per block%s", n, beyond, flag))
	}
	tailRow("op", "", r.tailQ)
	seen := map[string]bool{}
	var classes []string
	for _, o := range p.ops {
		if !seen[o.class] {
			seen[o.class] = true
			classes = append(classes, o.class)
		}
	}
	sort.Strings(classes)
	for _, c := range classes {
		tailRow(c, c, r.tailQ)
	}
	if cfg.trace {
		fmt.Fprintf(w, "  per-layer (traced replay: %d ops, %d failed)\n", r.traced.attempted, r.traced.failed)
		for _, m := range perLayer {
			row(m.name, r.layers[m.name], m.unit, "")
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, e := range r.checkErrs {
		fmt.Fprintln(w, "  CHECK FAILED:", e)
	}
	fmt.Fprintf(w, "  correct %v  attempted %d  failed %d\n", res.Correct, res.Attempted, res.Failed)
}
