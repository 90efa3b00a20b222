package main

import (
	"fmt"
	"path/filepath"
)

// spanDir is where traced runs write their spans, inside the checkout's
// build directory.
const spanDir = ".bench_build/spans"

// newLayers returns every per-layer metric at 0.
func newLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// finishTrace completes a traced run's layer metrics: the runtime shares
// of the untraced phase, the tracing overhead (traced against untraced
// throughput), and how much of the op time the spans account for.
// accountedNS is the summed self time of every span of the traced phase
// (plus idle time the spans cannot see); lanes is how many goroutines
// work on one op at once. The spans are written to spanDir.
func (r *report) finishTrace(L map[string]float64, accountedNS int64, lanes int, name string, cfg runConfig, logs ...*spanLog) {
	u, t := r.timed, r.traced
	L["runtime.alloc_kb_per_op"] = share(float64(u.allocBytes)/1024, float64(u.attempted))
	L["runtime.gc_cpu_share"] = share(u.gcCPU, u.totalCPU)
	L["bench.untraced_ops_per_s"] = u.opsPerS()
	L["bench.traced_ops_per_s"] = t.opsPerS()
	L["bench.trace_overhead_share"] = 1 - share(t.opsPerS(), u.opsPerS())
	L["bench.untraced_op_ms"] = u.meanMS()
	L["bench.accounted_op_ms"] = share(ms(accountedNS), float64(t.attempted*lanes))
	spans := 0
	for _, l := range logs {
		if l != nil {
			spans += len(l.spans)
		}
	}
	L["bench.spans"] = float64(spans)
	r.layers = L

	gap := share(L["bench.accounted_op_ms"]-L["bench.untraced_op_ms"], L["bench.untraced_op_ms"])
	verdict := "within"
	if abs(gap) > max(L["bench.trace_overhead_share"], accountSlack) {
		verdict = "outside"
	}
	r.notes = append(r.notes, fmt.Sprintf("spans account for %.4g ms per op against %.4g ms untraced (%+.1f%%), %s the tracing overhead of %.1f%% (or %.0f%% noise)",
		L["bench.accounted_op_ms"], L["bench.untraced_op_ms"], 100*gap, verdict, 100*L["bench.trace_overhead_share"], 100*accountSlack))
	file := fmt.Sprintf("%s-seed%d.json", name, cfg.seed)
	if err := writeSpans(spanDir, file, logs...); err != nil {
		r.notes = append(r.notes, "spans not written: "+err.Error())
	} else {
		r.notes = append(r.notes, "spans written to "+filepath.Join(spanDir, file))
	}
}

// accountSlack is the run-to-run noise allowed on top of the tracing
// overhead when comparing accounted with untraced op time.
const accountSlack = 0.05

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
