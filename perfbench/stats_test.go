package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/serve"
)

func TestTailPercentileHasTenBeyond(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	v, beyond := percentile(samples, 0.99)
	if v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if _, b := percentile(samples[:999], 0.99); b >= minBeyond {
		t.Fatalf("p99 of 999 samples has %d beyond, want fewer than %d", b, minBeyond)
	}
}

func TestTablePrintsSampleCounts(t *testing.T) {
	p := &phase{attempted: 50, wall: time.Second, block: time.Second / phaseBlocks}
	for i := 0; i < 50; i++ {
		p.ops = append(p.ops, opResult{class: "select", ms: float64(i), end: time.Duration(i) * time.Second / 50})
	}
	r := &report{setups: []float64{1}, timed: p, tailQ: 0.99}
	var buf bytes.Buffer
	printTable(&buf, workloads[0], runConfig{seed: 1, seconds: 1}, r, r.result(false))
	out := buf.String()
	for _, want := range []string{"select_p99_ms", "n=50, at least 0 beyond per block (fewer than 10 beyond)", "ops_per_s", "fail_share", "n=1 setups"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
}

// TestBlockMediansIgnoreAStall pins the per-block medians: a stall that
// slows one block moves neither throughput nor latency, and an op that
// returns after the phase's end counts in its last block.
func TestBlockMediansIgnoreAStall(t *testing.T) {
	steady := &phase{block: time.Second}
	stalled := &phase{block: time.Second}
	for b := 0; b < phaseBlocks; b++ {
		n, lat := 100, 10.0
		if b == 2 {
			n, lat = 10, 100.0
		}
		for k := 0; k < 100; k++ {
			end := time.Duration(b)*time.Second + time.Duration(k)*time.Second/100
			steady.ops = append(steady.ops, opResult{ms: 10, end: end})
		}
		for k := 0; k < n; k++ {
			end := time.Duration(b)*time.Second + time.Duration(k)*time.Second/time.Duration(n)
			stalled.ops = append(stalled.ops, opResult{ms: lat, end: end})
		}
	}
	for _, p := range []*phase{steady, stalled} {
		if got := p.opsPerS(); math.Abs(got-100) > 1e-9 {
			t.Errorf("ops_per_s = %v, want 100", got)
		}
		if v, n, _ := p.latency("", 0.5); v != 10 {
			t.Errorf("p50 over %d ops = %v, want 10", n, v)
		}
	}
	if b := steady.blockOf(phaseBlocks*time.Second + time.Millisecond); b != phaseBlocks-1 {
		t.Errorf("an op ending after the phase lands in block %d, want %d", b, phaseBlocks-1)
	}
}

func TestSelfTimeSubtractsChildUnionOnce(t *testing.T) {
	l := &spanLog{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a by 10
		{Name: "c", Parent: 0, Start: 70, End: 80},
		{Name: "d", Parent: 1, Start: 15, End: 20},  // grandchild: not root's child
		{Name: "e", Parent: 0, Start: 90, End: 130}, // runs past its parent
	}}
	lt := aggregate(l)
	// Children cover [10,60) ∪ [70,80) ∪ [90,100) = 70 of root's 100.
	if got := lt.self["root"]; got != 30 {
		t.Errorf("root self = %d, want 30", got)
	}
	if got := lt.self["a"]; got != 25 {
		t.Errorf("a self = %d, want 25", got)
	}
	if got := lt.busy["root"]; got != 100 {
		t.Errorf("root busy = %d, want 100", got)
	}
}

func TestLockWaits(t *testing.T) {
	calls := []interval{{0, 100}, {20, 150}, {200, 210}, {205, 260}}
	leads := []int64{10, 10, 1, 1}
	got := lockWaits(calls, leads)
	want := []int64{0, 70, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("wait[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestWrongAnswerCountsAsFailed(t *testing.T) {
	u := map[string]flow.Message{
		"a": {Name: "a", Width: 4, Groups: []flow.Group{{Name: "g", Width: 2}}},
		"b": {Name: "b", Width: 8},
	}
	good := serve.Response{Method: "exhaustive", BufferWidth: 10, Selected: []string{"a"}, SelectedWidth: 4, Width: 4}
	if err := checkSelection(&good, core.Exhaustive, 10, u); err != nil {
		t.Fatalf("a correct answer fails: %v", err)
	}
	wrong := []serve.Response{
		{Method: "exhaustive", BufferWidth: 10, Selected: []string{"a", "b"}, SelectedWidth: 12, Width: 12},
		{Method: "exhaustive", BufferWidth: 10, Selected: []string{"z"}, SelectedWidth: 4, Width: 4},
		{Method: "exhaustive", BufferWidth: 10, Selected: []string{"b"}, SelectedWidth: 8, Width: 9,
			Packed: []serve.PackedGroup{{Message: "a", Group: "h", Width: 1}}},
		{Method: "knapsack", BufferWidth: 10, Selected: []string{"a"}, SelectedWidth: 4, Width: 4},
	}
	for i := range wrong {
		if checkSelection(&wrong[i], core.Exhaustive, 10, u) == nil {
			t.Errorf("wrong answer %d passes the check", i)
		}
	}

	body, err := json.Marshal(wrong[0])
	if err != nil {
		t.Fatal(err)
	}
	req := &request{path: "/select", method: core.Exhaustive, budget: 10, universe: u}
	p := closedLoop(1, 0, 50*time.Millisecond, func(_, i int) opResult {
		if i%2 == 1 {
			return opResult{class: "select", err: checkResponse(req, body)}
		}
		return opResult{class: "select"}
	})
	if p.failed == 0 || p.failed != p.attempted/2 {
		t.Fatalf("%d of %d ops failed, want every wrong answer counted", p.failed, p.attempted)
	}
	if got := failShare(p.attempted, p.failed); got <= 0 {
		t.Fatalf("fail share %v with %d wrong answers", got, p.failed)
	}
	res := (&report{timed: p, tailQ: 0.99, setups: []float64{1}}).result(false)
	if res.Correct || res.Failed != p.failed {
		t.Fatalf("result %+v must report the wrong answers", res)
	}
}

func TestCheckRejectsOutOfRangeReconstruction(t *testing.T) {
	req := &request{path: "/reconstruct", observed: []flow.IndexedMsg{{Name: "a", Index: 1}}}
	for _, body := range []string{
		`{"mode":"exact","match":"prefix","ambiguity":"7","exact":true,"totalPaths":"6","survivors":[1,1]}`,
		`{"mode":"exact","match":"prefix","ambiguity":"0","exact":true,"totalPaths":"6","survivors":[1,1]}`,
		`{"mode":"exact","match":"prefix","ambiguity":"2","exact":true,"totalPaths":"6","survivors":[1]}`,
	} {
		if checkResponse(req, []byte(body)) == nil {
			t.Errorf("reconstruction %s passes the check", body)
		}
	}
	ok := `{"mode":"exact","match":"prefix","ambiguity":"2","exact":true,"totalPaths":"6","survivors":[3,1]}`
	if err := checkResponse(req, []byte(ok)); err != nil {
		t.Errorf("a consistent reconstruction fails: %v", err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the emitted metric names and units in
// step with the benchmark's declaration at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}
