package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/opensparc"
)

// widthSets are the toy example and T2 scenarios 1-3.
func widthSets(t *testing.T) map[string][]flow.Instance {
	t.Helper()
	cc := flow.CacheCoherence()
	sets := map[string][]flow.Instance{"toy": {{Flow: cc, Index: 1}, {Flow: cc, Index: 2}}}
	for id := 1; id <= 3; id++ {
		s, err := opensparc.ScenarioByID(id)
		if err != nil {
			t.Fatal(err)
		}
		sets[fmt.Sprintf("t2-scenario-%d", id)] = s.Instances()
	}
	return sets
}

// Every message fits in a buffer as wide as the universe's total trace
// width Σ, so no method may select differently at Σ, Σ+1 or Σ+1000 — and
// the clamped search must match the strategy run at the requested width.
func TestStepWidthClampKeepsSelection(t *testing.T) {
	for name, insts := range widthSets(t) {
		e, err := Analyze(insts, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, w := range e.widthOf {
			sum += w
		}
		if got := e.stepWidth(sum + 1000); got != sum {
			t.Fatalf("%s: stepWidth(Σ+1000) = %d, want Σ = %d", name, got, sum)
		}
		for m := range Method(len(registry)) {
			t.Run(name+"/"+m.String(), func(t *testing.T) {
				var want *Result
				for _, width := range []int{sum, sum + 1, sum + 1000} {
					res, err := Select(e, Config{BufferWidth: width, Method: m})
					if err != nil {
						t.Fatalf("width %d: %v", width, err)
					}
					if want == nil {
						want = res
						continue
					}
					if !reflect.DeepEqual(res.Selected, want.Selected) ||
						res.SelectedGain != want.SelectedGain || res.SelectedCoverage != want.SelectedCoverage {
						t.Errorf("width %d selected %v (gain %v, coverage %v), want %v (gain %v, coverage %v) as at Σ",
							width, res.Selected, res.SelectedGain, res.SelectedCoverage,
							want.Selected, want.SelectedGain, want.SelectedCoverage)
					}
				}
				unclamped, _, err := m.strategy().Select(context.Background(), e,
					Config{BufferWidth: sum + 1000, Method: m, MaxCandidates: defaultMaxCandidates})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(unclamped.Messages, want.Selected) ||
					unclamped.Gain != want.SelectedGain || unclamped.Coverage != want.SelectedCoverage {
					t.Errorf("unclamped search selected %+v, clamped %v", unclamped, want.Selected)
				}
			})
		}
	}
}

// A knapsack selection at the widest accepted buffer is sized by the
// scenario, not by the 65,536 requested bits: on the toy example it
// allocates well under a megabyte (an unclamped DP allocates ~11 MB).
func TestKnapsackAtMaxWidthAllocatesLittle(t *testing.T) {
	e, err := Analyze(widthSets(t)["toy"], nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Select(e, Config{BufferWidth: MaxBufferWidth, Method: Knapsack}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("knapsack at %d bits allocated %d bytes, want under 1 MB", MaxBufferWidth, got)
	}
}

// A buffer wider than MaxBufferWidth is refused by name, for every method.
func TestBufferWidthOverLimitRefused(t *testing.T) {
	e := paperEvaluator(t)
	for m := range Method(len(registry)) {
		if _, err := Select(e, Config{BufferWidth: MaxBufferWidth, Method: m}); err != nil {
			t.Errorf("%s at %d bits: %v", m, MaxBufferWidth, err)
		}
		_, err := Select(e, Config{BufferWidth: MaxBufferWidth + 1, Method: m})
		if err == nil || !strings.Contains(err.Error(), "65536-bit limit") {
			t.Errorf("%s at %d bits: err = %v, want the 65536-bit limit", m, MaxBufferWidth+1, err)
		}
	}
}
