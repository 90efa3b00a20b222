package soc_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"tracescale/internal/flow"
	"tracescale/internal/opensparc"
	"tracescale/internal/soc"
)

// refDataGen is the payload hash written with fmt and hash/fnv, the form
// DefaultDataGen's allocation-free FNV-1a must reproduce bit for bit.
func refDataGen(m flow.Message, index, occurrence int, seed int64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d/%d", m.Name, index, occurrence, seed)
	v := h.Sum64()
	if m.Width < 64 {
		v &= (uint64(1) << uint(m.Width)) - 1
	}
	return v
}

// TestDefaultDataGenMatchesFmtReference pins the payload hash over every
// T2 universe message, indices -2..40, occurrences 0..300, seeds at the
// int64 extremes and widths 1, 7, 32, 63 and 64. Every golden downstream
// of the simulator depends on these values.
func TestDefaultDataGenMatchesFmtReference(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	for _, s := range opensparc.Scenarios() {
		for _, m := range s.Universe() {
			if !seen[m.Name] {
				seen[m.Name] = true
				names = append(names, m.Name)
			}
		}
	}
	seeds := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64}
	widths := []int{1, 7, 32, 63, 64}
	checked := 0
	for _, name := range names {
		for index := -2; index <= 40; index++ {
			for occ := 0; occ <= 300; occ++ {
				for _, seed := range seeds {
					full := refDataGen(flow.Message{Name: name, Width: 64}, index, occ, seed)
					for _, w := range widths {
						want := full
						if w < 64 {
							want &= (uint64(1) << uint(w)) - 1
						}
						m := flow.Message{Name: name, Width: w}
						if got := soc.DefaultDataGen(m, index, occ, seed); got != want {
							t.Fatalf("DefaultDataGen(%s/%d, index %d, occurrence %d, seed %d) = %#x, want %#x",
								name, w, index, occ, seed, got, want)
						}
						checked++
					}
				}
			}
		}
	}
	if len(names) == 0 || checked != len(names)*43*301*len(seeds)*len(widths) {
		t.Fatalf("checked %d payloads over %d names", checked, len(names))
	}
}

func TestDefaultDataGenAllocatesNothing(t *testing.T) {
	m := flow.Message{Name: "dmusiird", Width: 36}
	if n := testing.AllocsPerRun(100, func() { soc.DefaultDataGen(m, -17, 123456, math.MinInt64) }); n != 0 {
		t.Errorf("DefaultDataGen allocates %v times per call, want 0", n)
	}
}
