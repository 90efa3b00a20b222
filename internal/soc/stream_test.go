package soc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"tracescale/internal/exp"
	"tracescale/internal/inject"
	"tracescale/internal/opensparc"
	"tracescale/internal/soc"
)

// streamDigest is the SHA-256 of every run TestEventStreamDigest makes.
// The ready-set order, the rng draw sequence and the payload hash all
// feed it, and every golden downstream of the simulator (the campaign
// reports, the paperbench tables, the regression traces) depends on
// them. A change to the simulator that moves this digest changes what
// the evaluation measures.
const streamDigest = "c23c239c77b9b8804aa6b6c190fe3abbaf5d19149d9a1c8fe458f48a1c4840bb"

// TestEventStreamDigest pins soc.Run's output on the exp harness's
// workload: T2 scenarios 1-3 launched as the harness launches them, each
// without a bug and under every catalog bug, at seeds 1-6 and at the
// default and the mining latency bound.
func TestEventStreamDigest(t *testing.T) {
	h := sha256.New()
	runs := 0
	for _, s := range opensparc.Scenarios() {
		sc := soc.Scenario{Name: s.Name, Launches: s.Launches(exp.InstancesPerFlow, 24)}
		// The zero Bug stands for the bug-free run.
		for _, bug := range append([]opensparc.Bug{{}}, opensparc.Bugs()...) {
			for seed := int64(1); seed <= 6; seed++ {
				for _, maxLat := range []uint64{0, 20} {
					cfg := soc.Config{Seed: seed, MaxLatency: maxLat}
					if bug.ID != 0 {
						cfg.Injectors = inject.Injectors(bug)
					}
					res, err := soc.Run(sc, cfg)
					if err != nil {
						t.Fatalf("scenario %d seed %d: %v", s.ID, seed, err)
					}
					hashRun(h, res)
					runs++
				}
			}
		}
	}
	if runs != 540 {
		t.Fatalf("made %d runs, want 540", runs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != streamDigest {
		t.Errorf("event-stream digest = %s, want %s", got, streamDigest)
	}
}

// hashRun feeds one run to h. The literal false stands where a misrouting
// flag stood when the digest was taken, so the digest still reads the
// same bytes.
func hashRun(h hash.Hash, res *soc.Result) {
	for _, e := range res.Events {
		fmt.Fprintf(h, "E %d %d %s/%d %s>%s %d %d %t %t %t %d\n",
			e.Cycle, e.Seq, e.Msg.Name, e.Msg.Index, e.Src, e.Dst, e.Data,
			e.Occurrence, e.Dropped, false, e.Corrupted, e.Bug)
	}
	for _, s := range res.Symptoms {
		fmt.Fprintf(h, "S %d %d %s %d %s/%d\n",
			s.Kind, s.Cycle, s.Flow, s.Index, s.Msg.Name, s.Msg.Index)
	}
	fmt.Fprintf(h, "R %d %d %d\n", res.EndCycle, res.Completed, res.Wedged)
}
