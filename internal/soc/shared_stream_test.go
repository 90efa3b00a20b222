package soc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tracescale/internal/exp"
	"tracescale/internal/inject"
	"tracescale/internal/opensparc"
	"tracescale/internal/prng"
	"tracescale/internal/soc"
)

// TestEventStreamDigestSharedStream makes TestEventStreamDigest's 540 runs,
// in its order, with every run of one seed reading one Stream: the golden
// and every buggy run of each scenario, at both latency bounds. Each run
// reads the stream from its start, so the digest is streamDigest.
func TestEventStreamDigestSharedStream(t *testing.T) {
	streams := make(map[int64]*prng.Stream)
	for seed := int64(1); seed <= 6; seed++ {
		streams[seed] = prng.New(seed)
	}
	h := sha256.New()
	runs := 0
	for _, s := range opensparc.Scenarios() {
		sc := soc.Scenario{Name: s.Name, Launches: s.Launches(exp.InstancesPerFlow, 24)}
		for _, bug := range append([]opensparc.Bug{{}}, opensparc.Bugs()...) {
			for seed := int64(1); seed <= 6; seed++ {
				for _, maxLat := range []uint64{0, 20} {
					cfg := soc.Config{Seed: seed, MaxLatency: maxLat, Stream: streams[seed]}
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
		t.Errorf("shared-stream event digest = %s, want %s", got, streamDigest)
	}
}
