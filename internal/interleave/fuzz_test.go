package interleave

import (
	"math/rand"
	"testing"

	"tracescale/internal/flow"
)

// fuzzFlow builds a cache-coherence-shaped flow with fuzzed message
// widths, so structurally distinct flows enter the fingerprint domain.
func fuzzFlow(t *testing.T, name string, wReq, wGnt int) *flow.Flow {
	t.Helper()
	b := flow.NewBuilder(name)
	b.States("Init", "Wait", "GntW", "Done")
	b.Init("Init")
	b.Stop("Done")
	b.Atomic("GntW")
	b.Message(flow.Message{Name: "ReqE", Width: wReq, Src: "1", Dst: "Dir"})
	b.Message(flow.Message{Name: "GntE", Width: wGnt, Src: "Dir", Dst: "1"})
	b.Message(flow.Message{Name: "Ack", Width: 1, Src: "1", Dst: "Dir"})
	b.Chain([]string{"Init", "Wait", "GntW", "Done"}, []string{"ReqE", "GntE", "Ack"})
	f, err := b.Build()
	if err != nil {
		t.Fatalf("fuzz flow build: %v", err)
	}
	return f
}

// FuzzFingerprint checks the session-cache key's load-bearing properties
// over fuzzed instance listings:
//
//   - listing order is part of the key: a permuted listing fingerprints
//     equally iff every position holds a structurally identical instance
//     (the analysis's message universe, and with it every tie-break,
//     follows the listing),
//   - content addressing: independently rebuilt but structurally
//     identical flows produce the same fingerprint, and
//   - collision freedom across neighboring sets: changing an instance
//     index or a message width must change the fingerprint.
//
// The seed corpus starts at the paper's Fig. 2 scenario — two instances
// of the cache-coherence flow, indices 1 and 2.
func FuzzFingerprint(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), uint8(0)) // Fig. 2: CC x {1,2}
	f.Add(uint8(3), uint8(3), uint8(4), uint8(9), uint8(7)) // duplicate indices
	f.Add(uint8(0), uint8(255), uint8(16), uint8(2), uint8(42))
	f.Fuzz(func(t *testing.T, a, b, wr, wg, permSeed uint8) {
		idxA, idxB := int(a)+1, int(b)+1
		wReq, wGnt := 1+int(wr%16), 1+int(wg%16)
		set := []flow.Instance{
			{Flow: flow.CacheCoherence(), Index: idxA},
			{Flow: flow.CacheCoherence(), Index: idxB},
			{Flow: fuzzFlow(t, "fuzzflow", wReq, wGnt), Index: 1},
		}
		base := Fingerprint(set)

		// Listing order: shuffle positions. Positions 0 and 1 hold
		// structurally identical instances iff their indices agree;
		// position 2 is a different flow from either.
		order := []int{0, 1, 2}
		rand.New(rand.NewSource(int64(permSeed))).Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
		perm := make([]flow.Instance, len(order))
		identical := true
		for i, o := range order {
			perm[i] = set[o]
			identical = identical && (o == i || (o < 2 && i < 2 && idxA == idxB))
		}
		if got := Fingerprint(perm); (got == base) != identical {
			t.Errorf("listing %v of indices (%d, %d, 1): fingerprint equal = %v, positions identical = %v",
				order, idxA, idxB, got == base, identical)
		}

		// Content addressing: structurally identical, independently built
		// flows fingerprint equally.
		rebuilt := []flow.Instance{
			{Flow: flow.CacheCoherence(), Index: idxA},
			{Flow: flow.CacheCoherence(), Index: idxB},
			{Flow: fuzzFlow(t, "fuzzflow", wReq, wGnt), Index: 1},
		}
		if got := Fingerprint(rebuilt); got != base {
			t.Errorf("rebuilt identical instance set fingerprints differently:\n%s\n%s", got, base)
		}

		// Index sensitivity: bumping one index changes the multiset (the
		// bumped value cannot re-create the original multiset), so the
		// fingerprint must move.
		bumped := append([]flow.Instance(nil), set...)
		bumped[0].Index += 1 + int(permSeed%3)
		if Fingerprint(bumped) == base {
			t.Errorf("bumping instance index %d -> %d did not change the fingerprint", set[0].Index, bumped[0].Index)
		}

		// Structure sensitivity: widening a message inside one flow must
		// move the fingerprint.
		widened := append([]flow.Instance(nil), set...)
		widened[2].Flow = fuzzFlow(t, "fuzzflow", wReq+1, wGnt)
		if Fingerprint(widened) == base {
			t.Errorf("widening ReqE %d -> %d did not change the fingerprint", wReq, wReq+1)
		}
	})
}
