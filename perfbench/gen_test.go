package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"tracescale/internal/campaign"
	"tracescale/internal/flow"
	"tracescale/internal/interleave"
	"tracescale/internal/obs"
	"tracescale/internal/pipeline"
	"tracescale/internal/serve"
)

func coldInstances(t *testing.T, req *request) []flow.Instance {
	t.Helper()
	var sr serve.Request
	if err := json.Unmarshal(req.body, &sr); err != nil {
		t.Fatal(err)
	}
	insts, err := sr.Scenario.Build()
	if err != nil {
		t.Fatalf("request %d: %v", req.i, err)
	}
	return insts
}

func TestColdNeverRepeatsAFingerprint(t *testing.T) {
	g := newColdGen(7)
	seen := map[string]int{}
	for i := 0; i < 1000; i++ {
		req, err := g.request(i)
		if err != nil {
			t.Fatal(err)
		}
		insts := coldInstances(t, req)
		if len(insts) > coldIndexStride {
			t.Fatalf("request %d has %d instances, more than the index stride", i, len(insts))
		}
		fp := pipeline.FingerprintOf(insts, nil)
		if j, dup := seen[fp]; dup {
			t.Fatalf("requests %d and %d share fingerprint %s", j, i, fp)
		}
		seen[fp] = i
	}
}

// TestColdStateBands pins the closed form the generator sizes T2 subsets
// with against built products, and the ~10⁴-state share of the mix.
func TestColdStateBands(t *testing.T) {
	small, large := t2Shapes()
	if len(small) == 0 || len(large) == 0 {
		t.Fatalf("%d small and %d large T2 shapes", len(small), len(large))
	}
	for _, sh := range []t2Shape{small[0], small[len(small)-1], large[0]} {
		var insts []flow.Instance
		for k, f := range sh.flows {
			for c := 0; c < sh.copies[k]; c++ {
				insts = append(insts, flow.Instance{Flow: f, Index: len(insts) + 1})
			}
		}
		p, err := interleave.New(insts)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumStates() != sh.states {
			t.Errorf("shape %v×%v: closed form %d states, product %d", sh.flows, sh.copies, sh.states, p.NumStates())
		}
	}
	g := newColdGen(3)
	large10k := 0
	for i := 0; i < 200; i++ {
		if slot(g.seed, i, 100) < 3 {
			large10k++
		}
	}
	if large10k != 6 {
		t.Errorf("%d of 200 requests are in the ~10⁴-state slots, want 6", large10k)
	}
}

func TestWarmPoolFitsCacheAndKeysExceedStore(t *testing.T) {
	g, err := newWarmGen(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.pool) > sessionCacheCap {
		t.Errorf("pool of %d scenarios exceeds the %d-session cache", len(g.pool), sessionCacheCap)
	}
	if len(g.keys) < 4*resultStoreCap {
		t.Errorf("%d selection keys, want several times the %d-entry store", len(g.keys), resultStoreCap)
	}
}

func TestWarmMixPerBlock(t *testing.T) {
	rig, err := setupWarm(9)
	if err != nil {
		t.Fatal(err)
	}
	for block := 0; block < 20; block++ {
		count := map[string]int{}
		for i := block * 10; i < block*10+10; i++ {
			req, err := rig.gen(i)
			if err != nil {
				t.Fatal(err)
			}
			count[req.path]++
			if req.path == "/select/batch" {
				n := len(req.batch)
				seen := map[serve.Options]bool{}
				dup := false
				for _, o := range req.batch {
					dup = dup || seen[o]
					seen[o] = true
				}
				if n < 4 || n > 8 || !dup {
					t.Errorf("batch %d: %d option sets, duplicate %v", i, n, dup)
				}
			}
		}
		if count["/select"] != 6 || count["/select/batch"] != 1 || count["/reconstruct"] != 3 {
			t.Fatalf("block %d mix %v, want 6 select, 1 batch, 3 reconstruct", block, count)
		}
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	streams := func(seed int64) [][]byte {
		var out [][]byte
		cold := newColdGen(seed)
		warm, err := setupWarm(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			c, err := cold.request(i)
			if err != nil {
				t.Fatal(err)
			}
			w, err := warm.gen(i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c.body, w.body)
		}
		return out
	}
	a, b, c := streams(11), streams(11), streams(12)
	differ := 0
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("seed 11 request %d differs between two generations", i/2)
		}
		if !bytes.Equal(a[i], c[i]) {
			differ++
		}
	}
	if differ < len(a)/2 {
		t.Fatalf("seeds 11 and 12 share %d of %d requests", len(a)-differ, len(a))
	}
}

// TestReplayMatchesHandler checks the traced replay byte for byte against
// the handler on both serve workloads' streams.
func TestReplayMatchesHandler(t *testing.T) {
	for _, setup := range []func(int64) (*serveRig, error){setupCold, setupWarm} {
		rig, err := setup(4)
		if err != nil {
			t.Fatal(err)
		}
		mirror, err := setup(4)
		if err != nil {
			t.Fatal(err)
		}
		rp := newReplayer(mirror.env, time.Now())
		for i := 0; i < 60; i++ {
			req, err := rig.gen(i)
			if err != nil {
				t.Fatal(err)
			}
			code, want := rig.env.call(req.path, req.body)
			if code != 200 {
				t.Fatalf("request %d %s: status %d: %s", i, req.path, code, want)
			}
			if err := checkResponse(req, want); err != nil {
				t.Fatalf("request %d %s: %v", i, req.path, err)
			}
			got, err := rp.replay(i, req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("request %d %s: replay\n%s\nhandler\n%s", i, req.path, got, want)
			}
		}
	}
}

func TestCampaignReplayMatchesRun(t *testing.T) {
	spec, err := buildCampaignSpec(2, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.Reps, spec.Workers, spec.Seed = 1, campaignWorkers, 5
	rep, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := campaignFailure(rep, len(gridOf(&spec))); err != nil {
		t.Fatal(err)
	}
	replay := &campaignReplay{spec: &spec, points: gridOf(&spec)}
	for w := range replay.stats {
		replay.stats[w].outcomes = map[string]int{}
	}
	got := recordsJSON(replay.grid(0, 5))
	if want := recordsJSON(rep.Runs); !bytes.Equal(got, want) {
		t.Fatalf("replayed records differ from campaign.Run's:\n%s\n%s", got, want)
	}
}

func TestMinedSpecsRoundTrip(t *testing.T) {
	pool, err := corpusPool(3)
	if err != nil {
		t.Fatal(err)
	}
	var n mineCounts
	for _, c := range pool[:3] {
		m, err := ingest(c, 0, nil, nil, &n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkMined(m); err != nil {
			t.Fatalf("scenario %d: %v", c.scenario, err)
		}
	}
}
