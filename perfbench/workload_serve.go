package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"tracescale/internal/core"
	"tracescale/internal/reconstruct"
	"tracescale/internal/serve"
)

// serveSetups is how many times a serve workload sets up; setup_s is the
// median.
const serveSetups = 31

// Sampling periods of the oracle checks, in requests.
const (
	coldOracleEvery  = 20
	warmOracleEvery  = 40
	reconOracleEvery = 20
	maxCheckFailures = 5
	serveWarmTailQ   = 0.99
	selectColdTailQ  = 0.99
)

// Warm-ups: select-cold sends 512 requests, enough to fill the 64-session
// cache many times over, reading the live heap every 8; serve-warm sends
// 8192, enough to fill the 512-entry result store, reading it every 256.
var (
	coldWarmUp  = warmSpec{ops: 512, every: 8}
	serveWarmUp = warmSpec{ops: 8192, every: 256}
)

// serveRig is one set-up serve workload: a handler and the generator of
// its request stream.
type serveRig struct {
	env  *serveEnv
	gen  func(i int) (*request, error)
	warm *warmGen // serve-warm only
}

// setupCold starts a handler with traceserved's defaults and the
// select-cold generator.
func setupCold(seed int64) (*serveRig, error) {
	env, err := newServeEnv()
	if err != nil {
		return nil, err
	}
	g := newColdGen(seed)
	return &serveRig{env: env, gen: g.request}, nil
}

// setupWarm starts a handler with traceserved's defaults, builds the
// sessions of serve-warm's pool through its cache, and asks /select for
// each scenario's traced set at its own buffer width.
func setupWarm(seed int64) (*serveRig, error) {
	env, err := newServeEnv()
	if err != nil {
		return nil, err
	}
	g, err := newWarmGen(seed)
	if err != nil {
		return nil, err
	}
	for _, ws := range g.pool {
		insts, err := ws.sc.Build()
		if err != nil {
			return nil, err
		}
		ses, err := env.cache.Session(insts)
		if err != nil {
			return nil, err
		}
		ws.product = ses.Product()
		code, body := env.call("/select", ws.raw)
		if code != 200 {
			return nil, fmt.Errorf("setup /select of %s: status %d: %s", ws.sc.Name, code, body)
		}
		var r serve.Response
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		ws.traced = (&core.Result{Selected: r.Selected, Packed: packedOf(r.Packed)}).TracedNames()
	}
	return &serveRig{env: env, gen: g.request, warm: g}, nil
}

func packedOf(ps []serve.PackedGroup) []core.PackedGroup {
	out := make([]core.PackedGroup, len(ps))
	for i, p := range ps {
		out[i] = core.PackedGroup{Message: p.Message, Group: p.Group, Width: p.Width}
	}
	return out
}

func runSelectCold(cfg runConfig) (*report, error) {
	return runServe(cfg, "select-cold", selectColdTailQ, coldWarmUp, setupCold)
}

func runServeWarm(cfg runConfig) (*report, error) {
	return runServe(cfg, "serve-warm", serveWarmTailQ, serveWarmUp, setupWarm)
}

// sample is what an oracle check after the phase needs of one response;
// the request itself is generated again from its number.
type sample struct {
	i                int
	gain             float64
	ambiguity, paths string
}

// maxChecked bounds a client's memo of response digests already checked.
const maxChecked = 4096

// clientState is what one client of the untraced phase keeps.
type clientState struct {
	checked  map[[32]byte]bool
	samples  []sample
	rejected int
}

// runServe runs a serve workload: setups, the warm-up and the untraced
// phase through the handler, the oracle checks, and in trace mode the
// traced replay.
func runServe(cfg runConfig, name string, tailQ float64, warm warmSpec, setup func(int64) (*serveRig, error)) (*report, error) {
	r := &report{tailQ: tailQ}
	var rig *serveRig
	err := r.setUp(serveSetups, cfg.trace, func() (err error) {
		rig, err = setup(cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}

	states := make([]clientState, cfg.clients)
	for c := range states {
		states[c].checked = map[[32]byte]bool{}
	}
	var refMu sync.Mutex
	refs := map[int][32]byte{}
	op := func(c, i int) opResult {
		req, err := rig.gen(i)
		if err != nil {
			return opResult{class: "select", err: err}
		}
		var code int
		var body []byte
		res := opResult{class: classOf(req.path)}
		res.ms = timeMS(func() { code, body = rig.env.call(req.path, req.body) })
		st := &states[c]
		if code != 200 {
			if code == 429 {
				st.rejected++
			}
			res.err = fmt.Errorf("%s: status %d: %s", req.path, code, body)
			return res
		}
		d := digest(body)
		if !st.checked[d] {
			if res.err = checkResponse(req, body); res.err != nil {
				return res
			}
			if len(st.checked) == maxChecked {
				clear(st.checked)
			}
			st.checked[d] = true
		}
		if wantOracle(req) {
			s, err := sampleOf(i, req.path, body)
			if err != nil {
				res.err = err
				return res
			}
			st.samples = append(st.samples, s)
		}
		if cfg.trace {
			refMu.Lock()
			refs[i] = d
			refMu.Unlock()
		}
		return res
	}
	r.warmUp(warm, op)
	r.timed = closedLoop(cfg.clients, warm.ops, cfg.duration(), op)
	rejected := 0
	for _, st := range states {
		rejected += st.rejected
		for _, s := range st.samples {
			if err := oracle(rig, s); err != nil && len(r.checkErrs) < maxCheckFailures {
				r.checkErrs = append(r.checkErrs, fmt.Sprintf("request %d: %v", s.i, err))
			}
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("%d oracle samples checked", countSamples(states)))
	if !cfg.trace {
		return r, nil
	}
	return r, traceServe(cfg, name, r, warm.ops, setup, refs, rejected)
}

func countSamples(states []clientState) int {
	n := 0
	for _, st := range states {
		n += len(st.samples)
	}
	return n
}

// wantOracle picks the seeded sample of responses the oracles recheck.
func wantOracle(req *request) bool {
	switch {
	case req.path == "/reconstruct":
		return req.i%reconOracleEvery == 0
	case req.path == "/select" && req.pool < 0:
		return req.i%coldOracleEvery == 0
	case req.path == "/select":
		return req.i%warmOracleEvery == 0 && exactMethod(req.method)
	}
	return false
}

// sampleOf keeps what the oracle needs of a response.
func sampleOf(i int, path string, body []byte) (sample, error) {
	s := sample{i: i}
	if path == "/reconstruct" {
		var resp serve.ReconstructResponse
		err := json.Unmarshal(body, &resp)
		s.ambiguity, s.paths = resp.Ambiguity, resp.TotalPaths
		return s, err
	}
	var resp serve.Response
	err := json.Unmarshal(body, &resp)
	s.gain = resp.SelectedGain
	return s, err
}

// oracle rechecks one sampled response: an exact method's Step-2 gain
// against a serial exhaustive or branch-and-bound selection on a freshly
// built instance set, or an exact reconstruction count against a lossless
// beam count and the total path count.
func oracle(rig *serveRig, s sample) error {
	req, err := rig.gen(s.i)
	if err != nil {
		return err
	}
	if req.path == "/reconstruct" {
		ws := rig.warm.pool[req.pool]
		return checkReconstruction(ws.product, req.traced, req.observed, s.ambiguity, s.paths)
	}
	var sreq serve.Request
	if err := json.Unmarshal(req.body, &sreq); err != nil {
		return err
	}
	insts, err := sreq.Scenario.Build()
	if err != nil {
		return err
	}
	ccfg, err := optionsConfig(sreq.Options, sreq.BufferWidth)
	if err != nil {
		return err
	}
	return checkExactGain(insts, ccfg, s.gain)
}

// traceServe runs the traced replay on a fresh handler state, warmed up
// with the same first warmOps requests as the untraced phase, and fills
// the per-layer metrics.
func traceServe(cfg runConfig, name string, r *report, warmOps int, setup func(int64) (*serveRig, error),
	refs map[int][32]byte, rejected int) error {
	rig, err := setup(cfg.seed)
	if err != nil {
		return err
	}
	for i := 0; i < warmOps; i++ {
		req, err := rig.gen(i)
		if err != nil {
			return err
		}
		if code, body := rig.env.call(req.path, req.body); code != 200 {
			return fmt.Errorf("warm-up %s %d: status %d: %s", req.path, i, code, body)
		}
	}
	before := rig.env.reg.Snapshot()
	epoch := time.Now()
	rps := make([]*replayer, cfg.clients)
	// unmatched holds, per client, the digests of replayed responses to
	// requests the untraced phase did not reach; they are compared with a
	// reference handler after the phase, outside the timed loop.
	unmatched := make([][]opDigest, cfg.clients)
	for c := range rps {
		rps[c] = newReplayer(rig.env, epoch)
	}
	r.traced = closedLoop(cfg.clients, warmOps, cfg.duration(), func(c, i int) opResult {
		req, err := rig.gen(i)
		if err != nil {
			return opResult{class: "select", err: err}
		}
		var body []byte
		res := opResult{class: classOf(req.path)}
		res.ms = timeMS(func() { body, err = rps[c].replay(i, req) })
		if err != nil {
			res.err = err
			return res
		}
		d := digest(body)
		switch want, ok := refs[i]; {
		case !ok:
			unmatched[c] = append(unmatched[c], opDigest{i, d})
		case d != want:
			res.err = fmt.Errorf("replayed %s response for request %d differs from the handler's", req.path, i)
		}
		return res
	})
	if err := matchReference(cfg.seed, setup, unmatched); err != nil {
		r.checkErrs = append(r.checkErrs, err.Error())
	}
	after := rig.env.reg.Snapshot()
	delta := func(n string) float64 { return float64(after[n] - before[n]) }
	hitShare := func(prefix string) float64 {
		h := delta(prefix + ".hits")
		return share(h, h+delta(prefix+".misses"))
	}

	logs := make([]*spanLog, cfg.clients)
	var calls []interval
	var alloc uint64
	flows := 0
	engine := map[*reconstruct.Result]bool{}
	for c, rp := range rps {
		logs[c] = rp.log
		for _, s := range rp.sessions {
			calls = append(calls, s.iv)
			alloc += s.alloc
		}
		flows += rp.flows
		for res := range rp.engine {
			engine[res] = true
		}
	}
	nodes := 0
	for res := range engine {
		nodes += res.Nodes
	}
	lt := aggregate(logs...)
	// Cache.Session fingerprints the instance set before taking its lock:
	// the registry's fingerprint time minus the replay's own FingerprintOf
	// spans is that time, spread evenly over the calls as their lead-in.
	inner := delta("pipeline.fingerprint_ns") - float64(lt.busy["pipeline.fingerprint"])
	leads := make([]int64, len(calls))
	for k := range leads {
		leads[k] = int64(share(max(inner, 0), float64(len(calls))))
	}
	var wait, held int64
	for k, w := range lockWaits(calls, leads) {
		wait += w
		held += calls[k].end - calls[k].start - leads[k] - w
	}
	L := newLayers()
	L["serve.decode_ms"] = ms(lt.busy["serve.decode"])
	L["serve.encode_ms"] = ms(lt.busy["serve.encode"])
	L["serve.self_ms"] = ms(lt.self["serve"])
	L["serve.requests"] = float64(r.traced.attempted)
	L["serve.rejected"] = float64(rejected)
	L["spec.build_ms"] = ms(lt.busy["spec.build"])
	L["spec.flows"] = float64(flows)
	L["pipeline.fingerprint_ms"] = ms(lt.busy["pipeline.fingerprint"])
	L["pipeline.store_get_ms"] = ms(lt.busy["pipeline.store_get"])
	L["pipeline.store_put_ms"] = ms(lt.busy["pipeline.store_put"])
	L["pipeline.store_hit_share"] = hitShare("pipeline.store")
	L["pipeline.session_ms"] = ms(lt.busy["pipeline.session"])
	L["pipeline.session_wait_ms"] = ms(wait)
	L["pipeline.session_hit_share"] = hitShare("pipeline.cache")
	L["pipeline.evictions"] = delta("pipeline.cache.evictions")
	L["pipeline.reconstruct_hit_share"] = hitShare("pipeline.reconstruct")
	L["interleave.build_ms"] = delta("interleave.build_ns") / 1e6
	L["interleave.states"] = delta("interleave.states")
	L["interleave.edges"] = delta("interleave.edges")
	L["interleave.alloc_bytes_per_state"] = share(float64(alloc), delta("interleave.states"))
	L["interleave.count_ms"] = ms(lt.busy["interleave.count"])
	L["core.evaluator_ms"] = max(0, ms(held)-L["interleave.build_ms"])
	for _, m := range []core.Method{core.Exhaustive, core.Knapsack, core.BranchBound, core.Greedy} {
		L["core.select_ms."+m.String()] = ms(lt.busy["core.select."+m.String()])
	}
	L["core.select_runs"] = delta("core.select.runs")
	L["core.gain_evals"] = delta("core.select.gain_evals")
	L["reconstruct.engine_ms"] = ms(lt.busy["reconstruct.engine"])
	L["reconstruct.nodes"] = float64(nodes)
	var self int64
	for _, v := range lt.self {
		self += v
	}
	r.finishTrace(L, self, 1, name, cfg, logs...)
	return nil
}

// opDigest is a replayed op's output digest.
type opDigest struct {
	i int
	d [32]byte
}

// matchReference answers each unmatched request with a fresh handler and
// compares its response with the replay's.
func matchReference(seed int64, setup func(int64) (*serveRig, error), unmatched [][]opDigest) error {
	var ref *serveRig
	for _, ops := range unmatched {
		for _, o := range ops {
			if ref == nil {
				var err error
				if ref, err = setup(seed); err != nil {
					return err
				}
			}
			req, err := ref.gen(o.i)
			if err != nil {
				return err
			}
			code, body := ref.env.call(req.path, req.body)
			if code != 200 || digest(body) != o.d {
				return fmt.Errorf("replayed %s response for request %d differs from the handler's (status %d)", req.path, o.i, code)
			}
		}
	}
	return nil
}
