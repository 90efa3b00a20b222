package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"time"

	"tracescale/internal/core"
	"tracescale/internal/flow"
	"tracescale/internal/obs"
	"tracescale/internal/pipeline"
	"tracescale/internal/reconstruct"
	"tracescale/internal/serve"
	"tracescale/internal/spec"
)

// traceserved's defaults.
const (
	sessionCacheCap = 64
	resultStoreCap  = 512
	requestTimeout  = 30 * time.Second
)

// serveEnv is the state behind one handler: session cache, result store
// and obs registry, configured as traceserved configures them.
type serveEnv struct {
	reg   *obs.Registry
	cache *pipeline.Cache
	store *pipeline.ResultStore
	h     *serve.Handler
}

func newServeEnv() (*serveEnv, error) {
	reg := obs.NewRegistry()
	store, err := pipeline.NewResultStore(reg, resultStoreCap, "")
	if err != nil {
		return nil, err
	}
	cache := pipeline.NewCacheObs(reg, sessionCacheCap)
	h := serve.NewHandler(serve.Config{
		Cache:          cache,
		Registry:       reg,
		MaxInFlight:    serve.DefaultMaxInFlight,
		MaxBodyBytes:   serve.DefaultMaxBodyBytes,
		RequestTimeout: requestTimeout,
		Store:          store,
		MaxBatch:       serve.DefaultMaxBatch,
	})
	return &serveEnv{reg: reg, cache: cache, store: store, h: h}, nil
}

// call posts body to path through the handler in process.
func (e *serveEnv) call(path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	e.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// classOf is the latency class of a request path.
func classOf(path string) string {
	if path == "/reconstruct" {
		return "reconstruct"
	}
	return "select"
}

// sessionCall is one Cache.Session call of the replay: its interval and
// the bytes it allocated.
type sessionCall struct {
	iv    interval
	alloc uint64
}

// replayer re-executes the handler's steps for a request through the
// layers' public functions — decode, spec.Scenario.Validate and Build,
// pipeline.FingerprintOf, ResultStore.Get and Put, Cache.Session,
// Session.SelectContext and Reconstruct, the response encode — with a span
// around each call. One replayer serves one client; clients share env.
type replayer struct {
	env      *serveEnv
	log      *spanLog
	sessions []sessionCall
	flows    int
	// engine holds each reconstruction result the replay received; a
	// memoized result comes back as the same pointer, so the distinct
	// pointers are the engine runs.
	engine map[*reconstruct.Result]bool
}

func newReplayer(env *serveEnv, epoch time.Time) *replayer {
	return &replayer{env: env, log: newSpanLog(epoch), engine: map[*reconstruct.Result]bool{}}
}

// heapAllocs is the cumulative bytes allocated by the process.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// decodeStrict mirrors the handler's body decoding.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decoding request: %w", err)
	}
	return nil
}

// encodeIndented mirrors the handler's response encoding.
func encodeIndented(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // writes to a bytes.Buffer cannot fail
	return buf.Bytes()
}

// optionsConfig mirrors how the handler resolves request options.
func optionsConfig(o serve.Options, scenarioWidth int) (core.Config, error) {
	cfg := core.Config{
		BufferWidth:    scenarioWidth,
		DisablePacking: o.NoPack,
		MaxCandidates:  o.MaxCandidates,
		Workers:        o.Workers,
		KeepCandidates: o.KeepCandidates,
	}
	if o.Width > 0 {
		cfg.BufferWidth = o.Width
	}
	var err error
	cfg.Method, err = core.ParseMethod(o.Method)
	return cfg, err
}

// responseOf mirrors the handler's rendering of a selection result.
func responseOf(scenario string, cfg core.Config, res *core.Result) *serve.Response {
	resp := &serve.Response{
		Scenario:         scenario,
		Method:           cfg.Method.String(),
		BufferWidth:      cfg.BufferWidth,
		Selected:         res.Selected,
		Width:            res.Width,
		Utilization:      res.Utilization,
		Gain:             res.Gain,
		Coverage:         res.Coverage,
		SelectedGain:     res.SelectedGain,
		SelectedCoverage: res.SelectedCoverage,
		SelectedWidth:    res.SelectedWidth,
	}
	for _, g := range res.Packed {
		resp.Packed = append(resp.Packed, serve.PackedGroup{Message: g.Message, Group: g.Group, Width: g.Width})
	}
	for _, c := range res.Candidates {
		resp.Candidates = append(resp.Candidates, serve.Candidate{Messages: c.Messages, Width: c.Width, Gain: c.Gain, Coverage: c.Coverage})
	}
	return resp
}

// replay answers one request as the handler would and returns the
// response body.
func (rp *replayer) replay(op int, req *request) ([]byte, error) {
	root := rp.log.begin("serve", op, -1)
	defer rp.log.end(root)
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	switch req.path {
	case "/select":
		return rp.selectOne(ctx, op, root, req.body)
	case "/select/batch":
		return rp.batch(ctx, op, root, req.body)
	default:
		return rp.reconstruct(op, root, req.body)
	}
}

// resolved is a built instance set, its fingerprint and its session.
type resolved struct {
	insts []flow.Instance
	fp    string
	ses   *pipeline.Session
}

// build runs spec.Scenario.Validate and Build, then (unless skipped) the
// fingerprint, each in its span.
func (rp *replayer) build(op, parent int, sc *spec.Scenario, fingerprint bool) (*resolved, error) {
	var r resolved
	var err error
	rp.log.do("spec.build", op, parent, func() {
		if err = sc.Validate(); err == nil {
			r.insts, err = sc.Build()
		}
	})
	rp.flows += len(sc.Flows)
	if err != nil || !fingerprint {
		return &r, err
	}
	rp.log.do("pipeline.fingerprint", op, parent, func() { r.fp = pipeline.FingerprintOf(r.insts, rp.env.reg) })
	return &r, nil
}

// session resolves the instance set's Session once per request.
func (rp *replayer) session(op, parent int, r *resolved) (*pipeline.Session, error) {
	if r.ses != nil {
		return r.ses, nil
	}
	a0 := heapAllocs()
	i := rp.log.begin("pipeline.session", op, parent)
	ses, err := rp.env.cache.Session(r.insts)
	rp.log.end(i)
	s := rp.log.spans[i]
	rp.sessions = append(rp.sessions, sessionCall{iv: interval{s.Start, s.End}, alloc: heapAllocs() - a0})
	r.ses = ses
	return ses, err
}

// selectCfg mirrors the handler's selectOne: store first, then the
// session layer, storing what it computes.
func (rp *replayer) selectCfg(ctx context.Context, op, parent int, r *resolved, cfg core.Config) (*core.Result, error) {
	if err := core.ValidateConfig(cfg); err != nil {
		return nil, err
	}
	var key string
	var res *core.Result
	var hit bool
	rp.log.do("pipeline.store_get", op, parent, func() {
		key = pipeline.StoreKey(r.fp, cfg)
		res, hit = rp.env.store.Get(key)
	})
	if hit {
		return res, nil
	}
	ses, err := rp.session(op, parent, r)
	if err != nil {
		return nil, err
	}
	rp.log.do("core.select."+cfg.Method.String(), op, parent, func() { res, err = ses.SelectContext(ctx, cfg) })
	if err != nil {
		return nil, err
	}
	rp.log.do("pipeline.store_put", op, parent, func() { rp.env.store.Put(key, res) })
	return res, nil
}

func (rp *replayer) selectOne(ctx context.Context, op, root int, body []byte) ([]byte, error) {
	var req serve.Request
	var err error
	rp.log.do("serve.decode", op, root, func() {
		if err = decodeStrict(body, &req); err == nil && req.Width > 0 && req.BufferWidth < 1 {
			req.BufferWidth = req.Width
		}
	})
	if err != nil {
		return nil, err
	}
	cfg, err := optionsConfig(req.Options, req.BufferWidth)
	if err != nil {
		return nil, err
	}
	r, err := rp.build(op, root, &req.Scenario, true)
	if err != nil {
		return nil, err
	}
	res, err := rp.selectCfg(ctx, op, root, r, cfg)
	if err != nil {
		return nil, err
	}
	var out []byte
	rp.log.do("serve.encode", op, root, func() { out = encodeIndented(responseOf(req.Name, cfg, res)) })
	return out, nil
}

func (rp *replayer) batch(ctx context.Context, op, root int, body []byte) ([]byte, error) {
	var breq serve.BatchRequest
	var err error
	rp.log.do("serve.decode", op, root, func() { err = decodeStrict(body, &breq) })
	if err != nil {
		return nil, err
	}
	if len(breq.Batch) == 0 || len(breq.Batch) > serve.DefaultMaxBatch {
		return nil, fmt.Errorf("serve: batch of %d option sets", len(breq.Batch))
	}
	r, err := rp.build(op, root, &breq.Scenario, true)
	if err != nil {
		return nil, err
	}
	items := make([]serve.BatchItem, len(breq.Batch))
	for i, o := range breq.Batch {
		cfg, err := optionsConfig(o, breq.BufferWidth)
		if err == nil {
			var res *core.Result
			if res, err = rp.selectCfg(ctx, op, root, r, cfg); err == nil {
				items[i] = serve.BatchItem{Result: responseOf(breq.Name, cfg, res)}
				continue
			}
		}
		msg := err.Error()
		if errors.Is(err, context.DeadlineExceeded) {
			msg = "serve: selection timed out"
		}
		items[i] = serve.BatchItem{Error: msg}
	}
	var out []byte
	rp.log.do("serve.encode", op, root, func() {
		out = encodeIndented(&serve.BatchResponse{Scenario: breq.Name, Results: items})
	})
	return out, nil
}

func (rp *replayer) reconstruct(op, root int, body []byte) ([]byte, error) {
	var req serve.ReconstructRequest
	var err error
	rp.log.do("serve.decode", op, root, func() { err = decodeStrict(body, &req) })
	if err != nil {
		return nil, err
	}
	mode, err := reconstruct.ParseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	match, err := reconstruct.ParseMatch(req.Match)
	if err != nil {
		return nil, err
	}
	pr := reconstruct.Projection{Traced: req.Traced}
	for _, m := range req.Observed {
		pr.Observed = append(pr.Observed, flow.IndexedMsg{Name: m.Name, Index: m.Index})
	}
	opt := reconstruct.Options{Mode: mode, BeamWidth: req.BeamWidth, Match: match, MaxWitnesses: req.MaxWitnesses}
	r, err := rp.build(op, root, &req.Scenario, false)
	if err != nil {
		return nil, err
	}
	ses, err := rp.session(op, root, r)
	if err != nil {
		return nil, err
	}
	var res *reconstruct.Result
	rp.log.do("reconstruct.engine", op, root, func() { res, err = ses.Reconstruct(pr, opt) })
	if err != nil {
		return nil, err
	}
	rp.engine[res] = true
	var total *big.Int
	rp.log.do("interleave.count", op, root, func() { total = ses.Product().TotalPaths() })
	var out []byte
	rp.log.do("serve.encode", op, root, func() {
		resp := &serve.ReconstructResponse{
			Scenario:   req.Name,
			Mode:       opt.Mode.String(),
			Match:      reconstruct.MatchName(opt.Match),
			Ambiguity:  res.Ambiguity.String(),
			Exact:      res.Exact,
			TotalPaths: total.String(),
			Survivors:  res.Survivors,
			Nodes:      res.Nodes,
		}
		for _, wit := range res.Witnesses {
			rendered := make([]string, len(wit))
			for i, m := range wit {
				rendered[i] = m.String()
			}
			resp.Witnesses = append(resp.Witnesses, rendered)
		}
		out = encodeIndented(resp)
	})
	return out, nil
}

// digest is a response's fingerprint for replay comparison.
func digest(b []byte) [sha256.Size]byte { return sha256.Sum256(b) }
