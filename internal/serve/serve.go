// Package serve exposes the selection pipeline over HTTP: POST /select
// accepts a usage-scenario spec (the spec package's JSON format, inline)
// plus selection options, resolves the scenario through a pipeline session
// cache, and returns the selection Result as JSON. The paper positions
// trace-message selection as pre-silicon collateral computed per usage
// scenario; a long-lived service front-ends that computation so validation
// infrastructure can request selections on demand and repeated scenarios
// hit the session cache instead of re-interleaving.
//
// The handler applies backpressure and cancellation end to end:
//
//   - In-flight selections are bounded by a semaphore; excess requests are
//     rejected immediately with 429 and a Retry-After hint rather than
//     queued, so overload degrades crisply instead of piling up latency.
//   - Request bodies are capped (413 past the limit).
//   - Each selection runs on the request's goroutine under the request
//     context plus an optional server-side timeout; a client that
//     disconnects cancels the underlying core.SelectContext scan (visible
//     as core.select.cancelled in /metrics), and a timeout maps to 504.
//   - Graceful shutdown is the caller's: http.Server.Shutdown drains
//     in-flight handlers, and because every selection hangs off a request
//     context, nothing outlives the drain.
//
// Selections are answered store-first: a content-addressed ResultStore
// (keyed by instance fingerprint + normalized config) is consulted before
// the session layer, so a repeated selection skips the scan entirely.
// POST /select/batch runs many option sets against one scenario in a
// single request, in order; a duplicate config is answered by the store
// entry its first occurrence left, so M distinct configs cost exactly M
// scans.
//
// POST /reconstruct closes the loop on the debug side: given the scenario,
// the traced signal set, and the projection read back from the buffer, it
// answers with the number of executions consistent with the observation
// (exact, or a beam-bounded lower bound), the per-step survivor profile,
// and optionally explicit witness executions. Reconstructions memoize in
// the scenario's pipeline Session, so repeated observations are answered
// from cache.
//
// GET /healthz answers ok; GET /metrics snapshots the handler's obs
// registry as JSON (the same payload the CLIs write via -metrics-json).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"tracescale/internal/core"
	"tracescale/internal/obs"
	"tracescale/internal/pipeline"
	"tracescale/internal/spec"
)

// Options are the selection knobs a request carries alongside its
// scenario — one Step-2 configuration.
type Options struct {
	// Method selects the Step-2 strategy by name (core.ParseMethod);
	// empty means exhaustive.
	Method string `json:"method,omitempty"`
	// Width overrides the scenario's bufferWidth when positive.
	Width int `json:"width,omitempty"`
	// NoPack disables Step-3 subgroup packing.
	NoPack bool `json:"noPack,omitempty"`
	// MaxCandidates bounds exhaustive enumeration (0 = default).
	MaxCandidates int `json:"maxCandidates,omitempty"`
	// Workers is accepted as 0 or 1, which select the same Result: every
	// method searches serially, so workers > 1 is a 422.
	Workers int `json:"workers,omitempty"`
	// KeepCandidates returns every feasible candidate in the response.
	// Only the exhaustive method supports it; any other method rejects the
	// combination with a 422.
	KeepCandidates bool `json:"keepCandidates,omitempty"`
}

// Request is the POST /select body: a scenario spec with selection options
// alongside. Both embedded structs inline their fields, so a scenario
// document exported by tracesel -export-toy / -export-t2 is already a
// valid request body.
type Request struct {
	spec.Scenario
	Options
}

// config resolves the options against the scenario's budget into the core
// Config.
func (o Options) config(scenarioWidth int) (core.Config, error) {
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

// Candidate mirrors core.Candidate with JSON tags.
type Candidate struct {
	Messages []string `json:"messages"`
	Width    int      `json:"width"`
	Gain     float64  `json:"gain"`
	Coverage float64  `json:"coverage"`
}

// PackedGroup mirrors core.PackedGroup with JSON tags.
type PackedGroup struct {
	Message string `json:"message"`
	Group   string `json:"group"`
	Width   int    `json:"width"`
}

// Response is the POST /select reply: the selection Result plus the
// resolved scenario name, method, and budget.
type Response struct {
	Scenario         string        `json:"scenario,omitempty"`
	Method           string        `json:"method"`
	BufferWidth      int           `json:"bufferWidth"`
	Selected         []string      `json:"selected"`
	Packed           []PackedGroup `json:"packed,omitempty"`
	Width            int           `json:"width"`
	Utilization      float64       `json:"utilization"`
	Gain             float64       `json:"gain"`
	Coverage         float64       `json:"coverage"`
	SelectedGain     float64       `json:"selectedGain"`
	SelectedCoverage float64       `json:"selectedCoverage"`
	SelectedWidth    int           `json:"selectedWidth"`
	Candidates       []Candidate   `json:"candidates,omitempty"`
}

// BatchRequest is the POST /select/batch body: one scenario (inline, as in
// Request) selected under every option set in Batch.
type BatchRequest struct {
	spec.Scenario
	Batch []Options `json:"batch"`
}

// BatchItem is one batch entry's outcome: exactly one of Result or Error.
type BatchItem struct {
	Result *Response `json:"result,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// BatchResponse is the POST /select/batch reply; Results is index-aligned
// with the request's Batch.
type BatchResponse struct {
	Scenario string      `json:"scenario,omitempty"`
	Results  []BatchItem `json:"results"`
}

// errorBody is every non-200 JSON payload.
type errorBody struct {
	Error string `json:"error"`
}

// Config parameterizes the handler.
type Config struct {
	// Cache resolves scenarios to Sessions; nil gets a private unbounded
	// cache observed by Registry.
	Cache *pipeline.Cache
	// Registry records serve.* metrics and backs /metrics. Nil is a no-op
	// (the obs contract), leaving /metrics an empty object.
	Registry *obs.Registry
	// MaxInFlight bounds concurrent selections; excess POSTs get 429.
	// Zero or negative means DefaultMaxInFlight.
	MaxInFlight int
	// MaxBodyBytes caps the request body; zero means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// RequestTimeout bounds each selection beyond the client's own
	// cancellation; zero means no server-side timeout.
	RequestTimeout time.Duration
	// Store answers selections content-addressed before the session layer;
	// nil gets a private in-memory store observed by Registry.
	Store *pipeline.ResultStore
	// MaxBatch caps the option sets per /select/batch request; zero means
	// DefaultMaxBatch.
	MaxBatch int
}

// Defaults for Config zero values.
const (
	DefaultMaxInFlight  = 4
	DefaultMaxBodyBytes = 1 << 20
	DefaultMaxBatch     = 64
	defaultStoreCap     = 512
)

// Handler serves the selection API. Create one with NewHandler.
type Handler struct {
	cache    *pipeline.Cache
	reg      *obs.Registry
	sem      chan struct{}
	maxBody  int64
	timeout  time.Duration
	mux      *http.ServeMux
	inflight *obs.Gauge
	store    *pipeline.ResultStore
	maxBatch int
}

// NewHandler builds the http.Handler for the selection service.
func NewHandler(cfg Config) *Handler {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Cache == nil {
		cfg.Cache = pipeline.NewCacheObs(cfg.Registry, 0)
	}
	if cfg.Store == nil {
		// The only error is a non-empty dir, which this call does not pass.
		cfg.Store, _ = pipeline.NewResultStore(cfg.Registry, defaultStoreCap, "")
	}
	h := &Handler{
		cache:    cfg.Cache,
		reg:      cfg.Registry,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		maxBody:  cfg.MaxBodyBytes,
		timeout:  cfg.RequestTimeout,
		mux:      http.NewServeMux(),
		inflight: cfg.Registry.Gauge("serve.inflight"),
		store:    cfg.Store,
		maxBatch: cfg.MaxBatch,
	}
	h.mux.HandleFunc("/select", h.handleSelect)
	h.mux.HandleFunc("/select/batch", h.handleBatch)
	h.mux.HandleFunc("/reconstruct", h.handleReconstruct)
	h.mux.HandleFunc("/healthz", h.handleHealthz)
	h.mux.HandleFunc("/metrics", h.handleMetrics)
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := h.reg.WriteJSON(w); err != nil {
		h.reg.Counter("serve.metrics_write_errors").Inc()
	}
}

// writeJSON sends one JSON payload with the given status. The encoder's
// trailing newline makes responses byte-stable for golden tests.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

func (h *Handler) fail(w http.ResponseWriter, status int, err error) {
	h.reg.Counter(fmt.Sprintf("serve.status_%d", status)).Inc()
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// acquire claims one in-flight slot, failing the request with 429 when the
// handler is saturated. Callers must invoke the release func (once) iff
// ok.
func (h *Handler) acquire(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case h.sem <- struct{}{}:
		h.inflight.Max(int64(len(h.sem)))
		return func() {
			<-h.sem
			h.inflight.Set(int64(len(h.sem)))
		}, true
	default:
		w.Header().Set("Retry-After", "1")
		h.fail(w, http.StatusTooManyRequests, errors.New("serve: selection capacity saturated"))
		return nil, false
	}
}

// requestCtx applies the server-side timeout, when configured.
func (h *Handler) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if h.timeout > 0 {
		return context.WithTimeout(r.Context(), h.timeout)
	}
	return r.Context(), func() {}
}

// selectOne answers one resolved selection: store first, then the session
// layer's memo, storing what it computes. The Session is resolved lazily
// through sesOnce, so a pure store hit never pays the analysis.
func (h *Handler) selectOne(ctx context.Context, cfg core.Config, sesOnce *sessionOnce) (*core.Result, error) {
	if err := core.ValidateConfig(cfg); err != nil {
		return nil, err
	}
	key := pipeline.StoreKey(sesOnce.fp, cfg)
	if res, ok := h.store.Get(key); ok {
		return res, nil
	}
	ses, err := sesOnce.resolve()
	if err != nil {
		return nil, err
	}
	res, err := ses.SelectContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	h.store.Put(key, res)
	return res, nil
}

// sessionOnce resolves a scenario's Session at most once per request, and
// only when some selection actually misses the store. fp is the instance
// set's content fingerprint, computed eagerly because every store key
// needs it. A request resolves its selections one at a time, so no lock
// guards the fields.
type sessionOnce struct {
	fp string

	done bool
	ses  *pipeline.Session
	err  error
	get  func() (*pipeline.Session, error)
}

func (s *sessionOnce) resolve() (*pipeline.Session, error) {
	if !s.done {
		s.ses, s.err = s.get()
		s.done = true
	}
	return s.ses, s.err
}

func (h *Handler) handleSelect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		h.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s not allowed, POST a scenario", r.Method))
		return
	}
	h.reg.Counter("serve.requests").Inc()

	// Backpressure first: reject before reading the body so an overloaded
	// server sheds load at the cheapest possible point.
	release, ok := h.acquire(w)
	if !ok {
		return
	}
	defer release()

	req, err := decodeRequest(w, r, h.maxBody)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		h.fail(w, status, err)
		return
	}
	cfg, err := req.Options.config(req.BufferWidth)
	if err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}
	insts, err := req.Scenario.Build()
	if err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := h.requestCtx(r)
	defer cancel()

	sesOnce := &sessionOnce{
		fp:  pipeline.FingerprintOf(insts, h.reg),
		get: func() (*pipeline.Session, error) { return h.cache.Session(insts) },
	}
	start := time.Now()
	res, err := h.selectOne(ctx, cfg, sesOnce)
	h.reg.Add("serve.select_ns", time.Since(start).Nanoseconds())
	if err != nil {
		h.failSelect(w, err)
		return
	}

	h.reg.Counter("serve.ok").Inc()
	writeJSON(w, http.StatusOK, buildResponse(req.Name, cfg, res))
}

// failSelect maps a selection error to its status: 504 for the server-side
// deadline, silent accounting for a vanished client, 422 otherwise.
func (h *Handler) failSelect(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		h.fail(w, http.StatusGatewayTimeout, errors.New("serve: selection timed out"))
	case errors.Is(err, context.Canceled):
		// The client hung up; there is nobody to answer, but the abort
		// must still be visible in the metrics.
		h.reg.Counter("serve.client_gone").Inc()
	default:
		h.fail(w, http.StatusUnprocessableEntity, err)
	}
}

// selectErrString is failSelect for batch items, where errors are carried
// per item instead of failing the response.
func selectErrString(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "serve: selection timed out"
	}
	return err.Error()
}

func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		h.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s not allowed, POST a scenario with a batch", r.Method))
		return
	}
	h.reg.Counter("serve.batch.requests").Inc()

	release, ok := h.acquire(w)
	if !ok {
		return
	}
	defer release()

	var breq BatchRequest
	if err := decodeInto(w, r, h.maxBody, &breq); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		h.fail(w, status, err)
		return
	}
	if err := breq.Scenario.Validate(); err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}
	if len(breq.Batch) == 0 {
		h.fail(w, http.StatusBadRequest, errors.New("serve: empty batch"))
		return
	}
	if len(breq.Batch) > h.maxBatch {
		h.fail(w, http.StatusBadRequest, fmt.Errorf("serve: batch of %d exceeds the %d-item cap", len(breq.Batch), h.maxBatch))
		return
	}
	insts, err := breq.Scenario.Build()
	if err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := h.requestCtx(r)
	defer cancel()

	sesOnce := &sessionOnce{
		fp:  pipeline.FingerprintOf(insts, h.reg),
		get: func() (*pipeline.Session, error) { return h.cache.Session(insts) },
	}
	// Items run in order: a duplicate config is answered by the store entry
	// its first occurrence left, so a batch with M distinct configs costs
	// exactly M scans no matter how many duplicates ride along
	// (core.select.runs pins this).
	items := make([]BatchItem, len(breq.Batch))
	for i, o := range breq.Batch {
		cfg, err := o.config(breq.BufferWidth)
		if err == nil {
			var res *core.Result
			if res, err = h.selectOne(ctx, cfg, sesOnce); err == nil {
				items[i] = BatchItem{Result: buildResponse(breq.Name, cfg, res)}
				continue
			}
		}
		items[i] = BatchItem{Error: selectErrString(err)}
		h.reg.Counter("serve.batch.item_errors").Inc()
	}
	h.reg.Add("serve.batch.items", int64(len(items)))
	h.reg.Counter("serve.ok").Inc()
	writeJSON(w, http.StatusOK, &BatchResponse{Scenario: breq.Name, Results: items})
}

// decodeInto reads one capped, strictly-validated JSON body into v.
func decodeInto(w http.ResponseWriter, r *http.Request, maxBody int64, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decoding request: %w", err)
	}
	return nil
}

// decodeRequest reads one capped, strictly-validated request body.
func decodeRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (*Request, error) {
	var req Request
	if err := decodeInto(w, r, maxBody, &req); err != nil {
		return nil, err
	}
	// Width can stand in for bufferWidth, so validate after the override.
	if req.Width > 0 && req.BufferWidth < 1 {
		req.BufferWidth = req.Width
	}
	if err := req.Scenario.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func buildResponse(scenario string, cfg core.Config, res *core.Result) *Response {
	resp := &Response{
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
		resp.Packed = append(resp.Packed, PackedGroup{Message: g.Message, Group: g.Group, Width: g.Width})
	}
	for _, c := range res.Candidates {
		resp.Candidates = append(resp.Candidates, Candidate{Messages: c.Messages, Width: c.Width, Gain: c.Gain, Coverage: c.Coverage})
	}
	return resp
}
