// Package server implements rcserved's HTTP/JSON service layer: a
// multi-tenant problem registry (PUT/GET/DELETE /v1/problems/{name}
// loading probjson documents under a resident-bytes cap), a decide
// endpoint running the engine's deciders under per-request deadlines
// and budgets, and a bounded admission controller in front of them.
// The handlers live behind a plain http.Handler so every path is
// unit-testable without a socket; cmd/rcserved wires the handler to a
// listener, the debug mux and the signal-driven drain.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"relcomplete/internal/core"
	"relcomplete/internal/durable"
	"relcomplete/internal/eval"
	"relcomplete/internal/fault"
	"relcomplete/internal/obs"
	"relcomplete/internal/query"
)

// Config tunes one Server.
type Config struct {
	// Workers feeds Options.Parallelism of every loaded problem whose
	// document does not pin its own (0 = GOMAXPROCS). Total decider
	// threads ≈ MaxConcurrent × Workers; size them together.
	Workers int
	// MaxConcurrent is the admission concurrency cap: how many decide
	// calls run at once (default 4).
	MaxConcurrent int
	// MaxQueue is the bounded admission queue depth; a request beyond
	// MaxConcurrent+MaxQueue is answered 429 (default 64).
	MaxQueue int
	// MaxResidentBytes caps the registry's total raw-document bytes,
	// evicting least-recently-used problems (default 256 MiB; < 0 =
	// unlimited).
	MaxResidentBytes int64
	// MaxBodyBytes caps one PUT body (default 32 MiB).
	MaxBodyBytes int64
	// DefaultTimeout bounds a decide with no timeout_ms of its own
	// (default 30s); MaxTimeout caps what a request may ask for
	// (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Metrics receives the solver and server counters (nil = fresh).
	Metrics *obs.Metrics
	// FaultPlan arms the deterministic fault-injection harness on every
	// loaded problem — chaos tests only, nil always in production.
	FaultPlan *fault.Plan
	// Logger receives the structured decision log (one JSON line per
	// decide: trace_id, problem, decider, verdict, queue wait, wall,
	// outcome kind) and the warn-level operational events (registry
	// eviction, admission overflow). nil disables logging.
	Logger *slog.Logger
	// SlowOpThreshold arms the slow-op dump on every loaded problem: a
	// decider call exceeding it writes an incident record carrying the
	// request's trace id, the call's span tree from the request's span
	// recorder, and the request's histograms to SlowOpSink (default
	// os.Stderr). 0 disables.
	SlowOpThreshold time.Duration
	SlowOpSink      io.Writer
	// RequestRingSize bounds the /debug/requests recent-request ring
	// (0 = DefaultRequestRing).
	RequestRingSize int
	// Durable, when non-nil, write-ahead-logs every registry mutation
	// and gates /readyz on the log's health. The server starts not
	// ready; the caller replays recovered records with Restore, which
	// flips readiness (rcserved does this between Open and serving).
	Durable *durable.Log
	// QueueTarget arms delay-based admission shedding: new decide
	// requests are rejected 429 while the median recent queue wait
	// exceeds it. 0 leaves only the hard queue cap.
	QueueTarget time.Duration
	// Tenant configures per-problem rate limiting and circuit breaking
	// (zero value: both off).
	Tenant TenantLimits
}

func (c *Config) fill() {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxResidentBytes == 0 {
		c.MaxResidentBytes = 256 << 20
	} else if c.MaxResidentBytes < 0 {
		c.MaxResidentBytes = 0 // registry's "unlimited"
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Server is the service layer: registry + admission + handlers.
type Server struct {
	cfg       Config
	metrics   *obs.Metrics
	logger    *slog.Logger
	registry  *Registry
	admission *Admission
	tenants   *Tenants // nil: per-tenant governance off
	requests  *RequestRing
	mux       *http.ServeMux
	draining  chan struct{} // closed when the drain begins
	// ready flips once recovery replay (Restore) has completed — or
	// immediately, when the server has no durability. /readyz gates on
	// it so a load balancer never routes to a half-recovered registry.
	ready atomic.Bool

	// Per-tenant attribution families on the server-wide metrics:
	// unlike the unlabelled samples (which keep their PR-6 semantics),
	// these count every terminal decide outcome after decode — an
	// overloaded or timed-out request is attributed to its problem and
	// decider too, which is what makes 429s and 408s explicable per
	// tenant from /metrics alone.
	decideVec *obs.CounterVec
	wallVec   *obs.HistogramVec
}

// New builds a server from cfg (zero fields take the documented
// defaults).
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		metrics:  cfg.Metrics,
		logger:   cfg.Logger,
		requests: NewRequestRing(cfg.RequestRingSize),
		draining: make(chan struct{}),
	}
	s.decideVec = cfg.Metrics.LabeledCounter(obs.ServerDecides, "problem", "decider", "outcome")
	s.wallVec = cfg.Metrics.LabeledHisto(obs.DeciderWallNs, "problem")
	base := func() core.Options {
		return core.Options{
			Parallelism:     cfg.Workers,
			Obs:             cfg.Metrics,
			SlowOpThreshold: cfg.SlowOpThreshold,
			SlowOpSink:      cfg.SlowOpSink,
			FaultPlan:       cfg.FaultPlan,
		}
	}
	s.registry = NewRegistry(cfg.MaxResidentBytes, base, cfg.Metrics)
	s.registry.SetLogger(cfg.Logger)
	s.admission = NewAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.Metrics)
	s.admission.SetLogger(cfg.Logger)
	s.admission.SetTarget(cfg.QueueTarget)
	s.tenants = NewTenants(cfg.Tenant, cfg.Metrics, cfg.Logger)
	if cfg.Durable != nil {
		s.registry.AttachDurable(cfg.Durable)
		// Not ready until the caller replays recovery with Restore.
	} else {
		s.ready.Store(true)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/problems", s.handleList)
	mux.HandleFunc("PUT /v1/problems/{name}", s.handlePut)
	mux.HandleFunc("GET /v1/problems/{name}", s.handleGetInfo)
	mux.HandleFunc("DELETE /v1/problems/{name}", s.handleDelete)
	mux.HandleFunc("POST /v1/problems/{name}/decide", s.handleDecide)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/plans", s.handleDebugPlans)
	s.mux = mux
	return s
}

// handleDebugPlans serves the top-K-slowest-plans profile across every
// resident problem: each problem's sampled plan-profile registry
// (eval.ProfileRegistry, fed by the plan executor whenever metrics are
// on) is snapshotted, tagged with the problem name and merged into one
// ranking by estimated total wall time. ?k= bounds the result
// (default 10).
func (s *Server) handleDebugPlans(w http.ResponseWriter, r *http.Request) {
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, KindBadRequest, "k must be a positive integer")
			return
		}
		k = n
	}
	plans := []eval.PlanProfileStat{} // non-nil: the endpoint always serves an array
	for _, e := range s.registry.Entries() {
		for _, st := range e.Problem.PlanProfiles().Top(k) {
			st.Problem = e.Name
			plans = append(plans, st)
		}
	}
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].EstWallMS > plans[j].EstWallMS })
	if len(plans) > k {
		plans = plans[:k]
	}
	writeJSON(w, http.StatusOK, map[string]any{"plans": plans})
}

// Requests exposes the recent-request ring (tests, introspection).
func (s *Server) Requests() *RequestRing { return s.requests }

// Registry exposes the problem store (tests, introspection).
func (s *Server) Registry() *Registry { return s.registry }

// Admission exposes the admission controller (tests, introspection).
func (s *Server) Admission() *Admission { return s.admission }

// Restore replays recovered durable records into the registry (no
// re-logging) and flips the server ready. rcserved calls it between
// durable.Open and serving; harmless with an empty record set.
func (s *Server) Restore(recs []durable.Record) (applied, skipped int) {
	applied, skipped = s.registry.Restore(recs)
	s.ready.Store(true)
	return applied, skipped
}

// SnapshotNow folds the resident registry state into a durable
// snapshot (no-op without durability). rcserved calls it on a timer
// and once at drain.
func (s *Server) SnapshotNow() error { return s.registry.SnapshotNow() }

// Metrics exposes the server-wide solver metrics.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// StartDrain flips the server into draining mode: /healthz turns 503
// so load balancers stop routing here, while in-flight (and already
// accepted) requests run to completion under httpx.Server.Drain.
// Idempotent.
func (s *Server) StartDrain() {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
}

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// ServeHTTP dispatches to the /v1 handlers, counting every API request.
// Each request runs under a root span: one already on the context
// (httpx.AccessLog upstream) is reused, otherwise the server opens its
// own, adopting the client's traceparent header and echoing the
// request identity back in a traceparent response header — so a bare
// Server (no middleware) still yields correlated traces.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.Inc(obs.ServerRequests)
	if obs.SpanFromContext(r.Context()) == nil {
		root := obs.NewSpanRecorder(0).Root(r.Method+" "+r.URL.Path, r.Header.Get("traceparent"))
		defer root.End()
		w.Header().Set("traceparent", root.Traceparent())
		r = r.WithContext(obs.ContextWithSpan(r.Context(), root))
	}
	s.mux.ServeHTTP(w, r)
}

// nameRE keeps problem names URL- and log-friendly.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,128}$`)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Kind: kind})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, KindDraining, "draining: not accepting new work")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"problems":       s.registry.Len(),
		"resident_bytes": s.registry.ResidentBytes(),
		"in_flight":      s.admission.InFlight(),
		"queued":         s.admission.Queued(),
	})
}

// handleReadyz is the readiness probe, distinct from /healthz's
// liveness: not ready until recovery replay has completed, not ready
// once draining has begun, and not ready while the write-ahead log
// cannot commit (a registry that cannot durably acknowledge mutations
// must stop advertising itself). Load balancers route on this;
// /healthz only says the process is alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.Draining():
		writeError(w, http.StatusServiceUnavailable, KindDraining, "draining: not accepting new work")
	case !s.ready.Load():
		writeError(w, http.StatusServiceUnavailable, KindNotReady, "recovery replay not yet complete")
	case s.cfg.Durable != nil && !s.cfg.Durable.Healthy():
		writeError(w, http.StatusServiceUnavailable, KindStorage,
			"write-ahead log cannot commit; restart to recover")
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ready",
			"problems": s.registry.Len(),
			"durable":  s.cfg.Durable != nil,
		})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListResponse{
		Problems:      s.registry.List(),
		ResidentBytes: s.registry.ResidentBytes(),
	})
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !nameRE.MatchString(name) {
		writeError(w, http.StatusBadRequest, KindBadRequest,
			"problem name must match [A-Za-z0-9._-]{1,128}")
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, KindTooLarge, err.Error())
		} else {
			writeError(w, http.StatusBadRequest, KindBadRequest, err.Error())
		}
		return
	}
	e, replaced, err := s.registry.Put(name, raw)
	if err != nil {
		status, kind := http.StatusBadRequest, KindBadRequest
		var tooLarge *ErrTooLarge
		switch {
		case errors.As(err, &tooLarge):
			status, kind = http.StatusRequestEntityTooLarge, KindTooLarge
		case errors.Is(err, durable.ErrIO):
			// The WAL refused the commit: the mutation did not happen and
			// was not acknowledged. 503 tells the client to retry
			// elsewhere (or after a restart), not that its document is bad.
			status, kind = http.StatusServiceUnavailable, KindStorage
		}
		writeError(w, status, kind, err.Error())
		return
	}
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, PutResponse{
		Name:          e.Name,
		Bytes:         e.Bytes,
		Replaced:      replaced,
		ResidentBytes: s.registry.ResidentBytes(),
		Problems:      s.registry.Len(),
	})
}

func (s *Server) handleGetInfo(w http.ResponseWriter, r *http.Request) {
	e, ok := s.registry.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, KindNotFound, "no such problem")
		return
	}
	writeJSON(w, http.StatusOK, e.info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ok, err := s.registry.Delete(name)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, KindStorage, err.Error())
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, KindNotFound, "no such problem")
		return
	}
	s.tenants.Forget(name)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	began := time.Now()
	root := obs.SpanFromContext(r.Context())
	var traceID string
	if t := root.Trace(); !t.IsZero() {
		traceID = t.String()
	}
	wantTrace := r.URL.Query().Get("trace") == "1"

	resp := DecideResponse{Problem: name, TraceID: traceID}
	var req DecideRequest
	var queueWait, wall time.Duration
	ran := false // a decider actually executed (wall is meaningful)
	// view is the decide's request-scoped metrics: what this decide
	// recorded, and all its stats report. nil (empty stats) until the
	// request reaches runDecide.
	var view *obs.Metrics

	// finish is the single exit: per-tenant labelled metrics, the
	// structured decision log, the /debug/requests ring record, the
	// optional ?trace=1 span tree, and the response itself.
	finish := func(status int) {
		decider := req.Property
		if resp.Model != "" {
			decider += "_" + resp.Model
		}
		outcome := resp.Kind
		if outcome == "" {
			outcome = "ok"
		}
		if req.Property != "" {
			s.decideVec.Inc(name, decider, outcome)
		}
		if ran {
			// The per-tenant wall series carries the request's trace id
			// as its bucket exemplar in the OpenMetrics exposition.
			s.wallVec.ObserveExemplar(wall.Nanoseconds(), traceID, name)
		}
		var spans []obs.SpanData
		var spansDropped int64
		if rec := root.Recorder(); rec != nil {
			spans = rec.Spans()
			spansDropped = rec.Dropped()
		}
		if wantTrace {
			resp.Trace = &TraceInfo{TraceID: traceID, Spans: spans, Dropped: spansDropped}
		}
		resp.QueueWaitMS = float64(queueWait.Nanoseconds()) / 1e6
		resp.Stats = view.Snapshot()
		s.requests.Add(RequestRecord{
			Time:         began,
			TraceID:      traceID,
			Problem:      name,
			Property:     req.Property,
			Decider:      decider,
			Status:       status,
			Kind:         resp.Kind,
			Verdict:      resp.Verdict,
			QueueWaitMS:  resp.QueueWaitMS,
			WallMS:       float64(wall.Nanoseconds()) / 1e6,
			Spans:        spans,
			SpansDropped: spansDropped,
		})
		if s.logger != nil {
			verdict := "unknown"
			if resp.Verdict != nil {
				verdict = fmt.Sprintf("%t", *resp.Verdict)
			}
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "decide",
				slog.String("trace_id", traceID),
				slog.String("problem", name),
				slog.String("decider", decider),
				slog.String("verdict", verdict),
				slog.String("outcome", outcome),
				slog.Int("status", status),
				slog.Float64("queue_wait_ms", resp.QueueWaitMS),
				slog.Float64("wall_ms", float64(wall.Nanoseconds())/1e6),
				slog.Int64("spans_dropped", spansDropped),
			)
		}
		if resp.RetryAfterMS > 0 {
			w.Header().Set("Retry-After",
				fmt.Sprintf("%d", (resp.RetryAfterMS+999)/1000))
		}
		writeJSON(w, status, resp)
	}
	fail := func(status int, kind string, err error) {
		resp.Kind = kind
		resp.decorate(err)
		finish(status)
	}

	// Decide bodies are bounded like PUT bodies: a decide carrying a
	// multi-gigabyte query override must die at the transport, not in
	// the JSON decoder's allocator.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			fail(http.StatusRequestEntityTooLarge, KindTooLarge, fmt.Errorf("decide request: %w", err))
			return
		}
		fail(http.StatusBadRequest, KindBadRequest, fmt.Errorf("decide request: %w", err))
		return
	}
	resp.Property = req.Property
	e, ok := s.registry.Get(name)
	if !ok {
		fail(http.StatusNotFound, KindNotFound, fmt.Errorf("no such problem %q", name))
		return
	}

	// Per-tenant gate: this problem's circuit breaker and token bucket.
	// Checked before admission so a rate-limited or broken tenant never
	// consumes a queue position other tenants could use.
	if err := s.tenants.Admit(name); err != nil {
		status, kind := classify(err)
		fail(status, kind, err)
		return
	}

	// Admission: claim a decide slot (bounded queue, 429 past it). The
	// request context cancels a queued wait on client disconnect.
	qStart := time.Now()
	release, err := s.admission.Acquire(r.Context())
	queueWait = time.Since(qStart)
	if err != nil {
		status, kind := classify(err)
		fail(status, kind, err)
		return
	}
	defer release()
	s.metrics.Inc(obs.ServerDecides)

	// The decide executes under pprof labels, so a CPU (or goroutine)
	// profile taken from /debug/pprof segments samples by tenant,
	// decider and request trace — goroutines the deciders spawn inherit
	// the label set.
	start := time.Now()
	var result decideResult
	view = obs.NewMetrics()
	pprof.Do(r.Context(), pprof.Labels(
		"problem", name,
		"decider", req.Property,
		"trace_id", traceID,
	), func(ctx context.Context) {
		result, err = s.runDecide(ctx, e, &req, view)
	})
	wall = time.Since(start)
	ran = true
	resp.Model = result.Model
	resp.ElapsedMS = float64(wall.Microseconds()) / 1000
	if err != nil {
		status, kind := classify(err)
		// The breaker counts only failures the server blames on itself:
		// panics, injected faults and internal errors. Deadlines, budget
		// expiries and undecidable fragments are the tenant asking hard
		// questions, not the tenant breaking the server.
		s.tenants.Observe(name, kind == KindPanic || kind == KindInjected || kind == KindInternal)
		fail(status, kind, err)
		return
	}
	s.tenants.Observe(name, false)
	resp.Verdict = result.Verdict
	resp.Counterexample = result.Counterexample
	resp.CertainAnswers = result.CertainAnswers
	finish(http.StatusOK)
}

// decideResult is runDecide's payload, separate from the wire DTO so
// the handler owns status codes and stats.
type decideResult struct {
	Model          string
	Verdict        *bool
	Counterexample string
	CertainAnswers []string
}

// badRequestError marks client-side decide failures (unknown property,
// bad model, unparsable query override).
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// panicError is a decide panic contained at the service boundary. The
// parallel searches already recover probe panics into typed errors
// (search.PanicError); sequential decider paths let them propagate by
// design, and here — one layer before the connection — is where a
// serving process must stop them: the request answers 500 with a typed
// body instead of an aborted response, and the daemon lives on.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("decide panicked: %v", e.val)
}

// runDecide resolves the problem, installs the request-scoped metrics
// view and budgets on it, applies the deadline and dispatches the
// property. Every decide runs on the resident master data, CCs and
// c-instance. Everything the decide records lands in view, which is
// folded into the server totals when runDecide returns.
func (s *Server) runDecide(ctx context.Context, e *Entry, req *DecideRequest, view *obs.Metrics) (res decideResult, err error) {
	defer s.metrics.Merge(view)
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	p := e.Problem
	if req.Query != "" {
		// A query override gets a problem of its own over the resident
		// inputs: the resident memo's plan, tableaux and domains derive
		// from the resident query.
		q, err := query.ParseQuery(req.Query)
		if err != nil {
			return res, &badRequestError{msg: fmt.Sprintf("query: %v", err)}
		}
		if p, err = core.NewProblem(p.Schema, core.CalcQuery(q), p.Master, p.CCs, p.Options); err != nil {
			return res, &badRequestError{msg: err.Error()}
		}
	}
	opts := req.Budget.apply(p.Options)
	opts.Obs = view
	p = p.WithOptions(opts)
	ci := e.CInstance

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	model := core.Strong
	switch req.Property {
	case "rcdp", "rcqp", "minp":
		switch req.Model {
		case "", "strong":
			model = core.Strong
		case "weak":
			model = core.Weak
		case "viable":
			model = core.Viable
		default:
			return res, &badRequestError{msg: fmt.Sprintf("unknown model %q", req.Model)}
		}
		res.Model = model.String()
	}

	verdict := func(v bool) { res.Verdict = &v }
	switch req.Property {
	case "consistency":
		ok, err := p.ConsistentCtx(ctx, ci)
		if err != nil {
			return res, err
		}
		verdict(ok)
	case "extensibility":
		db, err := p.AnyModelCtx(ctx, ci)
		if err != nil {
			return res, err
		}
		if db == nil {
			return res, core.ErrInconsistent
		}
		ok, err := p.ExtensibleCtx(ctx, db)
		if err != nil {
			return res, err
		}
		verdict(ok)
	case "rcdp":
		ok, cex, err := p.RCDPExplainCtx(ctx, ci, model)
		if err != nil {
			return res, err
		}
		verdict(ok)
		if !ok && cex != nil {
			res.Counterexample = cex.String()
		}
	case "rcqp":
		ok, err := p.RCQPCtx(ctx, model)
		if err != nil {
			return res, err
		}
		verdict(ok)
	case "minp":
		ok, err := p.MINPCtx(ctx, ci, model)
		if err != nil {
			return res, err
		}
		verdict(ok)
	case "certain":
		ans, err := p.CertainAnswersCtx(ctx, ci)
		if err != nil {
			return res, err
		}
		res.CertainAnswers = []string{}
		for _, t := range ans {
			res.CertainAnswers = append(res.CertainAnswers, t.String())
		}
	default:
		return res, &badRequestError{msg: fmt.Sprintf("unknown property %q", req.Property)}
	}
	return res, nil
}
