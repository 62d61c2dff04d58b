// Request/response DTOs of the /v1 API and the mapping from the
// engine's typed errors to HTTP statuses. The decide response carries
// the same verdict + stats shape as rcheck -json, so a client can move
// between the CLI and the service without re-parsing.
package server

import (
	"errors"
	"net/http"
	"time"

	"relcomplete/internal/core"
	"relcomplete/internal/durable"
	"relcomplete/internal/fault"
	"relcomplete/internal/obs"
	"relcomplete/internal/search"
)

// DecideRequest is the POST /v1/problems/{name}/decide body.
type DecideRequest struct {
	// Property selects the decision problem: consistency,
	// extensibility, rcdp, rcqp, minp or certain.
	Property string `json:"property"`
	// Model is the completeness model for rcdp/rcqp/minp:
	// strong (default), weak or viable.
	Model string `json:"model,omitempty"`
	// Query, when set, overrides the loaded document's calculus query
	// for this request only (the resident problem is untouched). The
	// decide runs on a problem of its own over the resident master
	// data, CCs and c-instance, so it pays the query's plan compilation
	// and domains once per request.
	Query string `json:"query,omitempty"`
	// TimeoutMS bounds the decision; expiry answers 408 with a deadline
	// object. 0 means the server's default timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Budget, when set, overrides the document's enumeration caps for
	// this request only. Without a query override the decide runs on a
	// view of the resident problem (core.Problem.WithOptions), which
	// shares its warm derived state; the outcome, budget errors
	// included, is the one a cold problem would give.
	Budget *BudgetRequest `json:"budget,omitempty"`
}

// BudgetRequest mirrors probjson.OptionsDoc's enumeration caps.
type BudgetRequest struct {
	MaxValuations int `json:"max_valuations,omitempty"`
	MaxSubsets    int `json:"max_subsets,omitempty"`
	RCQPSizeBound int `json:"rcqp_size_bound,omitempty"`
	MaxDerived    int `json:"max_derived,omitempty"`
}

// apply overlays the request's nonzero caps on o; a nil request
// leaves o unchanged.
func (b *BudgetRequest) apply(o core.Options) core.Options {
	if b == nil {
		return o
	}
	if b.MaxValuations != 0 {
		o.MaxValuations = b.MaxValuations
	}
	if b.MaxSubsets != 0 {
		o.MaxSubsets = b.MaxSubsets
	}
	if b.RCQPSizeBound != 0 {
		o.RCQPSizeBound = b.RCQPSizeBound
	}
	if b.MaxDerived != 0 {
		o.MaxDerived = b.MaxDerived
	}
	return o
}

// DecideResponse is the decide endpoint's JSON body — also used for
// error answers, where Verdict stays null and Error/Kind carry the
// typed failure. Stats is what this decide recorded (the same
// obs.Stats object rcheck -json prints): its solver counters, phases
// and histograms, taken from the request's own metrics view. The server
// writes them straight from that view (answer.go) and leaves the field
// empty; clients decode into it. An answer that never reached a decider
// carries empty stats. Server-layer and relation-layer counters are
// process-wide and appear only on /metrics.
type DecideResponse struct {
	Problem        string `json:"problem"`
	Property       string `json:"property"`
	Model          string `json:"model,omitempty"`
	Verdict        *bool  `json:"verdict,omitempty"`
	Counterexample string `json:"counterexample,omitempty"`
	// CertainAnswers is null unless the property was "certain", in
	// which case it is a (possibly empty, never null) list.
	CertainAnswers []string      `json:"certain_answers"`
	Error          string        `json:"error,omitempty"`
	Kind           string        `json:"kind,omitempty"`
	Budget         *BudgetInfo   `json:"budget,omitempty"`
	Deadline       *DeadlineInfo `json:"deadline,omitempty"`
	RetryAfterMS   int64         `json:"retry_after_ms,omitempty"`
	ElapsedMS      float64       `json:"elapsed_ms"`
	// QueueWaitMS is the time the request spent in the admission queue
	// before claiming a decide slot.
	QueueWaitMS float64   `json:"queue_wait_ms"`
	Stats       obs.Stats `json:"stats"`
	// TraceID is the request's W3C trace id (the one from the client's
	// traceparent header when it sent one), present on every decide
	// answer so any response correlates with the logs.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the bounded span tree of this decide, present only when
	// the request asked for it with ?trace=1.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// TraceInfo is the ?trace=1 payload: the request's finished spans
// (decider phases, eval/search sub-steps) with per-phase timings.
// Dropped counts the oldest spans the recorder overwrote once it held
// its cap.
type TraceInfo struct {
	TraceID string         `json:"trace_id"`
	Spans   []obs.SpanData `json:"spans"`
	Dropped int64          `json:"dropped,omitempty"`
}

// BudgetInfo mirrors core.BudgetError.
type BudgetInfo struct {
	Op       string `json:"op"`
	Cap      string `json:"cap"`
	Limit    int64  `json:"limit"`
	Consumed int64  `json:"consumed"`
}

// DeadlineInfo mirrors core.DeadlineError.
type DeadlineInfo struct {
	Op                   string `json:"op"`
	Elapsed              string `json:"elapsed"`
	Partial              string `json:"partial,omitempty"`
	ModelsChecked        int64  `json:"models_checked"`
	ModelsAdmitted       int64  `json:"models_admitted"`
	ModelsPruned         int64  `json:"models_pruned"`
	ValuationsEnumerated int64  `json:"valuations_enumerated"`
	ExtensionsTested     int64  `json:"extensions_tested"`
}

// PutResponse answers PUT /v1/problems/{name}.
type PutResponse struct {
	Name          string `json:"name"`
	Bytes         int64  `json:"bytes"`
	Replaced      bool   `json:"replaced"`
	ResidentBytes int64  `json:"resident_bytes"`
	Problems      int    `json:"problems"`
}

// ListResponse answers GET /v1/problems.
type ListResponse struct {
	Problems      []Info `json:"problems"`
	ResidentBytes int64  `json:"resident_bytes"`
}

// ErrorResponse is the body of non-decide error answers.
type ErrorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// Error kinds: every non-2xx answer names which typed failure it is,
// so clients (and the chaos suite) can distinguish "the engine said
// no such thing is decidable" from "a fault was injected" without
// string-matching.
const (
	KindBadRequest   = "bad_request"
	KindNotFound     = "not_found"
	KindTooLarge     = "too_large"
	KindOverload     = "overload"
	KindRateLimited  = "rate_limited"
	KindBreakerOpen  = "breaker_open"
	KindDeadline     = "deadline"
	KindBudget       = "budget"
	KindUndecidable  = "undecidable"
	KindInconsistent = "inconsistent"
	KindInjected     = "injected"
	KindPanic        = "panic"
	KindDraining     = "draining"
	KindNotReady     = "not_ready"
	KindStorage      = "storage"
	KindInternal     = "internal"
)

// classify maps a decider error to its HTTP status and typed kind.
// The deadline check precedes the budget check for the same reason
// rcheck's exit codes do: a cancelled search may trip a budget on the
// way out, and the deadline is the root cause. Fault-injection
// errors and contained panics come last so a typed engine error never
// masquerades as an injected one.
func classify(err error) (status int, kind string) {
	var overload *OverloadError
	var rateLimited *RateLimitError
	var breakerOpen *BreakerOpenError
	var tooLarge *ErrTooLarge
	var panicErr *search.PanicError
	var contained *panicError
	var badReq *badRequestError
	switch {
	case errors.As(err, &badReq):
		return http.StatusBadRequest, KindBadRequest
	case errors.As(err, &overload):
		return http.StatusTooManyRequests, KindOverload
	case errors.As(err, &rateLimited):
		return http.StatusTooManyRequests, KindRateLimited
	case errors.As(err, &breakerOpen):
		return http.StatusServiceUnavailable, KindBreakerOpen
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, KindTooLarge
	case errors.Is(err, durable.ErrIO):
		return http.StatusServiceUnavailable, KindStorage
	case errors.Is(err, core.ErrDeadline):
		return http.StatusRequestTimeout, KindDeadline
	case errors.Is(err, core.ErrBudget), errors.Is(err, core.ErrInconclusive):
		return http.StatusUnprocessableEntity, KindBudget
	case errors.Is(err, core.ErrUndecidable), errors.Is(err, core.ErrOpen):
		return http.StatusUnprocessableEntity, KindUndecidable
	case errors.Is(err, core.ErrInconsistent):
		return http.StatusConflict, KindInconsistent
	case errors.Is(err, fault.ErrInjected):
		return http.StatusInternalServerError, KindInjected
	case errors.As(err, &panicErr), errors.As(err, &contained):
		return http.StatusInternalServerError, KindPanic
	default:
		return http.StatusInternalServerError, KindInternal
	}
}

// decorate fills the typed detail objects of an error response.
func (resp *DecideResponse) decorate(err error) {
	resp.Error = err.Error()
	var be *core.BudgetError
	if errors.As(err, &be) {
		resp.Budget = &BudgetInfo{Op: be.Op, Cap: be.Cap, Limit: be.Limit, Consumed: be.Consumed}
	}
	var de *core.DeadlineError
	if errors.As(err, &de) {
		resp.Deadline = &DeadlineInfo{
			Op:                   de.Op,
			Elapsed:              de.Elapsed.String(),
			Partial:              de.Partial,
			ModelsChecked:        de.Progress.ModelsChecked,
			ModelsAdmitted:       de.Progress.ModelsAdmitted,
			ModelsPruned:         de.Progress.ModelsPruned,
			ValuationsEnumerated: de.Progress.ValuationsEnumerated,
			ExtensionsTested:     de.Progress.ExtensionsTested,
		}
	}
	var ov *OverloadError
	if errors.As(err, &ov) {
		resp.RetryAfterMS = ov.RetryAfter.Milliseconds()
	}
	var rl *RateLimitError
	if errors.As(err, &rl) {
		resp.RetryAfterMS = ceilMS(rl.RetryAfter)
	}
	var bo *BreakerOpenError
	if errors.As(err, &bo) {
		resp.RetryAfterMS = ceilMS(bo.RetryAfter)
	}
}

// ceilMS rounds a duration up to whole milliseconds so a sub-ms
// Retry-After never truncates to "retry immediately".
func ceilMS(d time.Duration) int64 {
	ms := d.Milliseconds()
	if d > time.Duration(ms)*time.Millisecond {
		ms++
	}
	return ms
}
