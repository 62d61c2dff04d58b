package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"relcomplete/internal/obs"
)

// ErrDeadline is the sentinel every DeadlineError unwraps to: the
// context expired (deadline or cancellation) before the decision
// completed. Like ErrBudget it marks a resource failure, not a
// verdict — the instance may well be decidable with more time.
var ErrDeadline = errors.New("relcomplete: deadline exceeded before the decision completed")

// Progress is the work snapshot a DeadlineError carries: how far the
// decision had gotten when the context fired, measured as deltas of
// the obs counters over the cancelled call. All fields are zero when
// the Problem has no Options.Obs attached.
type Progress struct {
	// ModelsChecked and ModelsAdmitted count candidate models tested
	// against the CCs and admitted by them; ModelsPruned is the
	// difference (candidates the CCs rejected).
	ModelsChecked  int64
	ModelsAdmitted int64
	ModelsPruned   int64
	// ValuationsEnumerated counts valuations of c-table variables tried.
	ValuationsEnumerated int64
	// ExtensionsTested counts candidate extensions tested by the
	// RCDP/MINP searches.
	ExtensionsTested int64
}

// DeadlineError reports that a decider was cut short by its context,
// carrying the operation name, how long it ran, a Progress snapshot
// and a human-readable partial result ("no counterexample found in 17
// models") where the search semantics permit one.
//
// DeadlineError unwraps to both ErrDeadline and the context's own
// cause, so all of these hold:
//
//	errors.Is(err, core.ErrDeadline)
//	errors.Is(err, context.DeadlineExceeded) // when the deadline fired
//	errors.Is(err, context.Canceled)         // when the caller cancelled
//
// and errors.As(err, *(*DeadlineError)) recovers the detail.
type DeadlineError struct {
	// Op names the interrupted decision, e.g. "consistency" or
	// "rcdp_strong".
	Op string
	// Elapsed is the wall time of the interrupted call, the same
	// measurement its phase and decider_wall_seconds record.
	Elapsed time.Duration
	// Progress is the work done by the cancelled call.
	Progress Progress
	// Partial is a one-line partial-result statement, or "" when the
	// decider cannot say anything sound about the explored prefix.
	Partial string

	cause error // the context error: Canceled or DeadlineExceeded
}

// Error renders the abort with its partial-result detail.
func (e *DeadlineError) Error() string {
	if e.Partial == "" {
		return fmt.Sprintf("%s: %v after %v", e.Op, e.cause, e.Elapsed)
	}
	return fmt.Sprintf("%s: %v after %v (%s)", e.Op, e.cause, e.Elapsed, e.Partial)
}

// Unwrap exposes ErrDeadline and the context cause for errors.Is.
func (e *DeadlineError) Unwrap() []error { return []error{ErrDeadline, e.cause} }

// progressNow reads the obs counters a DeadlineError snapshots and the
// per-call histograms observe. The call bracket reads them once at
// entry and once at exit; the delta is the call's own work. It is
// exact when the decide owns its Metrics, as each rcserved request
// does; calls sharing one Metrics concurrently may count each other's
// work, and a nested call's work counts toward its enclosing call too.
func (p *Problem) progressNow() Progress {
	m := p.Options.Obs
	return Progress{
		ModelsChecked:        m.Get(obs.ModelsChecked),
		ModelsAdmitted:       m.Get(obs.ModelsAdmitted),
		ValuationsEnumerated: m.Get(obs.ValuationsEnumerated),
		ExtensionsTested:     m.Get(obs.ExtensionsTested),
	}
}

// call is the bracket of one decider call. Every decider opens one
// with enter and closes it with a deferred exit, which derives all the
// call records from two readings, the clock and the Progress counters
// at entry and at exit, and from the error the call returns:
//
//   - a context abort becomes a *DeadlineError (the innermost call
//     wins), counted in deadline_errors with its cancel latency;
//   - a BudgetError is counted once in budget_errors, by the innermost
//     call it leaves;
//   - the wall time lands in the call's phase and in
//     decider_wall_seconds, with the trace id as its exemplar;
//   - the models the call checked land in the per-call admitted and
//     pruned histograms;
//   - the call's child span, when the context carries a trace, starts
//     and ends at the bracket's two clock readings, with its
//     models_checked attribute;
//   - a call at or over Options.SlowOpThreshold dumps its span tree
//     and the histograms to Options.SlowOpSink.
//
// A nil *call is inert: see enter.
type call struct {
	p       *Problem
	ctx     context.Context
	op      string
	partial string // fmt verb %d receives Progress.ModelsChecked; "" for no partial
	span    *obs.Span
	start   time.Time
	base    Progress
}

// enter opens the bracket of the decider call op. partial renders the
// DeadlineError's partial result. The returned context carries the
// call's child span, so eval and search sub-spans and the call's
// decision events nest under it. With Obs nil, no slow-op threshold,
// no active trace and a context that can never fire (Background), it
// returns ctx and a nil *call: the disabled path is one context lookup
// and one branch, and allocates nothing (the overhead contract of
// BenchmarkObsOverhead).
func (p *Problem) enter(ctx context.Context, op, partial string) (context.Context, *call) {
	o := &p.Options
	sp := obs.SpanFromContext(ctx)
	if o.Obs == nil && o.SlowOpThreshold <= 0 && sp == nil && ctx.Done() == nil {
		return ctx, nil
	}
	start := time.Now()
	c := &call{p: p, ctx: ctx, op: op, partial: partial, span: sp.StartChild(op, start), start: start}
	if c.span != nil {
		ctx = obs.ContextWithSpan(ctx, c.span)
	}
	c.base = p.progressNow()
	return ctx, c
}

// exit closes the bracket with the error the call returns, replacing a
// context abort in *errp by its *DeadlineError.
func (c *call) exit(errp *error) {
	if c == nil {
		return
	}
	end := time.Now()
	elapsed := end.Sub(c.start)
	o := &c.p.Options
	m := o.Obs
	work := c.p.progressNow()
	work.ModelsChecked -= c.base.ModelsChecked
	work.ModelsAdmitted -= c.base.ModelsAdmitted
	work.ValuationsEnumerated -= c.base.ValuationsEnumerated
	work.ExtensionsTested -= c.base.ExtensionsTested
	work.ModelsPruned = work.ModelsChecked - work.ModelsAdmitted
	if *errp != nil {
		*errp = c.annotate(*errp, elapsed, work)
	}
	m.ObservePhase(c.op, elapsed)
	var traceID string
	if t := c.span.Trace(); !t.IsZero() {
		traceID = t.String()
	}
	// Traced calls stamp the wall-time bucket with their trace id, so a
	// tail-bucket spike in the OpenMetrics exposition carries an
	// exemplar pointing at a request that caused it.
	m.ObserveExemplar(obs.DeciderWallNs, elapsed.Nanoseconds(), traceID)
	if work.ModelsChecked > 0 {
		m.Observe(obs.ModelsAdmittedPerCall, work.ModelsAdmitted)
		m.Observe(obs.ModelsPrunedPerCall, work.ModelsPruned)
	}
	if c.span != nil {
		c.span.SetAttr("models_checked", work.ModelsChecked)
		c.span.EndAt(end)
	}
	if o.SlowOpThreshold > 0 && elapsed >= o.SlowOpThreshold {
		w := o.SlowOpSink
		if w == nil {
			w = os.Stderr
		}
		obs.WriteSlowOp(w, c.op, elapsed, o.SlowOpThreshold, c.span, m)
	}
}

// annotate counts a BudgetError no inner call has counted, and turns a
// context abort into a *DeadlineError. Every other error (undecidable,
// inconsistent, a DeadlineError from a nested call) passes through
// unchanged. The innermost call's annotation wins: DeadlineError's
// Unwrap exposes the context cause, so without the errors.As check an
// outer call would re-wrap a nested error and misreport the op.
func (c *call) annotate(err error, elapsed time.Duration, work Progress) error {
	m := c.p.Options.Obs
	var be *BudgetError
	if errors.As(err, &be) {
		if !be.counted {
			be.counted = true
			m.Inc(obs.BudgetErrors)
		}
		return err
	}
	var de *DeadlineError
	if errors.As(err, &de) || !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	m.Inc(obs.DeadlineErrors)
	if dl, ok := c.ctx.Deadline(); ok {
		if late := time.Since(dl); late > 0 {
			m.ObserveDuration(obs.CancelLatencyNs, late)
		}
	}
	cause := c.ctx.Err()
	if cause == nil {
		// The error carried a context sentinel but the call's own
		// context is still live (e.g. a derived context fired); keep the
		// sentinel we saw.
		if errors.Is(err, context.DeadlineExceeded) {
			cause = context.DeadlineExceeded
		} else {
			cause = context.Canceled
		}
	}
	partial := ""
	if c.partial != "" {
		partial = fmt.Sprintf(c.partial, work.ModelsChecked)
	}
	return &DeadlineError{Op: c.op, Elapsed: elapsed, Progress: work, Partial: partial, cause: cause}
}
