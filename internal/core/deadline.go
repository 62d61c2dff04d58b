package core

import (
	"context"
	"errors"
	"fmt"
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
	// Elapsed is the wall time from the decider entry point to the
	// abort.
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

// progressNow reads the obs counters a DeadlineError snapshots. Taken
// once at decider entry and once at abort; the delta is the cancelled
// call's own work. It is exact when the decide owns its Metrics, as
// each rcserved request does; calls sharing one Metrics concurrently
// may count each other's work, and a nested call's work counts toward
// its enclosing call too.
func (p *Problem) progressNow() Progress {
	m := p.Options.Obs
	return Progress{
		ModelsChecked:        m.Get(obs.ModelsChecked),
		ModelsAdmitted:       m.Get(obs.ModelsAdmitted),
		ValuationsEnumerated: m.Get(obs.ValuationsEnumerated),
		ExtensionsTested:     m.Get(obs.ExtensionsTested),
	}
}

// opGuard wraps one ...Ctx decider call: it remembers the entry time
// and counter baseline so a context abort can be dressed up as a
// DeadlineError with a progress delta. A nil *opGuard is inert — the
// context-free fast path (ctx.Done() == nil) costs one nil test per
// decider call and nothing else.
type opGuard struct {
	ctx        context.Context
	op         string
	partialFmt string // fmt verb %d receives Progress.ModelsChecked; "" for no partial
	start      time.Time
	base       Progress
	p          *Problem
}

// beginOp starts the guard for one decider call. It returns nil for
// contexts that can never fire (Background and friends), keeping the
// default path free of time.Now calls and counter reads.
func (p *Problem) beginOp(ctx context.Context, op, partialFmt string) *opGuard {
	if ctx.Done() == nil {
		return nil
	}
	return &opGuard{
		ctx:        ctx,
		op:         op,
		partialFmt: partialFmt,
		start:      time.Now(),
		base:       p.progressNow(),
		p:          p,
	}
}

// wrap converts a context abort bubbling out of the guarded call into
// a *DeadlineError; every other error (nil, budget, undecidable, an
// already-wrapped DeadlineError from a nested decider) passes through
// unchanged. The innermost decider's annotation wins: DeadlineError's
// Unwrap exposes the context cause, so without the errors.As check an
// outer guard would re-wrap a nested error and misreport the op.
func (g *opGuard) wrap(err error) error {
	if g == nil || err == nil {
		return err
	}
	var de *DeadlineError
	if errors.As(err, &de) {
		return err
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	now := g.p.progressNow()
	delta := Progress{
		ModelsChecked:        now.ModelsChecked - g.base.ModelsChecked,
		ModelsAdmitted:       now.ModelsAdmitted - g.base.ModelsAdmitted,
		ValuationsEnumerated: now.ValuationsEnumerated - g.base.ValuationsEnumerated,
		ExtensionsTested:     now.ExtensionsTested - g.base.ExtensionsTested,
	}
	delta.ModelsPruned = delta.ModelsChecked - delta.ModelsAdmitted
	partial := ""
	if g.partialFmt != "" {
		partial = fmt.Sprintf(g.partialFmt, delta.ModelsChecked)
	}
	g.p.Options.Obs.Inc(obs.DeadlineErrors)
	if dl, ok := g.ctx.Deadline(); ok {
		if late := time.Since(dl); late > 0 {
			g.p.Options.Obs.ObserveDuration(obs.CancelLatencyNs, late)
		}
	}
	cause := g.ctx.Err()
	if cause == nil {
		// The error carried a context sentinel but this guard's own
		// context is still live (e.g. a derived context fired); keep the
		// sentinel we saw.
		if errors.Is(err, context.DeadlineExceeded) {
			cause = context.DeadlineExceeded
		} else {
			cause = context.Canceled
		}
	}
	return &DeadlineError{
		Op:       g.op,
		Elapsed:  time.Since(g.start),
		Progress: delta,
		Partial:  partial,
		cause:    cause,
	}
}
