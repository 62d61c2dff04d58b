package core

import (
	"context"
	"fmt"
	"sync"

	"relcomplete/internal/ctable"
)

// This file implements the viable completeness model (Section 6):
// RCDPv (Theorem 6.1, Σp3-complete for CQ/UCQ/∃FO+) asks whether SOME
// valuation of the c-instance yields a relatively complete ground
// instance; MINPv (Corollary 6.3) whether some valuation yields a
// minimal complete ground instance. FO and FP are undecidable, and
// RCQPv coincides with RCQPs (Corollary 6.2). Both deciders fan the
// per-model checks out over Options.Parallelism workers; the first-hit
// engine keeps the verdicts identical to the sequential scan.

// rcdpViable checks whether some I ∈ ModAdom(T, Dm, V) is complete for
// Q relative to (Dm, V); on failure it reports the counterexample of
// the last model inspected (every model fails, so any is informative —
// the highest-index one is what the sequential scan ends on, and the
// failure path probes every model in either schedule, so the choice is
// deterministic).
func (p *Problem) rcdpViable(ctx context.Context, ci *ctable.CInstance) (_ bool, _ *Counterexample, err error) {
	ctx, c := p.enter(ctx, "rcdp_viable", "no complete model found in %d models")
	defer c.exit(&err)
	switch p.Query.Lang() {
	case FO, FP:
		return false, nil, fmt.Errorf("RCDP(%s), viable model: %w", p.Query.Lang(), ErrUndecidable)
	}
	d, err := p.domainsFor(ci, true, false)
	if err != nil {
		return false, nil, err
	}
	var mu sync.Mutex
	lastIdx := -1
	var lastCex *Counterexample
	_, viable, anyModel, err := firstModel(ctx, p, ci, d, func(ctx context.Context, idx int, m *model) (struct{}, bool, error) {
		ans, err := p.modelAnswers(ctx, d, m)
		if err != nil {
			return struct{}{}, false, err
		}
		cex, err := p.boundedCounterexample(ctx, m.db(), ans, d, true)
		if err != nil || cex == nil {
			return struct{}{}, err == nil, err // hit: a complete model
		}
		mu.Lock()
		if idx > lastIdx {
			lastIdx, lastCex = idx, cex
		}
		mu.Unlock()
		return struct{}{}, false, nil
	})
	switch {
	case err != nil:
		return false, nil, err
	case !anyModel:
		return false, nil, ErrInconsistent
	case viable:
		return true, nil, nil
	}
	return false, lastCex, nil
}

// minpViable implements Corollary 6.3: T is a minimal viably complete
// c-instance iff some I ∈ ModAdom(T) is a minimal complete ground
// instance.
func (p *Problem) minpViable(ctx context.Context, ci *ctable.CInstance) (_ bool, err error) {
	ctx, c := p.enter(ctx, "minp_viable", "no minimal complete model found in %d models")
	defer c.exit(&err)
	switch p.Query.Lang() {
	case FO, FP:
		return false, fmt.Errorf("MINP(%s), viable model: %w", p.Query.Lang(), ErrUndecidable)
	}
	d, err := p.domainsFor(ci, true, false)
	if err != nil {
		return false, err
	}
	_, found, anyModel, err := firstModel(ctx, p, ci, d, func(ctx context.Context, _ int, m *model) (struct{}, bool, error) {
		ans, err := p.modelAnswers(ctx, d, m)
		if err != nil {
			return struct{}{}, false, err
		}
		db := m.db()
		cex, err := p.boundedCounterexample(ctx, db, ans, d, false)
		if err != nil || cex != nil {
			return struct{}{}, false, err // a counterexample: this model is not even complete
		}
		nonMin, err := p.hasCompleteRemoval(ctx, db, d)
		return struct{}{}, !nonMin && err == nil, err
	})
	switch {
	case err != nil:
		return false, err
	case !anyModel:
		return false, ErrInconsistent
	}
	return found, nil
}
