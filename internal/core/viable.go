package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"relcomplete/internal/ctable"
	"relcomplete/internal/search"
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
	var consistent atomic.Bool
	var genErr error
	var mu sync.Mutex
	lastIdx := -1
	var lastCex *Counterexample
	probe := func(ctx context.Context, idx int, c ctable.Candidate) (struct{}, bool, error) {
		db, ok, err := p.checkModel(ctx, d, c)
		if err != nil {
			return struct{}{}, false, err
		}
		if !ok {
			return struct{}{}, false, nil
		}
		consistent.Store(true)
		ans, err := p.modelAnswers(ctx, d, c, db)
		if err != nil {
			return struct{}{}, false, err
		}
		cex, err := p.boundedCounterexample(ctx, db, ans, d, true)
		if err != nil {
			return struct{}{}, false, err
		}
		if cex == nil {
			return struct{}{}, true, nil
		}
		mu.Lock()
		if idx > lastIdx {
			lastIdx, lastCex = idx, cex
		}
		mu.Unlock()
		return struct{}{}, false, nil
	}
	_, viable, err := search.FirstHit(ctx, p.Options.workers(), p.Options.Obs,
		p.candidates(ctx, ci, d, &genErr), probe)
	if err != nil {
		return false, nil, err
	}
	if !viable && genErr != nil {
		return false, nil, genErr
	}
	if !consistent.Load() {
		return false, nil, ErrInconsistent
	}
	if viable {
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
	var consistent atomic.Bool
	var genErr error
	probe := func(ctx context.Context, idx int, c ctable.Candidate) (struct{}, bool, error) {
		db, ok, err := p.checkModel(ctx, d, c)
		if err != nil {
			return struct{}{}, false, err
		}
		if !ok {
			return struct{}{}, false, nil
		}
		consistent.Store(true)
		ans, err := p.modelAnswers(ctx, d, c, db)
		if err != nil {
			return struct{}{}, false, err
		}
		cex, err := p.boundedCounterexample(ctx, db, ans, d, false)
		if err != nil {
			return struct{}{}, false, err
		}
		if cex != nil {
			return struct{}{}, false, nil // this model is not even complete
		}
		nonMin, err := p.hasCompleteRemoval(ctx, db, d)
		if err != nil {
			return struct{}{}, false, err
		}
		return struct{}{}, !nonMin, nil
	}
	_, found, err := search.FirstHit(ctx, p.Options.workers(), p.Options.Obs,
		p.candidates(ctx, ci, d, &genErr), probe)
	if err != nil {
		return false, err
	}
	if !found && genErr != nil {
		return false, genErr
	}
	if !consistent.Load() {
		return false, ErrInconsistent
	}
	return found, nil
}
