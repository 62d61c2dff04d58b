package core

import (
	"context"
	"errors"
	"fmt"

	"relcomplete/internal/ctable"
	"relcomplete/internal/obs"
	"relcomplete/internal/relation"
	"relcomplete/internal/search"
)

// This file implements the weak completeness model (Section 5): the
// certain-answer based RCDPw via the characterisation of Lemma 5.2
// (Theorem 5.1; decidable even for FP), the trivially decidable RCQPw
// with the constructive witness of the Theorem 5.4 proof, and MINPw
// with the Lemma 5.7 fast path for CQ (Theorem 5.6). FO remains
// undecidable in this model.

// CertainAnswers computes ∩_{I ∈ ModAdom(T, Dm, V)} Q(I), the certain
// answers of Q on the c-instance. ErrInconsistent when Mod is empty.
func (p *Problem) CertainAnswers(ci *ctable.CInstance) ([]relation.Tuple, error) {
	return p.CertainAnswersCtx(context.Background(), ci)
}

// CertainAnswersCtx is CertainAnswers honoring the context's deadline
// and cancellation; an abort surfaces as a *DeadlineError. A partial
// intersection is a superset of the certain answers, so no partial
// result is returned.
func (p *Problem) CertainAnswersCtx(ctx context.Context, ci *ctable.CInstance) (_ []relation.Tuple, err error) {
	defer p.countBudget(&err)
	ctx, endSpan := p.span(ctx, "certain_answers")
	defer endSpan()
	g := p.beginOp(ctx, "certain_answers", "intersection over %d models incomplete")
	d, err := p.domainsFor(ci, false, false)
	if err != nil {
		return nil, err
	}
	ans, err := p.certainAnswers(ctx, ci, d)
	return ans, g.wrap(err)
}

// certainAnswers intersects Q over the models. Query evaluation fans
// out over the workers; the results are folded into the intersection
// strictly in enumeration order (search.ForEachOrdered), so the
// accumulated slice — its order included — matches the sequential fold
// bit for bit, and the early stop on an empty intersection fires at
// the same model.
func (p *Problem) certainAnswers(ctx context.Context, ci *ctable.CInstance, d *domains) ([]relation.Tuple, error) {
	type modelAnswers struct {
		ans     []relation.Tuple
		isModel bool
	}
	var acc []relation.Tuple
	universe := true
	any := false
	var genErr error
	stopped, err := search.ForEachOrdered(ctx, p.Options.workers(), p.Options.Obs,
		p.modelCandidates(ctx, ci, d, &genErr),
		func(ctx context.Context, idx int, db *relation.Database) (modelAnswers, error) {
			ok, err := p.checkModel(ctx, db)
			if err != nil || !ok {
				return modelAnswers{}, err
			}
			ans, err := p.answers(ctx, db)
			if err != nil {
				return modelAnswers{}, err
			}
			return modelAnswers{ans: ans, isModel: true}, nil
		},
		func(idx int, r modelAnswers) (bool, error) {
			if !r.isModel {
				return true, nil
			}
			any = true
			acc, universe = intersectTuples(acc, universe, r.ans)
			return universe || len(acc) > 0, nil
		})
	if err != nil {
		return nil, err
	}
	if !stopped && genErr != nil {
		return nil, genErr
	}
	if !any {
		return nil, ErrInconsistent
	}
	return acc, nil
}

// CertainAnswersOfExtensions computes the certain answers of Q over all
// partially closed extensions of all models of T:
//
//	∩_{I ∈ ModAdom(T), I' ∈ Ext(I)} Q(I').
//
// By the monotonicity of CQ/UCQ/∃FO+/FP and the single-tuple extension
// property (Lemma 5.2 and Appendix A), it suffices to intersect over
// single-tuple extensions of the models of T — and a tuple can join a
// partially closed extension only when it is single-tuple closed
// itself (CC antimonotonicity), so the added tuple ranges over the
// pre-filtered candidate lattice rather than over raw valuations. The
// second return value reports whether any extension exists at all;
// when it is false the first value is nil and the paper's definition
// makes T weakly complete vacuously.
func (p *Problem) CertainAnswersOfExtensions(ci *ctable.CInstance) ([]relation.Tuple, bool, error) {
	return p.CertainAnswersOfExtensionsCtx(context.Background(), ci)
}

// CertainAnswersOfExtensionsCtx is CertainAnswersOfExtensions honoring
// the context's deadline.
func (p *Problem) CertainAnswersOfExtensionsCtx(ctx context.Context, ci *ctable.CInstance) (_ []relation.Tuple, _ bool, err error) {
	defer p.countBudget(&err)
	g := p.beginOp(ctx, "certain_answers_of_extensions", "intersection over %d models incomplete")
	acc, _, anyExt, err := p.certainExtStream(ctx, ci, nil)
	return acc, anyExt, g.wrap(err)
}

// certainExtStream intersects Q over qualifying (model, single-tuple
// extension) pairs. When stopWithin is non-nil, the enumeration halts
// as soon as the running intersection is contained in stopWithin —
// later pairs only shrink the intersection, so the containment verdict
// is already final. It returns the intersection (meaningless when
// contained is true), whether containment in stopWithin was
// established, and whether any qualifying extension exists.
//
// With several workers the per-model extension scans run concurrently,
// each folding a model-local intersection that the consumer merges in
// enumeration order (certainExtStreamPar); the early stops stay sound
// because the global intersection is contained in every model-local
// one. At workers <= 1 the original single-loop scan runs unchanged —
// its interleaved early stops inspect the global accumulator after
// every single extension, a schedule the parallel decomposition cannot
// reproduce pair-for-pair (the verdicts still agree).
func (p *Problem) certainExtStream(ctx context.Context, ci *ctable.CInstance, stopWithin map[string]bool) (
	acc []relation.Tuple, contained bool, anyExt bool, err error) {
	if !p.Query.Monotone() {
		return nil, false, false, fmt.Errorf("certain answers of extensions for FO: %w", ErrUndecidable)
	}
	d, err := p.domainsFor(ci, false, true)
	if err != nil {
		return nil, false, false, err
	}
	if p.Options.workers() > 1 {
		return p.certainExtStreamPar(ctx, ci, d, stopWithin)
	}
	universe := true
	within := func() bool {
		if stopWithin == nil || universe {
			return false
		}
		for _, t := range acc {
			if !stopWithin[t.Key()] {
				return false
			}
		}
		return true
	}
	err = p.forEachModel(ctx, ci, d, func(base *relation.Database, mu ctable.Valuation) (bool, error) {
		for _, r := range p.Schema.Relations() {
			stop := false
			done, err := p.latticeOver(ctx, r, d, func(t relation.Tuple) (bool, error) {
				if base.Relation(r.Name).Contains(t) {
					return true, nil
				}
				p.Options.Obs.Inc(obs.ExtensionsTested)
				ext := base.WithTuple(r.Name, t)
				closed, err := p.satisfiesCCs(ctx, ext)
				if err != nil {
					return false, err
				}
				if !closed {
					return true, nil
				}
				anyExt = true
				ans, err := p.answers(ctx, ext)
				if err != nil {
					return false, err
				}
				acc, universe = intersectTuples(acc, universe, ans)
				if within() {
					contained = true
					stop = true
					return false, nil
				}
				if !universe && len(acc) == 0 {
					// Empty intersection is contained in anything.
					if stopWithin != nil {
						contained = true
					}
					stop = true
					return false, nil
				}
				return true, nil
			})
			if err != nil {
				return false, err
			}
			if !done && stop {
				return false, nil
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, false, false, err
	}
	return acc, contained, anyExt, nil
}

// modelExtScan is one model's contribution to the extension stream: the
// intersection of Q over the model's qualifying single-tuple
// extensions (universe when none qualifies), plus the local early-stop
// verdicts.
type modelExtScan struct {
	isModel   bool
	universe  bool
	acc       []relation.Tuple
	anyExt    bool
	contained bool // the local scan alone established containment
}

// certainExtStreamPar is the parallel decomposition of the extension
// stream: each model's extensions are scanned by a worker into a local
// intersection, and the consumer folds the locals in enumeration
// order. Every local intersection contains the global one, so a local
// early stop (local acc ⊆ stopWithin, or a local empty intersection)
// already decides the global verdict.
func (p *Problem) certainExtStreamPar(ctx context.Context, ci *ctable.CInstance, d *domains, stopWithin map[string]bool) (
	acc []relation.Tuple, contained bool, anyExt bool, err error) {
	universe := true
	within := func() bool {
		if stopWithin == nil || universe {
			return false
		}
		for _, t := range acc {
			if !stopWithin[t.Key()] {
				return false
			}
		}
		return true
	}
	probe := func(ctx context.Context, idx int, base *relation.Database) (modelExtScan, error) {
		s := modelExtScan{universe: true}
		ok, err := p.checkModel(ctx, base)
		if err != nil || !ok {
			return s, err
		}
		s.isModel = true
		localWithin := func() bool {
			if stopWithin == nil || s.universe {
				return false
			}
			for _, t := range s.acc {
				if !stopWithin[t.Key()] {
					return false
				}
			}
			return true
		}
		for _, r := range p.Schema.Relations() {
			stop := false
			done, err := p.latticeOver(ctx, r, d, func(t relation.Tuple) (bool, error) {
				if base.Relation(r.Name).Contains(t) {
					return true, nil
				}
				p.Options.Obs.Inc(obs.ExtensionsTested)
				ext := base.WithTuple(r.Name, t)
				closed, err := p.satisfiesCCs(ctx, ext)
				if err != nil {
					return false, err
				}
				if !closed {
					return true, nil
				}
				s.anyExt = true
				ans, err := p.answers(ctx, ext)
				if err != nil {
					return false, err
				}
				s.acc, s.universe = intersectTuples(s.acc, s.universe, ans)
				if localWithin() {
					s.contained = true
					stop = true
					return false, nil
				}
				if !s.universe && len(s.acc) == 0 {
					if stopWithin != nil {
						s.contained = true
					}
					stop = true
					return false, nil
				}
				return true, nil
			})
			if err != nil {
				return s, err
			}
			if !done && stop {
				return s, nil
			}
		}
		return s, nil
	}
	var genErr error
	stopped, err := search.ForEachOrdered(ctx, p.Options.workers(), p.Options.Obs,
		p.modelCandidates(ctx, ci, d, &genErr), probe,
		func(idx int, s modelExtScan) (bool, error) {
			if !s.isModel {
				return true, nil
			}
			if s.anyExt {
				anyExt = true
			}
			if !s.universe {
				acc, universe = intersectTuples(acc, universe, s.acc)
			}
			if s.contained || within() {
				contained = true
				return false, nil
			}
			if !universe && len(acc) == 0 {
				if stopWithin != nil {
					contained = true
				}
				return false, nil
			}
			return true, nil
		})
	if err != nil {
		return nil, false, false, err
	}
	if !stopped && genErr != nil {
		return nil, false, false, genErr
	}
	return acc, contained, anyExt, nil
}

// rcdpWeak implements Theorem 5.1: undecidable for FO; for FP, CQ, UCQ
// and ∃FO+ the c-instance is weakly complete iff the certain answers
// over extensions are contained in the certain answers over Mod(T)
// (Lemma 5.2), or no extension exists at all. The certain answers over
// Mod(T) are computed first so the extension stream can stop as soon
// as containment is established.
func (p *Problem) rcdpWeak(ctx context.Context, ci *ctable.CInstance) (bool, error) {
	ctx, endSpan := p.span(ctx, "rcdp_weak")
	defer endSpan()
	g := p.beginOp(ctx, "rcdp_weak", "containment undecided after %d models")
	if p.Query.Lang() == FO {
		return false, fmt.Errorf("RCDP(FO), weak model: %w", ErrUndecidable)
	}
	certT, err := p.CertainAnswersCtx(ctx, ci) // ErrInconsistent when Mod(T) = ∅
	if err != nil {
		return false, err
	}
	inT := make(map[string]bool, len(certT))
	for _, t := range certT {
		inT[t.Key()] = true
	}
	certExt, contained, anyExt, err := p.certainExtStream(ctx, ci, inT)
	if err != nil {
		return false, g.wrap(err)
	}
	if !anyExt {
		// Every model of T is unextendable: weakly complete by
		// definition.
		return true, nil
	}
	if contained {
		return true, nil
	}
	for _, t := range certExt {
		if !inT[t.Key()] {
			return false, nil
		}
	}
	return true, nil
}

// RCQP decides the relatively complete query problem for c-instances:
// does any c-instance complete for Q relative to (Dm, V) exist?
//
// Weak model: trivially true for the monotone languages (Theorem 5.4);
// ErrOpen for FO. Strong and viable models coincide with the ground
// problem (Lemma 4.4 / Corollary 6.2) and are served by the bounded
// search in rcqp.go; FO and FP are undecidable there.
func (p *Problem) RCQP(m Model) (bool, error) {
	return p.RCQPCtx(context.Background(), m)
}

// RCQPCtx is RCQP honoring the context's deadline and cancellation; an
// abort surfaces as a *DeadlineError.
func (p *Problem) RCQPCtx(ctx context.Context, m Model) (_ bool, err error) {
	defer p.countBudget(&err)
	switch m {
	case Weak:
		if p.Query.Lang() == FO {
			return false, fmt.Errorf("RCQP(FO), weak model, c-instances: %w", ErrOpen)
		}
		return true, nil
	default:
		return p.rcqpStrongOrViable(ctx, m)
	}
}

// RCQPGround is RCQP restricted to ground instances. In the weak model
// RCQP(FO) is undecidable for ground instances (Theorem 5.4), while
// the monotone languages remain trivially true.
func (p *Problem) RCQPGround(m Model) (bool, error) {
	return p.RCQPGroundCtx(context.Background(), m)
}

// RCQPGroundCtx is RCQPGround honoring the context's deadline.
func (p *Problem) RCQPGroundCtx(ctx context.Context, m Model) (_ bool, err error) {
	defer p.countBudget(&err)
	switch m {
	case Weak:
		if p.Query.Lang() == FO {
			return false, fmt.Errorf("RCQP(FO), weak model, ground instances: %w", ErrUndecidable)
		}
		return true, nil
	default:
		// Lemma 4.4 / Corollary 6.2: the c-instance and ground problems
		// coincide in the strong and viable models.
		return p.rcqpStrongOrViable(ctx, m)
	}
}

// ConstructWeaklyComplete builds the constructive witness of the
// Theorem 5.4 proof: a maximal partially closed ground instance I0
// whose tuples draw values from the (typed) candidate lattice over the
// active domain. Every FP (hence CQ, UCQ, ∃FO+) query is weakly
// complete on I0 relative to (Dm, V).
func (p *Problem) ConstructWeaklyComplete() (*relation.Database, error) {
	return p.ConstructWeaklyCompleteCtx(context.Background())
}

// ConstructWeaklyCompleteCtx is ConstructWeaklyComplete honoring the
// context's deadline.
func (p *Problem) ConstructWeaklyCompleteCtx(ctx context.Context) (_ *relation.Database, err error) {
	defer p.countBudget(&err)
	g := p.beginOp(ctx, "construct_weakly_complete", "")
	if !p.Query.Monotone() {
		return nil, fmt.Errorf("weakly complete witness for FO: %w", ErrUndecidable)
	}
	d, err := p.domainsFor(nil, false, true)
	if err != nil {
		return nil, err
	}
	db := relation.NewDatabase(p.Schema)
	// Greedy maximality: a tuple rejected now stays rejected forever
	// because CC violation is monotone in the data.
	for _, r := range p.Schema.Relations() {
		_, err := p.latticeOver(ctx, r, d, func(t relation.Tuple) (bool, error) {
			ext := db.WithTuple(r.Name, t)
			ok, err := p.satisfiesCCs(ctx, ext)
			if err != nil {
				return false, err
			}
			if ok {
				db = ext
			}
			return true, nil
		})
		if err != nil {
			return nil, g.wrap(err)
		}
	}
	return db, nil
}

// minpWeak implements Theorem 5.6. For CQ over a single-relation schema
// it uses the coDP characterisation of Lemma 5.7; otherwise it falls
// back to the generic algorithm (check T weakly complete, then check
// that no proper row subset is), which matches the Πp4 upper bound for
// UCQ/∃FO+ and coNEXPTIME for FP.
func (p *Problem) minpWeak(ctx context.Context, ci *ctable.CInstance) (bool, error) {
	ctx, endSpan := p.span(ctx, "minp_weak")
	defer endSpan()
	if p.Query.Lang() == FO {
		return false, fmt.Errorf("MINP(FO), weak model: %w", ErrUndecidable)
	}
	if p.Query.Lang() == CQ && p.Schema.Len() == 1 {
		return p.minpWeakCQ(ctx, ci)
	}
	return p.minpWeakGeneric(ctx, ci)
}

// minpWeakCQ is the Lemma 5.7 fast path: T is a minimal weakly complete
// instance iff either T is empty and ∅ ∈ RCQw, or ∅ ∉ RCQw, |T| = 1 and
// Mod(T) ≠ ∅.
func (p *Problem) minpWeakCQ(ctx context.Context, ci *ctable.CInstance) (bool, error) {
	emptyCI := ctable.NewCInstance(p.Schema)
	emptyComplete, err := p.rcdpWeak(ctx, emptyCI)
	if err != nil {
		return false, err
	}
	if ci.Size() == 0 {
		return emptyComplete, nil
	}
	if emptyComplete || ci.Size() != 1 {
		return false, nil
	}
	return p.ConsistentCtx(ctx, ci)
}

// minpWeakGeneric checks T ∈ RCQw and that no proper sub-c-instance
// (row subset) is weakly complete.
func (p *Problem) minpWeakGeneric(ctx context.Context, ci *ctable.CInstance) (bool, error) {
	g := p.beginOp(ctx, "minp_weak", "non-minimality undecided after %d models")
	complete, err := p.rcdpWeak(ctx, ci)
	if err != nil {
		return false, err
	}
	if !complete {
		return false, nil
	}
	rows := ci.AllRows()
	n := len(rows)
	if n == 0 {
		return true, nil
	}
	if p.Options.MaxSubsets > 0 && (n > 62 || 1<<uint(n) > p.Options.MaxSubsets) {
		subsets := int64(-1) // 2^n overflows past n = 62
		if n <= 62 {
			subsets = int64(1) << uint(n)
		}
		return false, p.budgetErr(fmt.Sprintf("MINP weak: 2^%d row subsets", n), "MaxSubsets",
			int64(p.Options.MaxSubsets), subsets)
	}
	for mask := 0; mask < (1 << uint(n)); mask++ {
		if err := ctx.Err(); err != nil {
			return false, g.wrap(err)
		}
		if mask == (1<<uint(n))-1 {
			continue // the full set is T itself
		}
		drop := map[ctable.RowRef]bool{}
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) == 0 {
				drop[rows[i]] = true
			}
		}
		sub := ci.WithoutRows(drop)
		subComplete, err := p.rcdpWeak(ctx, sub)
		if errors.Is(err, ErrInconsistent) {
			// An inconsistent sub-instance represents no database and
			// cannot witness non-minimality.
			continue
		}
		if err != nil {
			return false, err
		}
		if subComplete {
			return false, nil
		}
	}
	return true, nil
}
