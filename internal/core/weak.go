package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"relcomplete/internal/ctable"
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
	ctx, c := p.enter(ctx, "certain_answers", "intersection over %d models incomplete")
	defer c.exit(&err)
	d, err := p.domainsFor(ci, false, false)
	if err != nil {
		return nil, err
	}
	return p.certainAnswers(ctx, ci, d)
}

// certainAnswers intersects Q over the models. Query evaluation fans
// out over the workers; the results are folded into the intersection
// strictly in enumeration order (search.ForEachOrdered), so the
// accumulated slice — its order included — matches the sequential fold
// bit for bit, and the early stop on an empty intersection fires at
// the same model.
func (p *Problem) certainAnswers(ctx context.Context, ci *ctable.CInstance, d *domains) ([]relation.Tuple, error) {
	type modelResult struct {
		ans     []relation.Tuple
		isModel bool
	}
	var acc []relation.Tuple
	universe := true
	any := false
	var genErr error
	stopped, err := search.ForEachOrdered(ctx, p.Options.workers(), p.Options.Obs,
		p.candidates(ctx, ci, d, &genErr),
		func(ctx context.Context, idx int, c ctable.Candidate) (modelResult, error) {
			db, ok, err := p.checkModel(ctx, d, c)
			if err != nil || !ok {
				return modelResult{}, err
			}
			ans, err := p.modelAnswers(ctx, d, c, db)
			if err != nil {
				return modelResult{}, err
			}
			return modelResult{ans: ans, isModel: true}, nil
		},
		func(idx int, r modelResult) (bool, error) {
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
	ctx, c := p.enter(ctx, "certain_answers_of_extensions", "intersection over %d models incomplete")
	defer c.exit(&err)
	return p.certainExtStream(ctx, ci, nil)
}

// extFold is an intersection of Q over (model, extension) pairs;
// universe means no pair has been folded into it yet. As a probe's
// result, anyExt reports that some extension of its model qualified.
type extFold struct {
	acc      []relation.Tuple
	universe bool
	anyExt   bool
}

// certainExtStream intersects Q over qualifying (model, single-tuple
// extension) pairs and reports whether any such pair exists. Each
// model's extensions are scanned by one probe of search.ForEachOrdered,
// and the consumer folds the probes' intersections in enumeration
// order. A probe starts its scan from the latest intersection the
// consumer has published, which contains the final one, and the stream
// stops as soon as the intersection is settled: empty, or (when
// stopWithin is non-nil) contained in stopWithin. Later pairs only
// shrink the intersection, so a settled one is already final for the
// caller's containment check. At workers <= 1 a probe starts from
// exactly the running intersection, so it stops on the same extension
// as a single sequential loop; at workers > 1 it may start from a
// superset, which only makes it stop later. A probe's model is
// partially closed, so with tuple-local CCs its extensions are checked
// by their tuples alone, and with a tuple-local query Q(I ∪ {t}) is
// Q(I) ∪ Q({t}), Q(I) taken from modelAnswers.
func (p *Problem) certainExtStream(ctx context.Context, ci *ctable.CInstance, stopWithin map[string]bool) ([]relation.Tuple, bool, error) {
	if !p.Query.Monotone() {
		return nil, false, fmt.Errorf("certain answers of extensions for FO: %w", ErrUndecidable)
	}
	d, err := p.domainsFor(ci, false, true)
	if err != nil {
		return nil, false, err
	}
	settled := func(f *extFold) bool {
		if f.universe {
			return false
		}
		for _, t := range f.acc {
			if !stopWithin[t.Key()] {
				return false
			}
		}
		return true
	}
	var folded atomic.Pointer[extFold]
	folded.Store(&extFold{universe: true})
	localQuery := p.locality().query
	probe := func(ctx context.Context, idx int, c ctable.Candidate) (extFold, error) {
		base, ok, err := p.checkModel(ctx, d, c)
		if err != nil || !ok {
			return extFold{}, err
		}
		var baseAns []relation.Tuple // Q(I)
		if localQuery {
			if baseAns, err = p.modelAnswers(ctx, d, c, base); err != nil {
				return extFold{}, err
			}
		}
		s := *folded.Load()
		err = p.forEachExtension(ctx, base, d, true, func(ext *relation.Database, rel string, t relation.Tuple) (bool, error) {
			s.anyExt = true
			var ans []relation.Tuple
			var err error
			if localQuery {
				if ans, err = p.answers(ctx, p.deltaDatabase(relation.Located{Rel: rel, Tuple: t})); err != nil {
					return false, err
				}
				ans = unionTuples(baseAns, ans)
			} else {
				if ext == nil {
					ext = base.WithTuple(rel, t)
				}
				if ans, err = p.answers(ctx, ext); err != nil {
					return false, err
				}
			}
			s.acc, s.universe = intersectTuples(s.acc, s.universe, ans)
			return !settled(&s), nil
		})
		return s, err
	}
	anyExt := false
	var genErr error
	stopped, err := search.ForEachOrdered(ctx, p.Options.workers(), p.Options.Obs,
		p.candidates(ctx, ci, d, &genErr), probe,
		func(idx int, s extFold) (bool, error) {
			if !s.anyExt {
				return true, nil
			}
			anyExt = true
			f := folded.Load()
			acc, _ := intersectTuples(f.acc, f.universe, s.acc)
			f = &extFold{acc: acc}
			folded.Store(f)
			return !settled(f), nil
		})
	if err != nil {
		return nil, false, err
	}
	if !stopped && genErr != nil {
		return nil, false, genErr
	}
	return folded.Load().acc, anyExt, nil
}

// rcdpWeak implements Theorem 5.1: undecidable for FO; for FP, CQ, UCQ
// and ∃FO+ the c-instance is weakly complete iff the certain answers
// over extensions are contained in the certain answers over Mod(T)
// (Lemma 5.2), or no extension exists at all. The certain answers over
// Mod(T) are computed first so the extension stream can stop as soon
// as containment is established.
func (p *Problem) rcdpWeak(ctx context.Context, ci *ctable.CInstance) (_ bool, err error) {
	ctx, c := p.enter(ctx, "rcdp_weak", "containment undecided after %d models")
	defer c.exit(&err)
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
	certExt, anyExt, err := p.certainExtStream(ctx, ci, inT)
	if err != nil {
		return false, err
	}
	if !anyExt {
		// Every model of T is unextendable: weakly complete by
		// definition.
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
func (p *Problem) RCQPCtx(ctx context.Context, m Model) (bool, error) {
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
func (p *Problem) RCQPGroundCtx(ctx context.Context, m Model) (bool, error) {
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
	ctx, c := p.enter(ctx, "construct_weakly_complete", "")
	defer c.exit(&err)
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
		_, err := p.latticeOver(ctx, r, d, nil, func(t relation.Tuple) (bool, error) {
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
			return nil, err
		}
	}
	return db, nil
}

// minpWeak implements Theorem 5.6. For CQ over a single-relation schema
// it uses the coDP characterisation of Lemma 5.7; otherwise it falls
// back to the generic algorithm (check T weakly complete, then check
// that no proper row subset is), which matches the Πp4 upper bound for
// UCQ/∃FO+ and coNEXPTIME for FP.
func (p *Problem) minpWeak(ctx context.Context, ci *ctable.CInstance) (_ bool, err error) {
	ctx, c := p.enter(ctx, "minp_weak", "non-minimality undecided after %d models")
	defer c.exit(&err)
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
			return false, err
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
