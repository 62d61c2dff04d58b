package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"relcomplete/internal/ctable"
	"relcomplete/internal/relation"
	"relcomplete/internal/search"
)

// This file contains reference implementations that follow the paper's
// definitions literally — enumerating partially closed extensions tuple
// set by tuple set — rather than through the small-model
// characterisations the production deciders use (Lemmas 4.2/4.3/5.2).
// They are exponential in one more dimension than the deciders and
// exist as executable specifications: the test-suite cross-validates
// every decider against them on randomised small inputs.

// ReferenceGroundComplete checks Section 2.1 completeness by brute
// force: it enumerates every partially closed extension of db obtained
// by adding at most extra tuples over the active domain and compares
// query answers. With extra at least the atom count of the query's
// largest disjunct this is exact for CQ/UCQ/∃FO+ (Lemma 4.2); it is
// also usable for FP and FO queries on small inputs, where no
// production decider exists.
func (p *Problem) ReferenceGroundComplete(db *relation.Database, extra int) (bool, error) {
	return p.ReferenceGroundCompleteCtx(context.Background(), db, extra)
}

// ReferenceGroundCompleteCtx is ReferenceGroundComplete honoring the
// context's deadline.
func (p *Problem) ReferenceGroundCompleteCtx(ctx context.Context, db *relation.Database, extra int) (_ bool, err error) {
	ctx, c := p.enter(ctx, "reference_ground_complete", "no counterexample found in %d models")
	defer c.exit(&err)
	closed, err := p.satisfiesCCs(ctx, db)
	if err != nil {
		return false, err
	}
	if !closed {
		return false, nil
	}
	a, err := p.adomFor(ctable.FromDatabase(db), p.Query.Calc != nil && p.Query.Lang() != FO, true)
	if err != nil {
		return false, err
	}
	var lattice []relation.Located
	for _, r := range p.Schema.Relations() {
		done, err := p.tuplesOver(ctx, r, a, func(t relation.Tuple) (bool, error) {
			if !db.Relation(r.Name).Contains(t) {
				lattice = append(lattice, relation.Located{Rel: r.Name, Tuple: t})
			}
			return true, nil
		})
		if err != nil {
			return false, err
		}
		if !done {
			return false, p.budgetErr("reference lattice over "+r.Name, "MaxValuations",
				int64(p.Options.MaxValuations), int64(p.Options.MaxValuations))
		}
	}
	base, err := p.answers(ctx, db)
	if err != nil {
		return false, err
	}
	complete := true
	var rec func(start int, cur *relation.Database, added int) error
	rec = func(start int, cur *relation.Database, added int) error {
		if !complete {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if added > 0 {
			closed, err := p.satisfiesCCs(ctx, cur)
			if err != nil {
				return err
			}
			if !closed {
				// Supersets stay violating (CC monotonicity): prune.
				return nil
			}
			ans, err := p.answers(ctx, cur)
			if err != nil {
				return err
			}
			if !equalTupleSets(base, ans) {
				complete = false
				return nil
			}
		}
		if added == extra {
			return nil
		}
		for i := start; i < len(lattice); i++ {
			if err := rec(i+1, cur.WithTuple(lattice[i].Rel, lattice[i].Tuple), added+1); err != nil {
				return err
			}
			if !complete {
				return nil
			}
		}
		return nil
	}
	if err := rec(0, db, 0); err != nil {
		return false, err
	}
	return complete, nil
}

// ReferenceRCDP mirrors RCDP through ReferenceGroundComplete. Like the
// production deciders it fans the per-model brute-force checks out
// over Options.Parallelism workers: strong looks for the first
// incomplete model, viable for the first complete one.
func (p *Problem) ReferenceRCDP(ci *ctable.CInstance, m Model, extra int) (bool, error) {
	return p.ReferenceRCDPCtx(context.Background(), ci, m, extra)
}

// ReferenceRCDPCtx is ReferenceRCDP honoring the context's deadline.
func (p *Problem) ReferenceRCDPCtx(ctx context.Context, ci *ctable.CInstance, m Model, extra int) (_ bool, err error) {
	ctx, c := p.enter(ctx, "reference_rcdp_"+m.String(), "verdict undecided after %d models")
	defer c.exit(&err)
	d, err := p.domainsFor(ci, p.Query.Calc != nil && p.Query.Lang() != FO, true)
	if err != nil {
		return false, err
	}
	if m == Weak {
		return p.referenceWeakComplete(ctx, ci, extra)
	}
	var any atomic.Bool
	var genErr error
	probe := func(ctx context.Context, idx int, db *relation.Database) (struct{}, bool, error) {
		ok, err := p.satisfiesCCs(ctx, db)
		if err != nil || !ok {
			return struct{}{}, false, err
		}
		any.Store(true)
		complete, err := p.ReferenceGroundCompleteCtx(ctx, db, extra)
		if err != nil {
			return struct{}{}, false, err
		}
		if m == Strong {
			return struct{}{}, !complete, nil // hit = refutation
		}
		return struct{}{}, complete, nil // hit = witness
	}
	_, found, err := search.FirstHit(ctx, p.Options.workers(), p.Options.Obs,
		p.modelCandidates(ctx, ci, d, &genErr), probe)
	if err != nil {
		return false, err
	}
	if !found && genErr != nil {
		return false, genErr
	}
	if !any.Load() {
		return false, ErrInconsistent
	}
	if m == Strong {
		return !found, nil
	}
	return found, nil
}

// referenceWeakComplete computes the weak-model definition directly:
// ∩_{I∈Mod} Q(I) versus ∩_{I∈Mod, I'∈Ext(I), |I'\I| ≤ extra} Q(I').
// The per-model extension sweeps — the expensive dimension — run on
// the worker pool; each produces the model's answers and its local
// extension-answer intersection, merged in enumeration order so the
// reference stays bit-deterministic.
func (p *Problem) referenceWeakComplete(ctx context.Context, ci *ctable.CInstance, extra int) (bool, error) {
	dom, err := p.domainsFor(ci, false, true)
	if err != nil {
		return false, err
	}
	adm := dom.a
	var certT []relation.Tuple
	universeT := true
	var certExt []relation.Tuple
	universeExt := true
	anyModel := false
	anyExt := false
	type modelSweep struct {
		isModel     bool
		ans         []relation.Tuple
		ext         []relation.Tuple
		universeExt bool
		anyExt      bool
	}
	probe := func(ctx context.Context, idx int, db *relation.Database) (modelSweep, error) {
		s := modelSweep{universeExt: true}
		ok, err := p.satisfiesCCs(ctx, db)
		if err != nil || !ok {
			return s, err
		}
		s.isModel = true
		s.ans, err = p.answers(ctx, db)
		if err != nil {
			return s, err
		}
		// Enumerate extensions of db with up to extra added tuples.
		var lattice []relation.Located
		for _, r := range p.Schema.Relations() {
			done, err := p.tuplesOver(ctx, r, adm, func(t relation.Tuple) (bool, error) {
				if !db.Relation(r.Name).Contains(t) {
					lattice = append(lattice, relation.Located{Rel: r.Name, Tuple: t})
				}
				return true, nil
			})
			if err != nil {
				return s, err
			}
			if !done {
				return s, p.budgetErr("reference lattice over "+r.Name, "MaxValuations",
					int64(p.Options.MaxValuations), int64(p.Options.MaxValuations))
			}
		}
		var rec func(start int, cur *relation.Database, added int) error
		rec = func(start int, cur *relation.Database, added int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if added > 0 {
				closed, err := p.satisfiesCCs(ctx, cur)
				if err != nil {
					return err
				}
				if !closed {
					return nil
				}
				s.anyExt = true
				ans, err := p.answers(ctx, cur)
				if err != nil {
					return err
				}
				s.ext, s.universeExt = intersectTuples(s.ext, s.universeExt, ans)
			}
			if added == extra {
				return nil
			}
			for i := start; i < len(lattice); i++ {
				if err := rec(i+1, cur.WithTuple(lattice[i].Rel, lattice[i].Tuple), added+1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := rec(0, db, 0); err != nil {
			return s, err
		}
		return s, nil
	}
	var genErr error
	_, err = search.ForEachOrdered(ctx, p.Options.workers(), p.Options.Obs,
		p.modelCandidates(ctx, ci, dom, &genErr), probe,
		func(idx int, s modelSweep) (bool, error) {
			if !s.isModel {
				return true, nil
			}
			anyModel = true
			certT, universeT = intersectTuples(certT, universeT, s.ans)
			if s.anyExt {
				anyExt = true
			}
			if !s.universeExt {
				certExt, universeExt = intersectTuples(certExt, universeExt, s.ext)
			}
			return true, nil
		})
	if err != nil {
		return false, err
	}
	if genErr != nil {
		return false, genErr
	}
	if !anyModel {
		return false, ErrInconsistent
	}
	if !anyExt {
		return true, nil
	}
	inT := make(map[string]bool, len(certT))
	for _, t := range certT {
		inT[t.Key()] = true
	}
	for _, t := range certExt {
		if !inT[t.Key()] {
			return false, nil
		}
	}
	// Certain answers over extensions must equal certain answers over
	// models; by monotonicity certT ⊆ certExt always holds, so
	// containment the other way suffices.
	if p.Query.Monotone() {
		return true, nil
	}
	return false, fmt.Errorf("reference weak completeness for FO: %w", ErrUndecidable)
}

// sameAnswers reports whether Q agrees on two databases.
func (p *Problem) sameAnswers(ctx context.Context, db1, db2 *relation.Database) (bool, error) {
	a1, err := p.answers(ctx, db1)
	if err != nil {
		return false, err
	}
	a2, err := p.answers(ctx, db2)
	if err != nil {
		return false, err
	}
	return equalTupleSets(a1, a2), nil
}

func equalTupleSets(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]bool, len(a))
	for _, t := range a {
		seen[t.Key()] = true
	}
	for _, t := range b {
		if !seen[t.Key()] {
			return false
		}
	}
	return true
}
