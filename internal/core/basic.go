package core

import (
	"context"

	"relcomplete/internal/adom"
	"relcomplete/internal/ctable"
	"relcomplete/internal/obs"
	"relcomplete/internal/relation"
	"relcomplete/internal/search"
)

// This file implements the basic analyses of Section 3: partial
// closure, the consistency problem and the extensibility problem
// (Proposition 3.3, both Σp2-complete), plus the shared enumeration of
// ModAdom(T, Dm, V) every decider is built on.

// PartiallyClosed reports whether the ground instance satisfies V, i.e.
// (I, Dm) ⊨ V.
func (p *Problem) PartiallyClosed(db *relation.Database) (bool, error) {
	return p.PartiallyClosedCtx(context.Background(), db)
}

// PartiallyClosedCtx is PartiallyClosed honoring the context's deadline
// and cancellation; an abort surfaces as a *DeadlineError.
func (p *Problem) PartiallyClosedCtx(ctx context.Context, db *relation.Database) (_ bool, err error) {
	ctx, c := p.enter(ctx, "partial_closure", "")
	defer c.exit(&err)
	return p.satisfiesCCs(ctx, db)
}

// forEachModel enumerates ModAdom(T, Dm, V): for every candidate of
// modelCandidates with (µ(T), Dm) ⊨ V, fn is called with µ(T), until fn
// returns false. The context is consulted per valuation, so a deadline
// interrupts the enumeration itself, not just the work between
// candidates.
func (p *Problem) forEachModel(ctx context.Context, ci *ctable.CInstance, d *domains,
	fn func(db *relation.Database) (bool, error)) error {
	var genErr, err error
	cont := true
	p.modelCandidates(ctx, ci, d, &genErr)(func(db *relation.Database) bool {
		var model bool
		if model, err = p.checkModel(ctx, db); model {
			cont, err = fn(db)
		}
		return cont && err == nil
	})
	if err != nil {
		return err
	}
	return genErr
}

// modelCandidates adapts the ModAdom candidate enumeration to a
// search.Generator for the parallel deciders. Valuations are applied
// and deduplicated on the generator goroutine — the enumerators reuse
// one mutable valuation map, so ci.Apply must not escape to workers —
// and each yielded database is fresh and immutable thereafter.
// Distinct valuations yielding the same ground instance are
// deduplicated by the tuples each adds beyond T's ground prefix
// (ApplyKeyed). The CC check is left to the probes (it is part of the
// per-candidate work worth parallelising), so candidates here are
// "potential models": deduplicated ground instances not yet filtered
// by V.
//
// Enumeration failures (ErrBudget, condition errors) are reported
// through genErr, which the caller must read only after the search
// returns (the search joins its goroutines, establishing the needed
// happens-before edge). A decisive search outcome takes precedence
// over genErr: the sequential loop would have stopped at the decisive
// candidate before ever reaching the enumeration failure, since the
// generator outruns the probes only in the parallel schedule.
func (p *Problem) modelCandidates(ctx context.Context, ci *ctable.CInstance, d *domains, genErr *error) search.Generator[*relation.Database] {
	return func(yield func(*relation.Database) bool) {
		seen := map[string]bool{}
		visit := func(mu ctable.Valuation) (bool, error) {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			p.Options.Obs.Inc(obs.ValuationsEnumerated)
			db, key, err := ci.ApplyKeyed(mu)
			if err != nil {
				return false, err
			}
			if seen[key] {
				return true, nil
			}
			seen[key] = true
			return yield(db), nil
		}
		var err error
		if d.ty != nil {
			err = p.enumerateTyped(ci, d.a, d.ty, visit)
		} else {
			err = d.a.Enumerate(ci.Vars(), ci.VarDomains(), p.Options.MaxValuations, visit)
		}
		if err != nil {
			*genErr = err
		}
	}
}

// Consistent decides the consistency problem: is Mod(T, Dm, V)
// non-empty? (Proposition 3.3; Σp2-complete.) The CC checks of the
// candidate valuations fan out over Options.Parallelism workers.
func (p *Problem) Consistent(ci *ctable.CInstance) (bool, error) {
	return p.ConsistentCtx(context.Background(), ci)
}

// ConsistentCtx is Consistent honoring the context's deadline and
// cancellation; an abort surfaces as a *DeadlineError.
func (p *Problem) ConsistentCtx(ctx context.Context, ci *ctable.CInstance) (_ bool, err error) {
	ctx, c := p.enter(ctx, "consistency", "no model found among %d candidates checked")
	defer c.exit(&err)
	d, err := p.domainsFor(ci, false, false)
	if err != nil {
		return false, err
	}
	var genErr error
	probe := func(ctx context.Context, idx int, db *relation.Database) (struct{}, bool, error) {
		ok, err := p.checkModel(ctx, db)
		return struct{}{}, ok, err
	}
	_, found, err := search.FirstHit(ctx, p.Options.workers(), p.Options.Obs,
		p.modelCandidates(ctx, ci, d, &genErr), probe)
	if err != nil {
		return false, err
	}
	if !found && genErr != nil {
		return false, genErr
	}
	return found, nil
}

// AnyModel returns one member of ModAdom(T, Dm, V), or nil when the
// c-instance is inconsistent.
func (p *Problem) AnyModel(ci *ctable.CInstance) (*relation.Database, error) {
	return p.AnyModelCtx(context.Background(), ci)
}

// AnyModelCtx is AnyModel honoring the context's deadline.
func (p *Problem) AnyModelCtx(ctx context.Context, ci *ctable.CInstance) (_ *relation.Database, err error) {
	ctx, c := p.enter(ctx, "any_model", "no model found among %d candidates checked")
	defer c.exit(&err)
	d, err := p.domainsFor(ci, false, false)
	if err != nil {
		return nil, err
	}
	var out *relation.Database
	err = p.forEachModel(ctx, ci, d, func(db *relation.Database) (bool, error) {
		out = db
		return false, nil
	})
	return out, err
}

// Models materialises ModAdom(T, Dm, V) up to max instances (0 = all).
func (p *Problem) Models(ci *ctable.CInstance, max int) ([]*relation.Database, error) {
	return p.ModelsCtx(context.Background(), ci, max)
}

// ModelsCtx is Models honoring the context's deadline.
func (p *Problem) ModelsCtx(ctx context.Context, ci *ctable.CInstance, max int) (_ []*relation.Database, err error) {
	ctx, c := p.enter(ctx, "models", "%d candidates checked")
	defer c.exit(&err)
	d, err := p.domainsFor(ci, false, false)
	if err != nil {
		return nil, err
	}
	var out []*relation.Database
	err = p.forEachModel(ctx, ci, d, func(db *relation.Database) (bool, error) {
		out = append(out, db)
		return max == 0 || len(out) < max, nil
	})
	return out, err
}

// Extensible decides the extensibility problem: is Ext(I, Dm, V)
// non-empty? By monotonicity of the CQ queries defining CCs it
// suffices to try single-tuple extensions over the active domain
// (Proposition 3.3; Σp2-complete).
func (p *Problem) Extensible(db *relation.Database) (bool, error) {
	return p.ExtensibleCtx(context.Background(), db)
}

// ExtensibleCtx is Extensible honoring the context's deadline.
func (p *Problem) ExtensibleCtx(ctx context.Context, db *relation.Database) (_ bool, err error) {
	ctx, c := p.enter(ctx, "extensibility", "no admissible extension among %d candidates checked")
	defer c.exit(&err)
	d, err := p.buildDomains(ctable.FromDatabase(db), false, true)
	if err != nil {
		return false, err
	}
	found := false
	err = p.forEachSingleTupleExtension(ctx, db, d, func(ext *relation.Database, rel string, t relation.Tuple) (bool, error) {
		found = true
		return false, nil
	})
	return found, err
}

// forEachSingleTupleExtension enumerates every partially closed
// extension I ∪ {t} of db with t a fresh tuple over the active domain
// (respecting finite attribute domains).
func (p *Problem) forEachSingleTupleExtension(ctx context.Context, db *relation.Database, d *domains,
	fn func(ext *relation.Database, rel string, t relation.Tuple) (bool, error)) error {
	for _, r := range p.Schema.Relations() {
		cont, err := p.latticeOver(ctx, r, d, func(t relation.Tuple) (bool, error) {
			if db.Relation(r.Name).Contains(t) {
				return true, nil
			}
			p.Options.Obs.Inc(obs.ExtensionsTested)
			ext := db.WithTuple(r.Name, t)
			ok, err := p.satisfiesCCs(ctx, ext)
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil
			}
			return fn(ext, r.Name, t)
		})
		if err != nil || !cont {
			return err
		}
	}
	return nil
}

// latticeOver enumerates the candidate lattice of one relation under
// the typing (or the full Adom lattice when typing is off).
func (p *Problem) latticeOver(ctx context.Context, r *relation.Schema, d *domains,
	fn func(t relation.Tuple) (bool, error)) (bool, error) {
	if d.ty != nil {
		return p.typedTuplesOver(ctx, r, d.a, d.ty, fn)
	}
	return p.tuplesOver(ctx, r, d.a, fn)
}

// tuplesOver enumerates the tuples of the lattice L for one relation:
// every combination of active-domain values admissible in the
// relation's attribute domains. It reports whether enumeration ran to
// completion. The context is consulted per leaf, so a deadline
// interrupts even a lattice whose callback never stops it.
func (p *Problem) tuplesOver(ctx context.Context, r *relation.Schema, a *adom.Adom,
	fn func(t relation.Tuple) (bool, error)) (bool, error) {
	t := make(relation.Tuple, r.Arity())
	tried := 0
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == r.Arity() {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			tried++
			if p.Options.MaxValuations > 0 && tried > p.Options.MaxValuations {
				return false, p.budgetErr("tuple lattice over "+r.Name, "MaxValuations",
					int64(p.Options.MaxValuations), int64(tried))
			}
			return fn(t.Clone())
		}
		for _, v := range a.CandidatesFor(r.DomainAt(i)) {
			t[i] = v
			cont, err := rec(i + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	return rec(0)
}
