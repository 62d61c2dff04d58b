package core

import (
	"context"
	"sync/atomic"

	"relcomplete/internal/ctable"
	"relcomplete/internal/obs"
	"relcomplete/internal/relation"
	"relcomplete/internal/search"
)

// This file implements the basic analyses of Section 3: partial
// closure, the consistency problem and the extensibility problem
// (Proposition 3.3, both Σp2-complete), plus the enumerations every
// decider is built on: ModAdom(T, Dm, V), the valuations behind it and
// the candidate tuple lattice, all walked by one product enumerator.

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

// candidates adapts the ModAdom candidate enumeration to a
// search.Generator for the parallel deciders. Valuations are applied
// and deduplicated on the generator goroutine — the enumerator reuses
// one mutable valuation map, so it must not escape to workers — and
// each yielded candidate is fresh and immutable thereafter. Distinct
// valuations yielding the same ground instance are deduplicated by the
// key of the tuples each adds beyond T's ground prefix
// (CInstance.Candidate), which is computed before, and instead of,
// building the instance. The CC check is left to the probes (it is part
// of the per-candidate work worth parallelising, see checkModel), so
// candidates here are "potential models": deduplicated ground instances
// not yet filtered by V. d must be ci's domains: its variable
// candidates are ci's. The generator returns the enumeration's failure
// (ErrBudget, condition errors).
func (p *Problem) candidates(ctx context.Context, ci *ctable.CInstance, d *domains) search.Generator[ctable.Candidate] {
	return func(yield func(ctable.Candidate) bool) error {
		seen := map[string]bool{}
		return p.forEachValuation(ctx, d.vars, d.cands, func(mu ctable.Valuation) (bool, error) {
			p.Options.Obs.Inc(obs.ValuationsEnumerated)
			c, err := ci.Candidate(mu)
			if err != nil {
				return false, err
			}
			if seen[c.Key] {
				return true, nil
			}
			seen[c.Key] = true
			return yield(c), nil
		})
	}
}

// firstModel scans ModAdom(T, Dm, V) on search.FirstHit: each probe
// checks one candidate (checkModel) and passes an admitted model to fn,
// whose hit is decisive. It returns the lowest-index hit, whether there
// was one, and whether any candidate was a model. The last is exact
// whenever the scan ends without an error: a hit is a model, and a scan
// without a hit probed every candidate. d must be ci's domains.
func firstModel[R any](ctx context.Context, p *Problem, ci *ctable.CInstance, d *domains,
	fn search.Probe[*model, R]) (_ search.Hit[R], found, anyModel bool, _ error) {
	var admitted atomic.Bool
	hit, found, err := search.FirstHit(ctx, p.Options.workers(), p.Options.Obs, p.candidates(ctx, ci, d),
		func(ctx context.Context, idx int, c ctable.Candidate) (R, bool, error) {
			m, err := p.checkModel(ctx, d, c)
			if err != nil || m == nil {
				var none R
				return none, false, err
			}
			admitted.Store(true)
			return fn(ctx, idx, m)
		})
	return hit, found, admitted.Load(), err
}

// foldModels scans ModAdom(T, Dm, V) on search.ForEachOrdered: each
// probe checks one candidate and maps an admitted model to a result
// with fn, and consume receives the models' results in enumeration
// order until it returns false. d must be ci's domains.
func foldModels[R any](ctx context.Context, p *Problem, ci *ctable.CInstance, d *domains,
	fn func(ctx context.Context, m *model) (R, error), consume func(r R) (bool, error)) error {
	type result struct {
		val     R
		isModel bool
	}
	_, err := search.ForEachOrdered(ctx, p.Options.workers(), p.Options.Obs, p.candidates(ctx, ci, d),
		func(ctx context.Context, idx int, c ctable.Candidate) (result, error) {
			m, err := p.checkModel(ctx, d, c)
			if err != nil || m == nil {
				return result{}, err
			}
			val, err := fn(ctx, m)
			return result{val, true}, err
		},
		func(idx int, r result) (bool, error) {
			if !r.isModel {
				return true, nil
			}
			return consume(r.val)
		})
	return err
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
	_, found, _, err := firstModel(ctx, p, ci, d, func(context.Context, int, *model) (struct{}, bool, error) {
		return struct{}{}, true, nil
	})
	return found, err
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
	hit, _, _, err := firstModel(ctx, p, ci, d, func(_ context.Context, _ int, m *model) (*relation.Database, bool, error) {
		return m.db(), true, nil
	})
	return hit.Value, err
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
	err = foldModels(ctx, p, ci, d, func(_ context.Context, m *model) (*relation.Database, error) {
		return m.db(), nil
	}, func(db *relation.Database) (bool, error) {
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
	err = p.forEachExtension(ctx, db, d, false, func(*relation.Database, string, relation.Tuple) (bool, error) {
		found = true
		return false, nil
	})
	return found, err
}

// forEachExtension enumerates every partially closed
// extension I ∪ {t} of db with t a fresh tuple over the active domain
// (respecting finite attribute domains). closed reports that db itself
// is partially closed: with tuple-local CCs each extension is then
// checked by {t} alone and fn gets a nil ext, to build with
// db.WithTuple if it needs it. Otherwise fn gets the extension it was
// checked on.
func (p *Problem) forEachExtension(ctx context.Context, db *relation.Database, d *domains, closed bool,
	fn func(ext *relation.Database, rel string, t relation.Tuple) (bool, error)) error {
	delta := closed && p.locality().ccs
	for _, r := range p.Schema.Relations() {
		cont, err := p.latticeOver(ctx, r, d, nil, func(t relation.Tuple) (bool, error) {
			if db.Relation(r.Name).Contains(t) {
				return true, nil
			}
			p.Options.Obs.Inc(obs.ExtensionsTested)
			var ext *relation.Database
			var ok bool
			var err error
			if delta {
				ok, err = p.satisfiesCCs(ctx, p.deltaDatabase(relation.Located{Rel: r.Name, Tuple: t}))
			} else {
				ext = db.WithTuple(r.Name, t)
				ok, err = p.satisfiesCCs(ctx, ext)
			}
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

// latticeOver enumerates the candidate lattice of one relation: every
// tuple whose column i holds pins[i] when pinned (pins may be nil) and
// otherwise one of d's candidates at (r, i), until fn returns false or
// an error. It reports whether the enumeration ran to completion. Each
// tuple passed to fn is fresh.
func (p *Problem) latticeOver(ctx context.Context, r *relation.Schema, d *domains, pins map[int]relation.Value,
	fn func(t relation.Tuple) (bool, error)) (bool, error) {
	cols := make([][]relation.Value, r.Arity())
	for i := range cols {
		v, pinned := pins[i]
		switch {
		case !pinned:
			cols[i] = d.ty.candidatesAt(position{rel: r.Name, col: i}, r.DomainAt(i), d.a)
		case r.DomainAt(i).Contains(v):
			cols[i] = []relation.Value{v}
		default:
			return true, nil // a constant outside the domain: no tuples
		}
	}
	return p.product(ctx, "tuple lattice over "+r.Name, cols, func(row []relation.Value) (bool, error) {
		return fn(relation.Tuple(row).Clone())
	})
}

// forEachValuation calls fn with every valuation of vars that gives
// vars[i] one of cands[i], until fn returns false or an error. The
// valuation map is reused between calls.
func (p *Problem) forEachValuation(ctx context.Context, vars []string, cands [][]relation.Value,
	fn func(mu ctable.Valuation) (bool, error)) error {
	mu := make(ctable.Valuation, len(vars))
	_, err := p.product(ctx, "valuation enumeration", cands, func(row []relation.Value) (bool, error) {
		for i, v := range vars {
			mu[v] = row[i]
		}
		return fn(mu)
	})
	return err
}

// product calls fn with every row whose value i is one of cols[i], in
// the order of the lists, until fn returns false or an error, and
// reports whether it ran to completion. The row is reused between
// calls. The context is consulted per row, so a deadline interrupts
// even an enumeration whose callback never stops it, and
// Options.MaxValuations caps the rows: the first row past the cap fails
// with a BudgetError naming op.
func (p *Problem) product(ctx context.Context, op string, cols [][]relation.Value,
	fn func(row []relation.Value) (bool, error)) (bool, error) {
	row := make([]relation.Value, len(cols))
	tried := 0
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(cols) {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			tried++
			if limit := p.Options.MaxValuations; limit > 0 && tried > limit {
				return false, p.budgetErr(op, "MaxValuations", int64(limit), int64(tried))
			}
			return fn(row)
		}
		for _, v := range cols[i] {
			row[i] = v
			if cont, err := rec(i + 1); err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	return rec(0)
}
