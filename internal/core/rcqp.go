package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"relcomplete/internal/adom"
	"relcomplete/internal/cc"
	"relcomplete/internal/ctable"
	"relcomplete/internal/obs"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
	"relcomplete/internal/search"
)

// This file implements RCQP in the strong and viable models (they
// coincide by Lemma 4.4 / Corollary 6.2, and equal the ground problem).
// The general problem is NEXPTIME-complete (Theorem 4.5); two exact
// procedures are provided:
//
//   - when every CC is a projection (IND-shaped) constraint, the
//     boundedness characterisation of Corollary 7.2 / [Fan & Geerts
//     2009, Prop. 4.3] decides the problem in PTIME for fixed queries;
//   - otherwise a bounded witness search over instances drawn from the
//     active domain: sound for "yes", and ErrInconclusive when no
//     witness exists within Options.RCQPSizeBound (the exact witness
//     bound of the NEXPTIME procedure is exponential in |Q| + |V|).
//
// FO and FP are undecidable (Theorem 4.5).

// rcqpFreshValues is how many anonymous fresh constants the bounded
// RCQP search adds to the active domain when inventing instances.
const rcqpFreshValues = 2

func (p *Problem) rcqpStrongOrViable(ctx context.Context, m Model) (_ bool, err error) {
	viaBoundedness := p.allProjectionCCs()
	partial := "no witness found in %d models"
	if viaBoundedness {
		partial = ""
	}
	ctx, c := p.enter(ctx, "rcqp", partial)
	defer c.exit(&err)
	switch p.Query.Lang() {
	case FO, FP:
		return false, fmt.Errorf("RCQP(%s), %s model: %w", p.Query.Lang(), m, ErrUndecidable)
	}
	if viaBoundedness {
		return p.rcqpViaBoundedness(ctx)
	}
	return p.rcqpBoundedSearch(ctx)
}

func (p *Problem) allProjectionCCs() bool {
	if p.CCs == nil {
		return true
	}
	for _, c := range p.CCs.Constraints {
		if !cc.IsProjectionCC(c) {
			return false
		}
	}
	return true
}

// rcqpViaBoundedness decides RCQPs exactly when CCs are INDs:
// RCQ(Q, Dm, V) is non-empty iff every disjunct of Q is bounded by
// (Dm, V), or Q has no valid valuation over Adom consistent with V.
func (p *Problem) rcqpViaBoundedness(ctx context.Context) (bool, error) {
	bounded, err := p.QueryBounded()
	if err != nil {
		return false, err
	}
	if bounded {
		return true, nil
	}
	sat, err := p.querySatisfiableUnderCCs(ctx)
	if err != nil {
		return false, err
	}
	return !sat, nil
}

// QueryBounded reports whether every CQ disjunct of the query is
// bounded by (Dm, V): each head variable appears either at an attribute
// with a finite domain, or at an attribute position covered by the
// projection list of some IND-shaped CC from that relation (so master
// data caps the values the answer may take).
func (p *Problem) QueryBounded() (bool, error) {
	tabs, err := p.disjunctTableaux()
	if err != nil {
		return false, err
	}
	for _, tab := range tabs {
		for _, h := range tab.Head {
			if !h.IsVar {
				continue
			}
			if !p.varBounded(tab, h.Name) {
				return false, nil
			}
		}
	}
	return true, nil
}

// varBounded reports whether variable y of the tableau occurs at some
// bounded position.
func (p *Problem) varBounded(tab *query.Tableau, y string) bool {
	for _, a := range tab.Atoms {
		rel := p.Schema.Relation(a.Rel)
		if rel == nil {
			continue
		}
		for i, t := range a.Terms {
			if !t.IsVar || t.Name != y {
				continue
			}
			if rel.DomainAt(i).IsFinite() {
				return true
			}
			if p.positionCoveredByIND(a.Rel, i) {
				return true
			}
		}
	}
	// A head variable pinned to a constant by an equality condition is
	// also bounded.
	for _, c := range tab.Compares {
		if c.Op != query.Eq {
			continue
		}
		if c.L.IsVar && c.L.Name == y && !c.R.IsVar {
			return true
		}
		if c.R.IsVar && c.R.Name == y && !c.L.IsVar {
			return true
		}
	}
	return false
}

// positionCoveredByIND reports whether some projection CC q(R) ⊆ p(Rm)
// in V projects relation rel on a list including attribute position i.
func (p *Problem) positionCoveredByIND(rel string, pos int) bool {
	if p.CCs == nil {
		return false
	}
	for _, c := range p.CCs.Constraints {
		tab, err := query.TableauOf(c.Left)
		if err != nil || len(tab.Atoms) != 1 || tab.Atoms[0].Rel != rel {
			continue
		}
		atom := tab.Atoms[0]
		if pos >= len(atom.Terms) || !atom.Terms[pos].IsVar {
			continue
		}
		target := atom.Terms[pos].Name
		for _, h := range c.Left.Head {
			if h.IsVar && h.Name == target {
				return true
			}
		}
	}
	return false
}

// querySatisfiableUnderCCs reports whether some valuation µ of a
// disjunct tableau over Adom yields a non-empty answer with
// (µ(TQ), Dm) ⊨ V — a "valid valuation" in the terminology of
// [Fan & Geerts 2009].
func (p *Problem) querySatisfiableUnderCCs(ctx context.Context) (bool, error) {
	tabs, err := p.disjunctTableaux()
	if err != nil {
		return false, err
	}
	a, err := p.adomFor(nil, true, false)
	if err != nil {
		return false, err
	}
	for _, tab := range tabs {
		cands := make([][]relation.Value, len(tab.Vars))
		for i, v := range tab.Vars {
			cands[i] = p.tableauVarCandidates(tab, v, a)
		}
		found := false
		err := p.forEachValuation(ctx, tab.Vars, cands, func(mu ctable.Valuation) (bool, error) {
			if !tab.SatisfiedBy(mu) {
				return true, nil
			}
			db, ok, err := p.factsToDatabase(tab, mu)
			if err != nil {
				return false, err
			}
			if !ok {
				return true, nil
			}
			closed, err := p.satisfiesCCs(ctx, db)
			if err != nil {
				return false, err
			}
			if closed {
				found = true
				return false, nil
			}
			return true, nil
		})
		if err != nil {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	return false, nil
}

// tableauVarCandidates lists the values the satisfiability check gives
// a tableau variable: the Adom's values that lie in the finite domain of
// every column the variable fills, in Adom order, or the whole Adom when
// none of its columns is finite. factsToDatabase discards a valuation
// that puts a value outside a finite domain, so the rest are exactly
// the valuations that can yield a database, in the same order.
func (p *Problem) tableauVarCandidates(tab *query.Tableau, v string, a *adom.Adom) []relation.Value {
	var doms []*relation.Domain
	for _, atom := range tab.Atoms {
		r := p.Schema.Relation(atom.Rel)
		for i, t := range atom.Terms {
			if r != nil && t.IsVar && t.Name == v && r.DomainAt(i).IsFinite() {
				doms = append(doms, r.DomainAt(i))
			}
		}
	}
	if len(doms) == 0 {
		return a.Values()
	}
	var out []relation.Value
	for _, x := range a.Values() {
		if !slices.ContainsFunc(doms, func(d *relation.Domain) bool { return !d.Contains(x) }) {
			out = append(out, x)
		}
	}
	return out
}

// factsToDatabase materialises µ(TQ) as a database; ok is false when a
// fact leaves its attribute's finite domain.
func (p *Problem) factsToDatabase(tab *query.Tableau, mu ctable.Valuation) (*relation.Database, bool, error) {
	facts, err := tab.Instantiate(mu)
	if err != nil {
		return nil, false, err
	}
	db := relation.NewDatabase(p.Schema)
	for _, f := range facts {
		rel := p.Schema.Relation(f.Rel)
		if rel == nil {
			return nil, false, fmt.Errorf("relcomplete: query atom over unknown relation %s", f.Rel)
		}
		if !rel.Admits(f.Tuple) {
			return nil, false, nil
		}
		db.MustInsert(f.Rel, f.Tuple)
	}
	return db, true, nil
}

// rcqpBoundedSearch hunts for a complete ground instance of size at
// most Options.RCQPSizeBound whose values come from Adom extended with
// a few anonymous fresh constants. Finding one proves RCQ non-empty
// (Lemma 4.4); exhausting the bound returns ErrInconclusive.
func (p *Problem) rcqpBoundedSearch(ctx context.Context) (bool, error) {
	bound := p.Options.rcqpSizeBound()
	builder := adom.NewBuilder().
		AddDatabase(p.Master).
		AddCCs(p.CCs).
		AddSchemaFiniteDomains(p.Schema)
	qc := relation.NewValueSet()
	p.Query.Constants(qc)
	builder.AddConstants(qc)
	for i := 0; i < rcqpFreshValues; i++ {
		builder.AddVars([]string{fmt.Sprintf("rcqp_fresh_%d", i)})
	}
	if query.IsPositiveExistential(p.Query.Calc) {
		tabs, err := p.disjunctTableaux()
		if err != nil {
			return false, err
		}
		for _, tab := range tabs {
			builder.AddVars(tab.Vars)
		}
	}
	d, err := p.domainsOver(nil, builder.Build())
	if err != nil {
		return false, err
	}

	// Materialise the tuple lattice.
	var lattice []relation.Located
	for _, r := range p.Schema.Relations() {
		_, err := p.latticeOver(ctx, r, d, nil, func(t relation.Tuple) (bool, error) {
			lattice = append(lattice, relation.Located{Rel: r.Name, Tuple: t})
			return true, nil
		})
		if err != nil {
			return false, err
		}
	}

	// The DFS over candidate instances fans out at its first level: each
	// choice of lowest lattice tuple roots an independent subtree, probed
	// in parallel with its own local instance. The check budget is a
	// shared atomic so the total work stays capped; at workers=1 the
	// inline first-hit loop replays the exact sequential DFS pre-order.
	var tried atomic.Int64
	check := func(cctx context.Context, db *relation.Database) (bool, error) {
		if err := cctx.Err(); err != nil {
			return false, err
		}
		if n := tried.Add(1); p.Options.MaxValuations > 0 && n > int64(p.Options.MaxValuations) {
			return false, p.budgetErr("RCQP search", "MaxValuations",
				int64(p.Options.MaxValuations), n)
		}
		// Each candidate counts as a model checked, and admitted when
		// partially closed, as checkModel counts them; the deadline
		// partial reports the count.
		m := p.Options.Obs
		m.Inc(obs.ModelsChecked)
		closed, err := p.satisfiesCCs(cctx, db)
		if err != nil || !closed {
			return false, err
		}
		m.Inc(obs.ModelsAdmitted)
		// The search's own Adom is a valid bounded-check domain for
		// every candidate (their constants come from it), so the
		// single-tuple candidate set is computed once and shared.
		ans, err := p.answers(cctx, db)
		if err != nil {
			return false, err
		}
		cex, err := p.boundedCounterexample(cctx, db, ans, d, false)
		if err != nil {
			return false, err
		}
		return cex == nil, nil
	}
	var subtree func(sctx context.Context, cur *relation.Database, start, remaining int) (bool, error)
	subtree = func(sctx context.Context, cur *relation.Database, start, remaining int) (bool, error) {
		ok, err := check(sctx, cur)
		if err != nil || ok {
			return ok, err
		}
		if remaining == 0 {
			return false, nil
		}
		for i := start; i < len(lattice); i++ {
			loc := lattice[i]
			if cur.Relation(loc.Rel).Contains(loc.Tuple) {
				continue
			}
			ok, err := subtree(sctx, cur.WithTuple(loc.Rel, loc.Tuple), i+1, remaining-1)
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	}
	empty := relation.NewDatabase(p.Schema)
	ok, err := check(ctx, empty)
	if err != nil {
		return false, err
	}
	found := ok
	if !found && bound > 0 {
		gen := func(yield func(int) bool) {
			for i := range lattice {
				if !yield(i) {
					return
				}
			}
		}
		probe := func(pctx context.Context, idx int, first int) (struct{}, bool, error) {
			ok, err := subtree(pctx, empty.WithTuple(lattice[first].Rel, lattice[first].Tuple), first+1, bound-1)
			return struct{}{}, ok, err
		}
		_, found, err = search.FirstHit(ctx, p.Options.workers(), p.Options.Obs, gen, probe)
		if err != nil {
			return false, err
		}
	}
	if found {
		return true, nil
	}
	return false, p.inconclusiveErr(fmt.Sprintf("RCQP: searched instances of size ≤ %d", bound),
		"RCQPSizeBound", int64(bound), tried.Load())
}
