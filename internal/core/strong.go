package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"relcomplete/internal/ctable"
	"relcomplete/internal/obs"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
	"relcomplete/internal/search"
)

// This file implements the strong completeness model (Section 4):
// RCDPs via the characterisation of Lemmas 4.2/4.3 (Theorem 4.1,
// Πp2-complete for CQ/UCQ/∃FO+), and MINPs via Lemma 4.7 and the
// Theorem 4.8 algorithm (Πp3-complete for c-instances, Dp2-complete for
// ground instances). FO and FP are undecidable in this model.

// Counterexample witnesses a failure of relative completeness: a model
// I of the c-instance and a partially closed extension I' on which the
// query answer grows.
type Counterexample struct {
	Model     *relation.Database
	Extension *relation.Database
	Gained    []relation.Tuple // answers in Q(I') \ Q(I)
}

// String renders the counterexample.
func (c *Counterexample) String() string {
	if c == nil {
		return "<complete>"
	}
	return fmt.Sprintf("model %v extended to %v gains answers %v", c.Model, c.Extension, c.Gained)
}

// RCDP decides the relatively complete database problem for the given
// model: is the c-instance T in RCQ(Q, Dm, V)?
func (p *Problem) RCDP(ci *ctable.CInstance, m Model) (bool, error) {
	return p.RCDPCtx(context.Background(), ci, m)
}

// RCDPCtx is RCDP honoring the context's deadline and cancellation; an
// abort surfaces as a *DeadlineError.
func (p *Problem) RCDPCtx(ctx context.Context, ci *ctable.CInstance, m Model) (bool, error) {
	ok, _, err := p.RCDPExplainCtx(ctx, ci, m)
	return ok, err
}

// RCDPExplain is RCDP returning a counterexample on failure (where the
// model's procedure produces one).
func (p *Problem) RCDPExplain(ci *ctable.CInstance, m Model) (bool, *Counterexample, error) {
	return p.RCDPExplainCtx(context.Background(), ci, m)
}

// RCDPExplainCtx is RCDPExplain honoring the context's deadline.
func (p *Problem) RCDPExplainCtx(ctx context.Context, ci *ctable.CInstance, m Model) (ok bool, cex *Counterexample, err error) {
	if sp := obs.SpanFromContext(ctx); sp.Streaming() {
		sp.Event("decide", obs.F("problem", "rcdp"), obs.F("model", m), obs.F("query", p.Query.Name()))
		defer func() {
			if err == nil {
				sp.Event("verdict", obs.F("complete", ok))
			} else {
				sp.Event("verdict", obs.F("error", err))
			}
		}()
	}
	switch m {
	case Strong:
		return p.rcdpStrong(ctx, ci)
	case Weak:
		ok, err := p.rcdpWeak(ctx, ci)
		return ok, nil, err
	default:
		return p.rcdpViable(ctx, ci)
	}
}

// rcdpStrong implements Theorem 4.1: undecidable for FO and FP;
// for CQ/UCQ/∃FO+ it checks, per Lemmas 4.2/4.3, that every
// I ∈ ModAdom(T) is bounded by (Dm, V). The per-model bounded checks
// are independent and fan out over Options.Parallelism workers; the
// first-hit engine returns the counterexample of the lowest-index
// failing model, which is exactly the one the sequential scan reports.
func (p *Problem) rcdpStrong(ctx context.Context, ci *ctable.CInstance) (_ bool, _ *Counterexample, err error) {
	ctx, c := p.enter(ctx, "rcdp_strong", "no counterexample found in %d models")
	defer c.exit(&err)
	switch p.Query.Lang() {
	case FO, FP:
		return false, nil, fmt.Errorf("RCDP(%s), strong model: %w", p.Query.Lang(), ErrUndecidable)
	}
	d, err := p.domainsFor(ci, true, false)
	if err != nil {
		return false, nil, err
	}
	var consistent atomic.Bool
	var genErr error
	probe := func(ctx context.Context, idx int, c ctable.Candidate) (*Counterexample, bool, error) {
		db, ok, err := p.checkModel(ctx, d, c)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		consistent.Store(true)
		ans, err := p.modelAnswers(ctx, d, c, db)
		if err != nil {
			return nil, false, err
		}
		cex, err := p.boundedCounterexample(ctx, db, ans, d, true)
		if err != nil {
			return nil, false, err
		}
		return cex, cex != nil, nil
	}
	hit, found, err := search.FirstHit(ctx, p.Options.workers(), p.Options.Obs,
		p.candidates(ctx, ci, d, &genErr), probe)
	if err != nil {
		return false, nil, err
	}
	if !found && genErr != nil {
		return false, nil, genErr
	}
	if !consistent.Load() {
		return false, nil, ErrInconsistent
	}
	if found {
		return false, hit.Value, nil
	}
	return true, nil, nil
}

// boundedCounterexample checks whether the ground instance I is
// bounded by (Dm, V): for every disjunct tableau Ti of Q and every
// valuation ν of Ti over Adom, if I ∪ ν(Ti) is partially closed then
// Q(I) = Q(I ∪ ν(Ti)). It returns a counterexample when not. The
// caller passes Q(I) as baseAnswers: the deciders that check candidate
// models take it from modelAnswers, the others evaluate Q on I.
//
// Rather than enumerating Adom^|vars| valuations blindly, it
// backtracks over the tableau's atoms, drawing each atom's tuple from
// a pre-filtered candidate set: a new tuple t can participate in a
// partially closed extension only when ({t}, Dm) ⊨ V (CC satisfaction
// is antimonotone in the data), which prunes the lattice down to the
// master-bounded fragment. Variables occurring only in comparisons or
// the head do not influence the extension and are skipped.
//
// I must be partially closed. Every caller passes one: rcdpStrong,
// rcdpViable and minpViable an admitted model, hasCompleteRemoval a
// subset of one (Lemma 4.7(b): CC satisfaction is antimonotone), and
// groundComplete and the RCQP search an instance they have just
// checked. So with tuple-local CCs an extension, whose picks are each
// in I or closed by themselves, is partially closed by the delta rule
// (delta.go) and needs no check; otherwise the whole extension is
// checked, which catches multi-tuple CC violations exactly. With a
// tuple-local query the answers gained are Q(Δ) \ Q(I), Δ being the
// picks I lacks, and the extension is built only for a counterexample
// or a decision event that names it. Callers that use the result only
// as a verdict pass witness false, and a counterexample then carries an
// Extension only if one was built anyway.
func (p *Problem) boundedCounterexample(ctx context.Context, db *relation.Database, baseAnswers []relation.Tuple,
	d *domains, witness bool) (*Counterexample, error) {
	tabs, err := p.disjunctTableaux()
	if err != nil {
		return nil, err
	}
	seenExt := map[string]bool{}
	for _, tab := range tabs {
		cex, err := p.tableauCounterexample(ctx, db, tab, d, baseAnswers, seenExt, witness)
		if err != nil {
			return nil, err
		}
		if cex != nil {
			return cex, nil
		}
	}
	return nil, nil
}

// atomCandKey identifies one memoised pinned lattice: the typing
// signature of the domains it was enumerated over and the tableau atom
// (tableaux are memoised, so atom pointers are stable per problem).
type atomCandKey struct {
	sig  int
	atom *query.Atom
}

// atomCands is one memoised pinned lattice: the closed tuples, and how
// many lattice leaves the enumeration visited to find them.
type atomCands struct {
	tuples  []relation.Tuple
	visited int
}

// atomCandidates returns the constant-pinned closed lattice for one
// atom, memoised per typing signature and master row count. Concurrent
// probes and views share the memo: the first caller computes under its
// lock, later callers reuse the cached slice (read-only by convention).
//
// The lattice enumeration is budget-counted work, and the memo is what
// makes its outcome independent of cache warmth: an entry records the
// leaves its enumeration visited, and a hit under a MaxValuations below
// that count returns the BudgetError the cold enumeration returns.
func (p *Problem) atomCandidates(ctx context.Context, atom *query.Atom, d *domains) ([]relation.Tuple, error) {
	key := atomCandKey{sig: p.latticeSig(d), atom: atom}
	m := p.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refreshClosureLocked(p.Master.Size())
	e, ok := m.atomCands[key]
	if !ok {
		var err error
		if e, err = p.atomClosedCandidates(ctx, atom, d); err != nil {
			return nil, err
		}
		if m.atomCands == nil {
			m.atomCands = map[atomCandKey]atomCands{}
		}
		m.atomCands[key] = e
	}
	if limit := p.Options.MaxValuations; limit > 0 && e.visited > limit {
		return nil, p.budgetErr("tuple lattice over "+atom.Rel, "MaxValuations",
			int64(limit), int64(limit)+1)
	}
	return e.tuples, nil
}

// atomClosedCandidates enumerates the lattice tuples matching an
// atom's constant positions whose singleton instance is partially
// closed — the only tuples the atom can contribute to a partially
// closed extension (CC antimonotonicity). Closure verdicts are
// memoised per tuple across atoms. Callers must hold the memo lock (it
// reads and writes the closure memo); the CC evaluation below never
// touches the memo, so the lock cannot recurse.
func (p *Problem) atomClosedCandidates(ctx context.Context, atom *query.Atom, d *domains) (atomCands, error) {
	r := p.Schema.Relation(atom.Rel)
	pins := map[int]relation.Value{}
	for i, t := range atom.Terms {
		if !t.IsVar {
			pins[i] = t.Const
		}
	}
	m := p.memo
	var out atomCands
	keyBuf := make([]byte, 0, 64)
	_, err := p.latticeOver(ctx, r, d, pins, func(t relation.Tuple) (bool, error) {
		out.visited++
		keyBuf = t.AppendKey(relation.AppendValueKey(keyBuf[:0], relation.Value(atom.Rel)))
		closed, ok := m.closure[string(keyBuf)]
		if !ok {
			var err error
			closed, err = p.satisfiesCCs(ctx, p.deltaDatabase(relation.Located{Rel: r.Name, Tuple: t}))
			if err != nil {
				return false, err
			}
			m.storeClosureLocked(string(keyBuf), closed)
		}
		if closed {
			out.tuples = append(out.tuples, t)
		}
		return true, nil
	})
	return out, err
}

// closureCacheCap bounds the memoised single-tuple closure verdicts; the
// memo is wiped wholesale when full. A resident problem's memo is not
// charged to the registry's cap, and a lattice can be far larger than
// the tuples a decide keeps coming back to.
const closureCacheCap = 1 << 14

// refreshClosureLocked drops the lattice and closure memos when the
// master's row count is not the one they were computed against. The
// caller holds m.mu.
func (m *memo) refreshClosureLocked(masterTuples int) {
	if m.closureMaster != masterTuples {
		m.atomCands, m.closure, m.closureMaster = nil, nil, masterTuples
	}
}

// storeClosureLocked memoises one single-tuple closure verdict under
// its relation-qualified tuple key. The caller holds m.mu and has
// refreshed the memo for the current master.
func (m *memo) storeClosureLocked(key string, closed bool) {
	if m.closure == nil || len(m.closure) >= closureCacheCap {
		m.closure = make(map[string]bool)
	}
	m.closure[key] = closed
}

// tableauCounterexample backtracks over one disjunct tableau's atoms.
func (p *Problem) tableauCounterexample(ctx context.Context, db *relation.Database, tab *query.Tableau,
	d *domains, baseAnswers []relation.Tuple, seenExt map[string]bool, witness bool) (*Counterexample, error) {

	binding := ctable.Valuation{}
	picks := make([]relation.Located, 0, len(tab.Atoms))
	var cex *Counterexample
	tried := 0

	// Pre-filter each atom's candidate tuples by its constant
	// positions: instance tuples (computed per call, they are few) and
	// lattice candidates (cached across calls — the RCQP search checks
	// thousands of candidate instances against one lattice). Variable
	// positions are checked during unification; lattice tuples already
	// present in the instance are skipped during iteration.
	instCands := make([][]relation.Tuple, len(tab.Atoms))
	latticeCands := make([][]relation.Tuple, len(tab.Atoms))
	for i, atom := range tab.Atoms {
		if p.Schema.Relation(atom.Rel) == nil {
			return nil, fmt.Errorf("relcomplete: query atom over unknown relation %s", atom.Rel)
		}
		for _, t := range db.Relation(atom.Rel).Tuples() {
			if matchesConstants(atom, t) {
				instCands[i] = append(instCands[i], t)
			}
		}
		cached, err := p.atomCandidates(ctx, atom, d)
		if err != nil {
			return nil, err
		}
		latticeCands[i] = cached
	}

	// The extension I' is I plus the picks I lacks, in pick order.
	// seenExt lives for one I, so the sorted distinct new picks key I'
	// canonically, and an extension is built only when its key is new.
	var added, sorted []relation.Located
	var keyBuf []byte
	sp := obs.SpanFromContext(ctx)
	loc := p.locality()
	var process func() error
	process = func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		added = added[:0]
		for _, pk := range picks {
			if !db.Relation(pk.Rel).Contains(pk.Tuple) {
				added = append(added, pk)
			}
		}
		if len(added) == 0 {
			return nil // I' = I: answers trivially agree
		}
		sorted = append(sorted[:0], added...)
		slices.SortFunc(sorted, func(a, b relation.Located) int {
			if c := strings.Compare(a.Rel, b.Rel); c != 0 {
				return c
			}
			return a.Tuple.Compare(b.Tuple)
		})
		keyBuf = keyBuf[:0]
		for i, pk := range sorted {
			if i > 0 && pk.Rel == sorted[i-1].Rel && pk.Tuple.Equal(sorted[i-1].Tuple) {
				continue
			}
			keyBuf = pk.Tuple.AppendKey(relation.AppendValueKey(keyBuf, relation.Value(pk.Rel)))
		}
		if seenExt[string(keyBuf)] {
			return nil
		}
		seenExt[string(keyBuf)] = true
		var ext *relation.Database
		build := func() *relation.Database {
			if ext == nil {
				ext = db.Clone()
				for _, pk := range added {
					ext.MustInsert(pk.Rel, pk.Tuple) // a repeated pick is a no-op
				}
			}
			return ext
		}
		tried++
		if p.Options.MaxValuations > 0 && tried > p.Options.MaxValuations {
			return p.budgetErr("bounded check", "MaxValuations",
				int64(p.Options.MaxValuations), int64(tried))
		}
		p.Options.Obs.Inc(obs.ExtensionsTested)
		if !loc.ccs {
			ok, err := p.satisfiesCCs(ctx, build())
			if err != nil {
				return err
			}
			if !ok {
				if sp.Streaming() {
					sp.Event("extension_pruned", obs.F("extension", ext))
					p.traceCCViolation(ctx, sp, ext)
				}
				return nil // not a partially closed extension
			}
		}
		var extAnswers []relation.Tuple
		var err error
		if loc.query {
			extAnswers, err = p.answers(ctx, p.deltaDatabase(added...)) // Q(Δ): Q(I) ∪ Q(Δ) gains the same
		} else {
			extAnswers, err = p.answers(ctx, build())
		}
		if err != nil {
			return err
		}
		gained := diffTuples(baseAnswers, extAnswers)
		if len(gained) > 0 {
			cex = &Counterexample{Model: db, Extension: ext, Gained: gained}
			if witness {
				cex.Extension = build()
			}
			p.Options.Obs.Inc(obs.CounterexamplesFound)
			if sp.Streaming() {
				sp.Event("counterexample", obs.F("model", db), obs.F("extension", build()), obs.F("gained", gained))
			}
		} else if sp.Streaming() {
			sp.Event("extension_agrees", obs.F("extension", build()))
		}
		return nil
	}

	var rec func(i int) error
	rec = func(i int) error {
		if cex != nil {
			return nil
		}
		if i == len(tab.Atoms) {
			return process()
		}
		atom := tab.Atoms[i]
		tryTuple := func(t relation.Tuple) error {
			assigned := make([]string, 0, len(atom.Terms))
			ok := true
			for j, term := range atom.Terms {
				if !term.IsVar {
					continue // constants pre-checked by the candidate filters
				}
				if v, bound := binding[term.Name]; bound {
					if v != t[j] {
						ok = false
						break
					}
					continue
				}
				binding[term.Name] = t[j]
				assigned = append(assigned, term.Name)
			}
			if ok {
				picks = append(picks, relation.Located{Rel: atom.Rel, Tuple: t})
				if err := rec(i + 1); err != nil {
					return err
				}
				picks = picks[:len(picks)-1]
			}
			for _, v := range assigned {
				delete(binding, v)
			}
			return nil
		}
		for _, t := range instCands[i] {
			if err := tryTuple(t); err != nil {
				return err
			}
			if cex != nil {
				return nil
			}
		}
		for _, t := range latticeCands[i] {
			if db.Relation(atom.Rel).Contains(t) {
				continue // already tried via the instance part
			}
			if err := tryTuple(t); err != nil {
				return err
			}
			if cex != nil {
				return nil
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return cex, nil
}

// GroundComplete decides whether a ground instance I is complete for Q
// relative to (Dm, V) — the Section 2.1 notion. It requires I to be
// partially closed and is available for CQ, UCQ and ∃FO+ (Πp2 by
// Theorem 4.1 restricted to ground instances).
func (p *Problem) GroundComplete(db *relation.Database) (bool, *Counterexample, error) {
	return p.GroundCompleteCtx(context.Background(), db)
}

// GroundCompleteCtx is GroundComplete honoring the context's deadline.
func (p *Problem) GroundCompleteCtx(ctx context.Context, db *relation.Database) (bool, *Counterexample, error) {
	complete, cex, _, err := p.groundComplete(ctx, db)
	return complete, cex, err
}

// groundComplete is GroundCompleteCtx that also returns the domains it
// checked db over, nil when db is not partially closed.
func (p *Problem) groundComplete(ctx context.Context, db *relation.Database) (_ bool, _ *Counterexample, _ *domains, err error) {
	ctx, c := p.enter(ctx, "ground_complete", "no counterexample found in %d models")
	defer c.exit(&err)
	switch p.Query.Lang() {
	case FO, FP:
		return false, nil, nil, fmt.Errorf("ground completeness for %s: %w", p.Query.Lang(), ErrUndecidable)
	}
	closed, err := p.satisfiesCCs(ctx, db)
	if err != nil {
		return false, nil, nil, err
	}
	if !closed {
		return false, nil, nil, nil
	}
	d, err := p.buildDomains(ctable.FromDatabase(db), true, false)
	if err != nil {
		return false, nil, nil, err
	}
	ans, err := p.answers(ctx, db)
	if err != nil {
		return false, nil, nil, err
	}
	cex, err := p.boundedCounterexample(ctx, db, ans, d, true)
	if err != nil {
		return false, nil, nil, err
	}
	return cex == nil, cex, d, nil
}

// MINP decides the minimality problem for the given model: is T a
// minimal c-instance complete for Q relative to (Dm, V)?
func (p *Problem) MINP(ci *ctable.CInstance, m Model) (bool, error) {
	return p.MINPCtx(context.Background(), ci, m)
}

// MINPCtx is MINP honoring the context's deadline and cancellation; an
// abort surfaces as a *DeadlineError.
func (p *Problem) MINPCtx(ctx context.Context, ci *ctable.CInstance, m Model) (bool, error) {
	switch m {
	case Strong:
		return p.minpStrong(ctx, ci)
	case Weak:
		return p.minpWeak(ctx, ci)
	default:
		return p.minpViable(ctx, ci)
	}
}

// minpStrong implements Theorem 4.8 for c-instances: T is minimal
// strongly complete iff T ∈ RCQs and every I ∈ ModAdom(T) is a minimal
// complete ground instance — by Lemma 4.7(b) it suffices to check that
// no single-tuple removal of I stays complete.
func (p *Problem) minpStrong(ctx context.Context, ci *ctable.CInstance) (_ bool, err error) {
	ctx, c := p.enter(ctx, "minp_strong", "no non-minimal model found in %d models")
	defer c.exit(&err)
	switch p.Query.Lang() {
	case FO, FP:
		return false, fmt.Errorf("MINP(%s), strong model: %w", p.Query.Lang(), ErrUndecidable)
	}
	complete, _, err := p.rcdpStrong(ctx, ci)
	if err != nil {
		return false, err
	}
	if !complete {
		return false, nil
	}
	d, err := p.domainsFor(ci, true, false)
	if err != nil {
		return false, err
	}
	// First hit = some model with a complete single-tuple removal,
	// which refutes minimality; the models fan out over the workers.
	var genErr error
	probe := func(ctx context.Context, idx int, c ctable.Candidate) (struct{}, bool, error) {
		db, ok, err := p.checkModel(ctx, d, c)
		if err != nil || !ok {
			return struct{}{}, false, err
		}
		nonMin, err := p.hasCompleteRemoval(ctx, db, d)
		return struct{}{}, nonMin, err
	}
	_, found, err := search.FirstHit(ctx, p.Options.workers(), p.Options.Obs,
		p.candidates(ctx, ci, d, &genErr), probe)
	if err != nil {
		return false, err
	}
	if !found && genErr != nil {
		return false, genErr
	}
	return !found, nil
}

// hasCompleteRemoval reports whether some I \ {t} is still complete
// (Lemma 4.7(b): I \ {t} remains partially closed automatically). I
// must be complete, as every caller's is: minpStrong's after rcdpStrong,
// minpViable's after the model's bounded check and GroundMinimal's
// after groundComplete, each under the same options.
//
// When V and Q are tuple-local, a tuple t of I that matches the
// constant positions of no atom of Q's disjunct tableaux settles the
// question with no bounded check. t derives no answer, so
// Q(I \ {t}) = Q(I). And t is never a pick of the bounded check, from
// the instance or from a pinned lattice, since both offer an atom only
// tuples that match its constants. So the bounded check of I \ {t}
// visits exactly I's extensions, within the same budget; a tuple-local
// V needs no check of them, and each gains over Q(I \ {t}) what it
// gains over Q(I), which is nothing, since I's check found no
// counterexample. Hence I \ {t} is complete and I is not minimal.
//
// Every other removal, and every input that is not tuple-local, is
// checked by the bounded check of I \ {t}, consulting the context per
// removal candidate.
func (p *Problem) hasCompleteRemoval(ctx context.Context, db *relation.Database, d *domains) (bool, error) {
	if loc := p.locality(); loc.ccs && loc.query {
		unseen, err := p.hasUnseenTuple(db)
		if err != nil || unseen {
			return unseen, err
		}
	}
	for _, loc := range db.AllTuples() {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		smaller := db.WithoutTuple(loc.Rel, loc.Tuple)
		ans, err := p.answers(ctx, smaller)
		if err != nil {
			return false, err
		}
		cex, err := p.boundedCounterexample(ctx, smaller, ans, d, false)
		if err != nil {
			return false, err
		}
		if cex == nil {
			return true, nil
		}
	}
	return false, nil
}

// hasUnseenTuple reports whether db holds a tuple that matches the
// constant positions of no atom of Q's disjunct tableaux.
func (p *Problem) hasUnseenTuple(db *relation.Database) (bool, error) {
	tabs, err := p.disjunctTableaux()
	if err != nil {
		return false, err
	}
	var atoms []*query.Atom
	for _, r := range p.Schema.Relations() {
		atoms = atoms[:0]
		for _, tab := range tabs {
			for _, a := range tab.Atoms {
				if a.Rel == r.Name {
					atoms = append(atoms, a)
				}
			}
		}
		for _, t := range db.Relation(r.Name).Tuples() {
			if !slices.ContainsFunc(atoms, func(a *query.Atom) bool { return matchesConstants(a, t) }) {
				return true, nil
			}
		}
	}
	return false, nil
}

// matchesConstants reports whether t fits an atom's arity and agrees
// with it on every constant position.
func matchesConstants(atom *query.Atom, t relation.Tuple) bool {
	if len(t) != len(atom.Terms) {
		return false
	}
	for j, term := range atom.Terms {
		if !term.IsVar && term.Const != t[j] {
			return false
		}
	}
	return true
}

// GroundMinimal decides whether a ground instance is a minimal complete
// instance (the Dp2 case of Theorem 4.8).
func (p *Problem) GroundMinimal(db *relation.Database) (bool, error) {
	return p.GroundMinimalCtx(context.Background(), db)
}

// GroundMinimalCtx is GroundMinimal honoring the context's deadline.
func (p *Problem) GroundMinimalCtx(ctx context.Context, db *relation.Database) (_ bool, err error) {
	ctx, c := p.enter(ctx, "ground_minimal", "no complete removal found in %d models")
	defer c.exit(&err)
	complete, _, d, err := p.groundComplete(ctx, db)
	if err != nil {
		return false, err
	}
	if !complete {
		return false, nil
	}
	nonMin, err := p.hasCompleteRemoval(ctx, db, d)
	return !nonMin, err
}
