package core

import (
	"context"
	"sync"

	"relcomplete/internal/ctable"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// This file implements the delta checks: every decider tests candidates
// that differ from a base already known to satisfy V by a few tuples Δ
// (a model adds the rows after T's ground prefix, a bounded extension
// one tuple per tableau atom, a weak-model extension one tuple), and
// when V and Q are tuple-local such a candidate is checked by what it
// adds rather than as a whole database.
//
// A CQ is tuple-local when it has one relation atom and that atom binds
// every variable of its comparisons and head; a query is tuple-local
// when each of its CQ disjuncts is. The answers of a tuple-local query
// over I are the union of its answers over I's single tuples, so
//
//   - (I ∪ Δ, Dm) ⊨ V exactly when (I, Dm) ⊨ V and ({t}, Dm) ⊨ V for
//     every t in Δ (the delta rule of Chabin et al., "Incremental
//     Consistent Updating of Incomplete Databases", for CCs whose left
//     sides are monotone CQs), and
//   - Q(I ∪ Δ) = Q(I) ∪ Q(Δ).
//
// CCs or queries that are not tuple-local (FDs written as CCs, joins,
// comparisons over variables no atom binds, FP programs, FO) keep the
// check of the whole candidate.

// locality records which of a problem's fixed inputs are tuple-local.
type locality struct {
	ccs   bool // every CC's left side is tuple-local (or V is empty)
	query bool // Q is a tuple-local ∃FO+ query
}

// locality classifies the problem's CCs and query once; both are fixed
// inputs, shared by every view of the problem.
func (p *Problem) locality() locality {
	m := p.memo
	m.localOnce.Do(func() {
		m.local.ccs = true
		if p.CCs != nil {
			for _, c := range p.CCs.Constraints {
				if !tupleLocalQuery(c.Left) {
					m.local.ccs = false
					break
				}
			}
		}
		m.local.query = p.queryTupleLocal()
	})
	return m.local
}

// queryTupleLocal reports whether Q is a tuple-local ∃FO+ query: every
// disjunct tableau (after equality propagation) is tuple-local.
func (p *Problem) queryTupleLocal() bool {
	q := p.Query.Calc
	if q == nil || !query.IsPositiveExistential(q) || rebindsVars(q) {
		return false
	}
	tabs, err := p.disjunctTableaux()
	if err != nil {
		return false
	}
	for _, tab := range tabs {
		if !tupleLocalTableau(tab) {
			return false
		}
	}
	return true
}

// tupleLocalQuery reports whether a conjunctive query is tuple-local.
func tupleLocalQuery(q *query.Query) bool {
	if q == nil || rebindsVars(q) {
		return false
	}
	tab, err := query.TableauOf(q)
	return err == nil && tupleLocalTableau(tab)
}

// tupleLocalTableau reports whether a CQ tableau has one atom and that
// atom binds every variable of the tableau.
func tupleLocalTableau(tab *query.Tableau) bool {
	if len(tab.Atoms) != 1 {
		return false
	}
	bound := make(map[string]bool, len(tab.Atoms[0].Terms))
	for _, t := range tab.Atoms[0].Terms {
		if t.IsVar {
			bound[t.Name] = true
		}
	}
	for _, v := range tab.Vars {
		if !bound[v] {
			return false
		}
	}
	return true
}

// rebindsVars reports whether a quantifier of q binds a name that is a
// head variable, a free variable of the body or another quantifier's
// variable. Tableaux strip quantifiers, so they read such a query
// differently from the evaluator; it is never counted as tuple-local.
func rebindsVars(q *query.Query) bool {
	taken := query.FreeVars(q.Body)
	for _, h := range q.Head {
		if h.IsVar {
			taken[h.Name] = true
		}
	}
	var walk func(f query.Formula) bool
	bind := func(vars []string, sub query.Formula) bool {
		for _, v := range vars {
			if taken[v] {
				return true
			}
			taken[v] = true
		}
		return walk(sub)
	}
	walk = func(f query.Formula) bool {
		switch x := f.(type) {
		case *query.And:
			for _, k := range x.Kids {
				if walk(k) {
					return true
				}
			}
		case *query.Or:
			for _, k := range x.Kids {
				if walk(k) {
					return true
				}
			}
		case *query.Not:
			return walk(x.Sub)
		case *query.Exists:
			return bind(x.Vars, x.Sub)
		case *query.Forall:
			return bind(x.Vars, x.Sub)
		}
		return false
	}
	return walk(q.Body)
}

// prefixMemo memoises one value computed on a c-instance's ground
// prefix, per domains: V's verdict (prefixClosed) or Q's answers
// (modelAnswers). domainsKey holds the c-instance's and the master's
// row counts, so the prefix and Dm the value was computed over are the
// current ones. The computation runs under the lock, released by a
// deferred unlock, and one that fails (a deadline, say) or panics is
// not memoised: the next caller computes it again.
type prefixMemo[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
}

// get returns the memoised value, computing it first if need be.
func (m *prefixMemo[T]) get(compute func() (T, error)) (T, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.done {
		v, err := compute()
		if err != nil {
			return v, err
		}
		m.val, m.done = v, true
	}
	return m.val, nil
}

// prefixClosed reports (prefix, Dm) ⊨ V, checking it once per d.
func (p *Problem) prefixClosed(ctx context.Context, d *domains, prefix *relation.Database) (bool, error) {
	return d.prefixOK.get(func() (bool, error) { return p.satisfiesCCs(ctx, prefix) })
}

// modelAnswers returns Q(µ(T)) for a candidate c that checkModel
// admitted as db. With a tuple-local Q it is Q(prefix) ∪ Q(Added):
// Q(prefix), on the frozen ground prefix, is evaluated once per d,
// which must be the c-instance's domains, and is the whole answer when
// c adds nothing. Otherwise Q is evaluated on db. The result may be
// the memoised slice and is read-only.
func (p *Problem) modelAnswers(ctx context.Context, d *domains, c ctable.Candidate, db *relation.Database) ([]relation.Tuple, error) {
	if !p.locality().query {
		return p.answers(ctx, db)
	}
	ans, err := d.prefixAns.get(func() ([]relation.Tuple, error) { return p.answers(ctx, c.Prefix()) })
	if err != nil || len(c.Added) == 0 {
		return ans, err
	}
	added, err := p.answers(ctx, p.deltaDatabase(c.Added...))
	if err != nil {
		return nil, err
	}
	return unionTuples(ans, added), nil
}

// tuplesClosed reports whether ({t}, Dm) ⊨ V for every t in added,
// stopping at the first that is not. Verdicts are shared through the
// problem's closure memo, which the pinned lattices fill too, so a
// tuple that appears twice in added is checked once; a miss is checked
// without holding the memo's lock.
func (p *Problem) tuplesClosed(ctx context.Context, added []relation.Located) (bool, error) {
	if len(added) == 0 {
		return true, nil
	}
	m := p.memo
	masterTuples := p.Master.Size()
	var keyBuf []byte
	for _, l := range added {
		keyBuf = l.Tuple.AppendKey(relation.AppendValueKey(keyBuf[:0], relation.Value(l.Rel)))
		m.mu.Lock()
		m.refreshClosureLocked(masterTuples)
		closed, ok := m.closure[string(keyBuf)]
		m.mu.Unlock()
		if !ok {
			var err error
			if closed, err = p.satisfiesCCs(ctx, p.deltaDatabase(l)); err != nil {
				return false, err
			}
			m.mu.Lock()
			m.refreshClosureLocked(masterTuples)
			m.storeClosureLocked(string(keyBuf), closed)
			m.mu.Unlock()
		}
		if !closed {
			return false, nil
		}
	}
	return true, nil
}

// deltaDatabase builds a database of the problem's schema holding only
// the given tuples.
func (p *Problem) deltaDatabase(tuples ...relation.Located) *relation.Database {
	db := relation.NewDatabase(p.Schema)
	for _, l := range tuples {
		db.MustInsert(l.Rel, l.Tuple)
	}
	return db
}

// unionTuples merges two answer sets in the evaluator's order (sorted,
// distinct) into one: Q(I ∪ Δ) from Q(I) and Q(Δ) for a tuple-local Q.
func unionTuples(a, b []relation.Tuple) []relation.Tuple {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]relation.Tuple, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
