package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"relcomplete/internal/fault"
	"relcomplete/internal/obs"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// This file evaluates FP programs: the inflational fixpoint semantics
// of the paper (Section 2.3). Starting from empty IDB relations, rules
// are applied and their head facts accumulated until nothing new is
// derivable; the program's answer is the final value of the output
// predicate. Facts are only ever added, so the operator is inflational
// and the semantics monotone in the EDB.
//
// Evaluation is semi-naive: after the first round, a rule with IDB body
// atoms only fires with at least one of them bound to the facts derived
// in the previous round, which avoids re-deriving the whole fixpoint
// every iteration. The textbook naive iteration lives with the tests,
// as their reference and as the ablation baseline.

// idbStore holds derived facts per IDB predicate.
type idbStore struct {
	arity map[string]int
	facts map[string]map[string]relation.Tuple // pred -> key -> tuple
	count int
}

func newIDBStore(arity map[string]int) *idbStore {
	s := &idbStore{arity: arity, facts: make(map[string]map[string]relation.Tuple, len(arity))}
	for p := range arity {
		s.facts[p] = map[string]relation.Tuple{}
	}
	return s
}

func (s *idbStore) add(pred string, t relation.Tuple) bool {
	k := t.Key()
	m := s.facts[pred]
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = t.Clone()
	s.count++
	return true
}

func (s *idbStore) tuples(pred string) []relation.Tuple {
	m := s.facts[pred]
	out := make([]relation.Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// deltaPrefix marks a body atom rewritten to read the previous round's
// delta instead of the full IDB relation.
const deltaPrefix = "Δ·"

// fpSource resolves atoms against the EDB first, then the IDB store;
// delta-prefixed predicates read the delta store.
type fpSource struct {
	db    *relation.Database
	idb   *idbStore
	delta *idbStore // nil in the naive reference iteration
}

func (s fpSource) tuples(rel string) ([]relation.Tuple, error) {
	if s.delta != nil && strings.HasPrefix(rel, deltaPrefix) {
		return s.delta.tuples(strings.TrimPrefix(rel, deltaPrefix)), nil
	}
	if _, isIDB := s.idb.arity[rel]; isIDB {
		return s.idb.tuples(rel), nil
	}
	inst := s.db.Relation(rel)
	if inst == nil {
		return nil, fmt.Errorf("eval: unknown relation %s", rel)
	}
	return inst.Tuples(), nil
}

// FPAnswers evaluates the FP program on db, returning the output
// relation of the inflational fixpoint in deterministic order.
func FPAnswers(db *relation.Database, p *query.Program, opts Options) ([]relation.Tuple, error) {
	if err := opts.Fault.Visit(fault.SiteEvalFP); err != nil {
		return nil, err
	}
	if sp := opts.Span; sp != nil {
		sp = sp.StartChild("eval.fp", time.Now())
		defer sp.End()
	}
	return fpSemiNaive(db, p, opts)
}

func fpEnv(db *relation.Database, p *query.Program, opts Options, src factSource) *env {
	set := relation.NewValueSet()
	db.ActiveDomain(set)
	p.Constants(set)
	set.AddAll(opts.ExtraDomain)
	return &env{src: src, adom: set.Values(), opts: opts}
}

// deriveRule evaluates one rule body and adds the head facts, recording
// genuinely new facts into delta (when non-nil).
func deriveRule(e *env, idb *idbStore, delta *idbStore, r *query.Rule, opts Options, progName string) error {
	if err := opts.interrupted(); err != nil {
		return err
	}
	rows, err := e.ruleBindings(r)
	if err != nil {
		return err
	}
	for _, b := range rows {
		t := make(relation.Tuple, len(r.Head.Terms))
		for i, term := range r.Head.Terms {
			v, ok := resolveTerm(term, b)
			if !ok {
				return fmt.Errorf("eval: fp rule %s: head variable %s unbound", r, term.Name)
			}
			t[i] = v
		}
		if idb.add(r.Head.Rel, t) {
			opts.Obs.Inc(obs.DerivedTuples)
			if delta != nil {
				delta.add(r.Head.Rel, t)
			}
		}
		if opts.MaxDerived > 0 && idb.count > opts.MaxDerived {
			return fmt.Errorf("fp %s: %w (derived > %d facts)", progName, ErrBudget, opts.MaxDerived)
		}
	}
	return nil
}

// fpSemiNaive fires every rule once to seed the store, then iterates
// delta-rewritten variants: for each IDB body atom occurrence, a copy
// of the rule with that occurrence reading the previous round's new
// facts. A fact joined only from old facts was derivable in an earlier
// round, so the rewriting loses nothing.
func fpSemiNaive(db *relation.Database, p *query.Program, opts Options) ([]relation.Tuple, error) {
	arity := p.IDBArity()
	idb := newIDBStore(arity)
	delta := newIDBStore(arity)
	src := fpSource{db: db, idb: idb, delta: delta}
	e := fpEnv(db, p, opts, src)

	// Seed round: all rules on the (empty-IDB) store.
	for ri := range p.Rules {
		if err := deriveRule(e, idb, delta, &p.Rules[ri], opts, p.Name); err != nil {
			return nil, err
		}
	}

	// Delta rule variants, precomputed per rule and IDB occurrence.
	type variant struct{ rule query.Rule }
	var variants []variant
	for _, r := range p.Rules {
		for li, lit := range r.Body {
			if lit.Atom == nil {
				continue
			}
			if _, isIDB := arity[lit.Atom.Rel]; !isIDB {
				continue
			}
			body := make([]query.Literal, len(r.Body))
			copy(body, r.Body)
			body[li] = query.LitAtom(query.NewAtom(deltaPrefix+lit.Atom.Rel, lit.Atom.Terms...))
			variants = append(variants, variant{rule: query.Rule{Head: r.Head, Body: body}})
		}
	}

	for delta.count > 0 {
		next := newIDBStore(arity)
		// The source reads the CURRENT delta while new facts accumulate
		// in next; swap afterwards.
		for vi := range variants {
			if err := deriveRule(e, idb, next, &variants[vi].rule, opts, p.Name); err != nil {
				return nil, err
			}
		}
		*delta = *next
	}
	return idb.tuples(p.Output), nil
}

// ruleBindings evaluates a rule body as a conjunction.
func (e *env) ruleBindings(r *query.Rule) ([]binding, error) {
	kids := make([]query.Formula, 0, len(r.Body))
	for _, l := range r.Body {
		if l.Atom != nil {
			kids = append(kids, l.Atom)
		} else {
			kids = append(kids, l.Cmp)
		}
	}
	return e.extend([]binding{{}}, query.Conj(kids...))
}

// FPBool evaluates a Boolean FP program (output arity 0 or non-empty
// output treated as true).
func FPBool(db *relation.Database, p *query.Program, opts Options) (bool, error) {
	ans, err := FPAnswers(db, p, opts)
	if err != nil {
		return false, err
	}
	return len(ans) > 0, nil
}

// SameFPAnswers reports whether p has identical answers on db1 and db2.
func SameFPAnswers(db1, db2 *relation.Database, p *query.Program, opts Options) (bool, error) {
	a1, err := FPAnswers(db1, p, opts)
	if err != nil {
		return false, err
	}
	a2, err := FPAnswers(db2, p, opts)
	if err != nil {
		return false, err
	}
	return sameTupleSets(a1, a2), nil
}
