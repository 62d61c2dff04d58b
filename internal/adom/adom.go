// Package adom implements the active-domain construction of the paper
// (Proposition 3.3 and the upper-bound proofs of Theorems 4.1, 5.1):
//
//	Adom = S ∪ New ∪ df
//
// where S is the set of constants appearing in the c-instance T, the
// master data Dm, the CC set V (and, where the algorithm needs it, the
// query Q); New holds one fresh constant per variable; and df collects
// the members of every finite attribute domain of the data schema.
//
// The paper proves that valuations drawing values from Adom suffice for
// all of its decision procedures, which is what makes the exhaustive
// deciders in internal/core exact rather than heuristic.
package adom

import (
	"fmt"
	"slices"

	"relcomplete/internal/cc"
	"relcomplete/internal/ctable"
	"relcomplete/internal/relation"
)

// ErrBudget is returned when an enumeration exceeds the configured cap.
var ErrBudget = fmt.Errorf("adom: valuation budget exceeded")

// Adom is a materialised active domain.
type Adom struct {
	values []relation.Value          // sorted, distinct
	fresh  map[string]relation.Value // variable -> its dedicated New value
}

// Builder accumulates the ingredients of an active domain: the sorted
// columns of ground databases as blocks, shared with the instances
// that cache them and never written to, and a small set of every other
// constant.
type Builder struct {
	blocks [][]relation.Value
	consts *relation.ValueSet
	vars   []string
	seen   map[string]bool
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{consts: relation.NewValueSet(), seen: map[string]bool{}}
}

// AddCInstance contributes the constants and variables of T, plus the
// finite domains of its schema (the paper's df).
func (b *Builder) AddCInstance(ci *ctable.CInstance) *Builder {
	if ci == nil {
		return b
	}
	ci.Constants(b.consts)
	for _, v := range ci.Vars() {
		b.addVar(v)
	}
	b.AddSchemaFiniteDomains(ci.Schema())
	return b
}

// AddDatabase contributes the active domain of a ground database: one
// block per column, the column's sorted distinct values as its
// instance caches them (relation.Instance.SortedColumn), so a build
// over unchanged data neither hashes nor sorts it.
func (b *Builder) AddDatabase(db *relation.Database) *Builder {
	if db == nil {
		return b
	}
	for _, r := range db.Schema().Relations() {
		inst := db.Relation(r.Name)
		for i := 0; i < r.Arity(); i++ {
			if col := inst.SortedColumn(i); len(col) > 0 {
				b.blocks = append(b.blocks, col)
			}
		}
	}
	return b
}

// AddSchemaFiniteDomains contributes df for a schema.
func (b *Builder) AddSchemaFiniteDomains(sch *relation.DBSchema) *Builder {
	if sch == nil {
		return b
	}
	for _, r := range sch.Relations() {
		for _, a := range r.Attrs {
			if a.Domain.IsFinite() {
				for _, v := range a.Domain.Values() {
					b.consts.Add(v)
				}
			}
		}
	}
	return b
}

// AddCCs contributes the constants of V. The paper's Adom also mints a
// fresh value per variable of V, but those values are never consulted:
// CC satisfaction q(I) ⊆ p(Dm) is evaluated on concrete instances, so
// only the variables of T (and, where a procedure instantiates query
// tableaux, of Q) need New values for the small-model property to
// hold. Omitting V's variables keeps Adom — and every |Adom|^k
// enumeration — at its useful size; the decider cross-validation tests
// confirm the answers are unchanged.
func (b *Builder) AddCCs(v *cc.Set) *Builder {
	if v == nil {
		return b
	}
	v.Constants(b.consts)
	return b
}

// AddConstants contributes extra constants.
func (b *Builder) AddConstants(vs *relation.ValueSet) *Builder {
	b.consts.AddAll(vs)
	return b
}

// AddVars contributes extra variables (e.g. the variables of a query's
// tableau, per the Theorem 4.1 construction).
func (b *Builder) AddVars(vars []string) *Builder {
	for _, v := range vars {
		b.addVar(v)
	}
	return b
}

func (b *Builder) addVar(v string) {
	if !b.seen[v] {
		b.seen[v] = true
		b.vars = append(b.vars, v)
	}
}

// Build materialises the active domain, minting two fresh constants
// per contributed variable, guaranteed distinct from every constant
// seen. Two (rather than the paper's one) keeps intersection-based
// certain-answer computations exact: a tuple mentioning a fresh value
// is always cancelled by the twin's isomorphic instance, so no
// spurious "generic" tuple survives a certain-answer intersection —
// for the ∀-style checks of the strong model, extra constants only
// enlarge the family of instances inspected and preserve exactness.
//
// A fresh value is checked against the blocks by binary search; the
// domain is the merge of the blocks with the sorted set of every other
// constant and the fresh values. Build takes ownership of the
// builder's constants: the builder must not be used afterwards.
func (b *Builder) Build() *Adom {
	set := b.consts
	b.consts = nil
	a := &Adom{fresh: make(map[string]relation.Value, len(b.vars))}
	taken := func(v relation.Value) bool {
		for _, blk := range b.blocks {
			if _, ok := slices.BinarySearch(blk, v); ok {
				return true
			}
		}
		return set.Contains(v)
	}
	mint := func(base string) relation.Value {
		candidate := relation.Value("•" + base)
		for i := 0; taken(candidate); i++ {
			candidate = relation.Value(fmt.Sprintf("•%s_%d", base, i))
		}
		set.Add(candidate)
		return candidate
	}
	for _, v := range b.vars {
		a.fresh[v] = mint(v)
		mint(v + "ʹ") // interchangeable twin
	}
	a.values = relation.MergeValues(append(b.blocks, set.Values())...)
	return a
}

// Values returns the members of the domain in sorted order (shared; do
// not mutate).
func (a *Adom) Values() []relation.Value { return a.values }

// Len returns the domain size.
func (a *Adom) Len() int { return len(a.values) }

// Fresh returns the New constant minted for a variable, or "" when the
// variable was not contributed.
func (a *Adom) Fresh(varName string) relation.Value { return a.fresh[varName] }

// Contains reports domain membership.
func (a *Adom) Contains(v relation.Value) bool {
	_, ok := slices.BinarySearch(a.values, v)
	return ok
}

// CandidatesFor returns the values a variable may take: the members of
// its finite attribute domain if it has one (the paper requires
// valuations of finite-domain variables to stay inside that domain —
// those values are part of Adom), otherwise the whole domain.
func (a *Adom) CandidatesFor(dom *relation.Domain) []relation.Value {
	if dom.IsFinite() {
		return dom.Values()
	}
	return a.values
}

// Enumerate calls fn with every total valuation of vars over the
// domain (respecting per-variable finite domains in doms). Enumeration
// stops early when fn returns false or an error. maxValuations > 0
// caps the number of valuations tried (ErrBudget beyond).
func (a *Adom) Enumerate(vars []string, doms map[string]*relation.Domain, maxValuations int,
	fn func(ctable.Valuation) (bool, error)) error {
	mu := make(ctable.Valuation, len(vars))
	tried := 0
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(vars) {
			tried++
			if maxValuations > 0 && tried > maxValuations {
				return false, fmt.Errorf("%w (> %d valuations)", ErrBudget, maxValuations)
			}
			return fn(mu)
		}
		v := vars[i]
		for _, val := range a.CandidatesFor(doms[v]) {
			mu[v] = val
			cont, err := rec(i + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		delete(mu, v)
		return true, nil
	}
	_, err := rec(0)
	return err
}

// Count returns the number of total valuations Enumerate would try,
// capped at limit (returns limit+1 when the true count exceeds it).
func (a *Adom) Count(vars []string, doms map[string]*relation.Domain, limit int) int {
	total := 1
	for _, v := range vars {
		n := len(a.CandidatesFor(doms[v]))
		if n == 0 {
			return 0
		}
		if total > limit/n+1 {
			return limit + 1
		}
		total *= n
		if total > limit {
			return limit + 1
		}
	}
	return total
}
