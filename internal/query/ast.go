// Package query defines the query languages of the paper — CQ, UCQ,
// ∃FO+ and FO with equality and inequality, plus FP (an extension of
// ∃FO+ with an inflational fixpoint operator) — together with syntactic
// classification, free-variable analysis, tableau representations of
// conjunctive queries, the query-rewriting half fQ of Lemma 3.2, and a
// text parser for a datalog-style surface syntax.
package query

import (
	"fmt"
	"sort"
	"strings"

	"relcomplete/internal/relation"
)

// Term is either a variable or a constant.
type Term struct {
	IsVar bool
	Name  string         // variable name when IsVar
	Const relation.Value // constant value otherwise
}

// V returns a variable term.
func V(name string) Term { return Term{IsVar: true, Name: name} }

// C returns a constant term.
func C(v relation.Value) Term { return Term{Const: v} }

// Equal reports syntactic equality of terms.
func (t Term) Equal(u Term) bool {
	if t.IsVar != u.IsVar {
		return false
	}
	if t.IsVar {
		return t.Name == u.Name
	}
	return t.Const == u.Const
}

// String renders the term; constants are single-quoted.
func (t Term) String() string {
	if t.IsVar {
		return t.Name
	}
	return "'" + string(t.Const) + "'"
}

// CmpOp is the comparison operator of a Compare formula.
type CmpOp int

// The two comparison operators supported by all languages of the paper.
const (
	Eq CmpOp = iota
	Neq
)

// String renders the operator.
func (op CmpOp) String() string {
	if op == Eq {
		return "="
	}
	return "!="
}

// Formula is a first-order formula over relation atoms, (in)equalities,
// ∧, ∨, ¬, ∃ and ∀.
type Formula interface {
	fmt.Stringer
	isFormula()
}

// Atom is a relation atom R(t1, ..., tk).
type Atom struct {
	Rel   string
	Terms []Term
}

// Compare is t1 = t2 or t1 != t2.
type Compare struct {
	Op   CmpOp
	L, R Term
}

// And is an n-ary conjunction.
type And struct{ Kids []Formula }

// Or is an n-ary disjunction.
type Or struct{ Kids []Formula }

// Not is negation.
type Not struct{ Sub Formula }

// Exists is ∃ v1, ..., vk (Sub).
type Exists struct {
	Vars []string
	Sub  Formula
}

// Forall is ∀ v1, ..., vk (Sub).
type Forall struct {
	Vars []string
	Sub  Formula
}

func (*Atom) isFormula()    {}
func (*Compare) isFormula() {}
func (*And) isFormula()     {}
func (*Or) isFormula()      {}
func (*Not) isFormula()     {}
func (*Exists) isFormula()  {}
func (*Forall) isFormula()  {}

// Constructors keep call sites compact in reductions and tests.

// NewAtom builds a relation atom.
func NewAtom(rel string, terms ...Term) *Atom { return &Atom{Rel: rel, Terms: terms} }

// EqT builds the equality t1 = t2.
func EqT(l, r Term) *Compare { return &Compare{Op: Eq, L: l, R: r} }

// NeqT builds the inequality t1 != t2.
func NeqT(l, r Term) *Compare { return &Compare{Op: Neq, L: l, R: r} }

// Conj builds a conjunction, flattening nested Ands and eliding
// singletons.
func Conj(kids ...Formula) Formula {
	flat := make([]Formula, 0, len(kids))
	for _, k := range kids {
		if a, ok := k.(*And); ok {
			flat = append(flat, a.Kids...)
		} else if k != nil {
			flat = append(flat, k)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &And{Kids: flat}
}

// Disj builds a disjunction, flattening nested Ors and eliding
// singletons.
func Disj(kids ...Formula) Formula {
	flat := make([]Formula, 0, len(kids))
	for _, k := range kids {
		if o, ok := k.(*Or); ok {
			flat = append(flat, o.Kids...)
		} else if k != nil {
			flat = append(flat, k)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &Or{Kids: flat}
}

// Neg builds a negation.
func Neg(sub Formula) Formula { return &Not{Sub: sub} }

// Ex builds an existential quantifier; with no variables it returns sub
// unchanged.
func Ex(vars []string, sub Formula) Formula {
	if len(vars) == 0 {
		return sub
	}
	return &Exists{Vars: vars, Sub: sub}
}

// All builds a universal quantifier; with no variables it returns sub
// unchanged.
func All(vars []string, sub Formula) Formula {
	if len(vars) == 0 {
		return sub
	}
	return &Forall{Vars: vars, Sub: sub}
}

func (a *Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Rel, strings.Join(parts, ", "))
}

func (c *Compare) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// joinFormulas renders the operands of a connective. A quantifier's
// scope extends as far right as the text allows, so an operand that
// ends in one (a quantifier, possibly negated) is parenthesised unless
// it is the last: otherwise the next operand would render inside its
// scope.
func joinFormulas(kids []Formula, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
		if i < len(kids)-1 && endsInQuantifier(k) {
			parts[i] = "(" + parts[i] + ")"
		}
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func endsInQuantifier(f Formula) bool {
	switch x := f.(type) {
	case *Exists, *Forall:
		return true
	case *Not:
		return endsInQuantifier(x.Sub)
	}
	return false
}

func (a *And) String() string { return joinFormulas(a.Kids, " & ") }
func (o *Or) String() string  { return joinFormulas(o.Kids, " | ") }
func (n *Not) String() string { return "!" + n.Sub.String() }

func (e *Exists) String() string {
	return fmt.Sprintf("exists %s: %s", strings.Join(e.Vars, ", "), e.Sub)
}

func (f *Forall) String() string {
	return fmt.Sprintf("forall %s: %s", strings.Join(f.Vars, ", "), f.Sub)
}

// Query is a relational-calculus query: output terms (the head) over a
// body formula. A Boolean query has an empty head; its answer is either
// {()} (true) or ∅ (false).
type Query struct {
	Name string // optional, for diagnostics
	Head []Term
	Body Formula
}

// NewQuery builds a query and validates that every head variable occurs
// free in the body.
func NewQuery(name string, head []Term, body Formula) (*Query, error) {
	q := &Query{Name: name, Head: head, Body: body}
	if body == nil {
		return nil, fmt.Errorf("query %s: nil body", name)
	}
	free := FreeVars(body)
	for _, h := range head {
		if h.IsVar && !free[h.Name] {
			return nil, fmt.Errorf("query %s: head variable %s not free in body", name, h.Name)
		}
	}
	return q, nil
}

// MustQuery is NewQuery that panics on error.
func MustQuery(name string, head []Term, body Formula) *Query {
	q, err := NewQuery(name, head, body)
	if err != nil {
		panic(err)
	}
	return q
}

// Arity returns the output arity of the query.
func (q *Query) Arity() int { return len(q.Head) }

// IsBoolean reports whether the query has an empty head.
func (q *Query) IsBoolean() bool { return len(q.Head) == 0 }

// String renders the query as Name(head) := body.
func (q *Query) String() string {
	parts := make([]string, len(q.Head))
	for i, t := range q.Head {
		parts[i] = t.String()
	}
	name := q.Name
	if name == "" {
		name = "Q"
	}
	return fmt.Sprintf("%s(%s) := %s", name, strings.Join(parts, ", "), q.Body)
}

// FreeVars computes the set of free variables of a formula.
func FreeVars(f Formula) map[string]bool {
	out := make(map[string]bool)
	collectFree(f, map[string]bool{}, out)
	return out
}

func collectFree(f Formula, bound map[string]bool, out map[string]bool) {
	switch x := f.(type) {
	case *Atom:
		for _, t := range x.Terms {
			if t.IsVar && !bound[t.Name] {
				out[t.Name] = true
			}
		}
	case *Compare:
		for _, t := range []Term{x.L, x.R} {
			if t.IsVar && !bound[t.Name] {
				out[t.Name] = true
			}
		}
	case *And:
		for _, k := range x.Kids {
			collectFree(k, bound, out)
		}
	case *Or:
		for _, k := range x.Kids {
			collectFree(k, bound, out)
		}
	case *Not:
		collectFree(x.Sub, bound, out)
	case *Exists:
		collectFree(x.Sub, withBound(bound, x.Vars), out)
	case *Forall:
		collectFree(x.Sub, withBound(bound, x.Vars), out)
	}
}

func withBound(bound map[string]bool, vars []string) map[string]bool {
	next := make(map[string]bool, len(bound)+len(vars))
	for v := range bound {
		next[v] = true
	}
	for _, v := range vars {
		next[v] = true
	}
	return next
}

// AllVars collects every variable occurring in the formula, free or
// bound, in sorted order.
func AllVars(f Formula) []string {
	seen := make(map[string]bool)
	var walk func(Formula)
	walk = func(g Formula) {
		switch x := g.(type) {
		case *Atom:
			for _, t := range x.Terms {
				if t.IsVar {
					seen[t.Name] = true
				}
			}
		case *Compare:
			for _, t := range []Term{x.L, x.R} {
				if t.IsVar {
					seen[t.Name] = true
				}
			}
		case *And:
			for _, k := range x.Kids {
				walk(k)
			}
		case *Or:
			for _, k := range x.Kids {
				walk(k)
			}
		case *Not:
			walk(x.Sub)
		case *Exists:
			for _, v := range x.Vars {
				seen[v] = true
			}
			walk(x.Sub)
		case *Forall:
			for _, v := range x.Vars {
				seen[v] = true
			}
			walk(x.Sub)
		}
	}
	walk(f)
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Constants collects every constant occurring in the formula into dst
// (allocating when nil) and returns dst.
func Constants(f Formula, dst *relation.ValueSet) *relation.ValueSet {
	if dst == nil {
		dst = relation.NewValueSet()
	}
	var walk func(Formula)
	walk = func(g Formula) {
		switch x := g.(type) {
		case *Atom:
			for _, t := range x.Terms {
				if !t.IsVar {
					dst.Add(t.Const)
				}
			}
		case *Compare:
			for _, t := range []Term{x.L, x.R} {
				if !t.IsVar {
					dst.Add(t.Const)
				}
			}
		case *And:
			for _, k := range x.Kids {
				walk(k)
			}
		case *Or:
			for _, k := range x.Kids {
				walk(k)
			}
		case *Not:
			walk(x.Sub)
		case *Exists:
			walk(x.Sub)
		case *Forall:
			walk(x.Sub)
		}
	}
	walk(f)
	return dst
}

// QueryConstants collects the constants of a query (head and body).
func QueryConstants(q *Query, dst *relation.ValueSet) *relation.ValueSet {
	dst = Constants(q.Body, dst)
	for _, t := range q.Head {
		if !t.IsVar {
			dst.Add(t.Const)
		}
	}
	return dst
}

// Atoms collects the relation atoms of a formula in syntactic order.
func Atoms(f Formula) []*Atom {
	var out []*Atom
	var walk func(Formula)
	walk = func(g Formula) {
		switch x := g.(type) {
		case *Atom:
			out = append(out, x)
		case *And:
			for _, k := range x.Kids {
				walk(k)
			}
		case *Or:
			for _, k := range x.Kids {
				walk(k)
			}
		case *Not:
			walk(x.Sub)
		case *Exists:
			walk(x.Sub)
		case *Forall:
			walk(x.Sub)
		case *Compare:
		}
	}
	walk(f)
	return out
}

// RelationsUsed returns the names of relations mentioned by the query,
// sorted.
func RelationsUsed(q *Query) []string {
	seen := make(map[string]bool)
	for _, a := range Atoms(q.Body) {
		seen[a.Rel] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}
