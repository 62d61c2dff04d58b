package ctable

import (
	"fmt"
	"sort"
	"strings"

	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// Row is one tableau row: a term per attribute plus the local condition
// ξ(t).
type Row struct {
	Terms []query.Term
	Cond  Condition
}

// String renders the row.
func (r Row) String() string {
	parts := make([]string, len(r.Terms))
	for i, t := range r.Terms {
		parts[i] = t.String()
	}
	s := "(" + strings.Join(parts, ", ") + ")"
	if len(r.Cond) > 0 {
		s += " [" + r.Cond.String() + "]"
	}
	return s
}

// CTable is a c-table (T, ξ) of one relation schema.
//
// The paper requires the variable namespaces var(A) of distinct
// attributes to be disjoint. We enforce the semantic content of that
// requirement: every variable is used at a single domain — its first
// occurrence fixes the domain, and later occurrences must carry a
// compatible one (identical finite domain, or both infinite).
type CTable struct {
	schema *relation.Schema
	rows   []Row
	varDom map[string]*relation.Domain
}

// NewCTable returns an empty c-table of the schema.
func NewCTable(schema *relation.Schema) *CTable {
	return &CTable{schema: schema, varDom: map[string]*relation.Domain{}}
}

// Schema returns the underlying relation schema.
func (t *CTable) Schema() *relation.Schema { return t.schema }

// Len returns the number of rows.
func (t *CTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.rows)
}

// Rows returns the rows in insertion order; callers must not mutate.
func (t *CTable) Rows() []Row {
	if t == nil {
		return nil
	}
	return t.rows
}

// AddRow validates and appends a row.
func (t *CTable) AddRow(r Row) error {
	if len(r.Terms) != t.schema.Arity() {
		return fmt.Errorf("ctable %s: row has %d terms, want %d", t.schema.Name, len(r.Terms), t.schema.Arity())
	}
	for i, term := range r.Terms {
		dom := t.schema.DomainAt(i)
		if term.IsVar {
			if err := t.bindVarDomain(term.Name, dom); err != nil {
				return err
			}
		} else if !dom.Contains(term.Const) {
			return fmt.Errorf("ctable %s: constant %s outside domain of attribute %s",
				t.schema.Name, term.Const, t.schema.Attrs[i].Name)
		}
	}
	// Condition variables must be table variables of known domains or
	// fresh; fresh condition-only variables are bound to an infinite
	// domain (they are compared, never placed in a column).
	for _, v := range r.Cond.Vars() {
		if _, ok := t.varDom[v]; !ok {
			t.varDom[v] = relation.Infinite("cond." + v)
		}
	}
	t.rows = append(t.rows, Row{Terms: append([]query.Term(nil), r.Terms...), Cond: append(Condition(nil), r.Cond...)})
	return nil
}

func (t *CTable) bindVarDomain(name string, dom *relation.Domain) error {
	prev, ok := t.varDom[name]
	if !ok {
		t.varDom[name] = dom
		return nil
	}
	if compatibleDomains(prev, dom) {
		return nil
	}
	return fmt.Errorf("ctable %s: variable %s used at incompatible domains %s and %s (the paper's var(A) namespaces are disjoint)",
		t.schema.Name, name, prev, dom)
}

func compatibleDomains(a, b *relation.Domain) bool {
	if !a.IsFinite() && !b.IsFinite() {
		return true
	}
	if a.IsFinite() != b.IsFinite() {
		return false
	}
	av, bv := a.Values(), b.Values()
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

// MustAddRow is AddRow that panics on error.
func (t *CTable) MustAddRow(r Row) {
	if err := t.AddRow(r); err != nil {
		panic(err)
	}
}

// VarDomains returns the domain bound to each variable.
func (t *CTable) VarDomains() map[string]*relation.Domain {
	out := make(map[string]*relation.Domain, len(t.varDom))
	for k, v := range t.varDom {
		out[k] = v
	}
	return out
}

// Vars returns the table's variables, sorted.
func (t *CTable) Vars() []string {
	out := make([]string, 0, len(t.varDom))
	for v := range t.varDom {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Constants collects the table's constants (terms and conditions).
func (t *CTable) Constants(dst *relation.ValueSet) *relation.ValueSet {
	if dst == nil {
		dst = relation.NewValueSet()
	}
	if t == nil {
		return dst
	}
	for _, r := range t.rows {
		for _, term := range r.Terms {
			if !term.IsVar {
				dst.Add(term.Const)
			}
		}
		r.Cond.Constants(dst)
	}
	return dst
}

// IsGround reports whether the table has no variables and no
// conditions.
func (t *CTable) IsGround() bool {
	for _, r := range t.rows {
		if len(r.Cond) > 0 {
			return false
		}
		for _, term := range r.Terms {
			if term.IsVar {
				return false
			}
		}
	}
	return true
}

// Apply computes µ(T): rows whose condition holds under µ, with
// variables substituted. µ must assign every variable it touches.
func (t *CTable) Apply(mu Valuation) (*relation.Instance, error) {
	out := relation.NewInstance(t.schema)
	if err := t.applyRows(out, t.rows, mu); err != nil {
		return nil, err
	}
	return out, nil
}

// applyRows inserts µ(r) into out for every row r of rows whose
// condition holds under µ, in order. It is the row application of
// CTable.Apply over all rows and of the ground prefixes.
func (t *CTable) applyRows(out *relation.Instance, rows []Row, mu Valuation) error {
	return t.eachRowTuple(rows, mu, out.Insert)
}

// eachRowTuple calls fn with µ(r) for every row r of rows whose
// condition holds under µ, in order, until fn or a row fails. Each
// tuple passed to fn is fresh.
func (t *CTable) eachRowTuple(rows []Row, mu Valuation, fn func(relation.Tuple) error) error {
	for _, r := range rows {
		keep, err := r.Cond.Eval(mu)
		if err != nil {
			return err
		}
		if !keep {
			continue
		}
		tup := make(relation.Tuple, len(r.Terms))
		for i, term := range r.Terms {
			if term.IsVar {
				v, ok := mu[term.Name]
				if !ok {
					return fmt.Errorf("ctable %s: variable %s unassigned", t.schema.Name, term.Name)
				}
				tup[i] = v
			} else {
				tup[i] = term.Const
			}
		}
		if err := fn(tup); err != nil {
			return err
		}
	}
	return nil
}

// applyGroundPrefix applies the table's ground prefix into inst and
// returns how many rows it covers. The ground prefix is the rows before
// the first row that mentions a variable, in its terms or in its
// condition: they yield the same tuples under every µ, so the empty
// valuation applies them (one whose constant-only condition is false is
// left out). It stops at the first variable row rather than taking
// every ground row because insertion order decides which model and
// which counterexample the deciders reach first, and before a row that
// fails to apply, so that Apply reports the error where the row-by-row
// build did.
func (t *CTable) applyGroundPrefix(inst *relation.Instance) int {
	next := 0
	for next < len(t.rows) && t.rows[next].ground() {
		if t.applyRows(inst, t.rows[next:next+1], nil) != nil {
			break
		}
		next++
	}
	return next
}

// ground reports whether the row mentions no variable, in its terms or
// in its condition.
func (r Row) ground() bool {
	for _, term := range r.Terms {
		if term.IsVar {
			return false
		}
	}
	for _, a := range r.Cond {
		if a.L.IsVar || a.R.IsVar {
			return false
		}
	}
	return true
}

// WithoutRow returns a copy of the table with row index i removed.
func (t *CTable) WithoutRow(i int) *CTable {
	c := NewCTable(t.schema)
	for j, r := range t.rows {
		if j != i {
			c.MustAddRow(r)
		}
	}
	return c
}

// Clone returns an independent copy.
func (t *CTable) Clone() *CTable {
	c := NewCTable(t.schema)
	for _, r := range t.rows {
		c.MustAddRow(r)
	}
	return c
}

// String renders the table.
func (t *CTable) String() string {
	parts := make([]string, len(t.rows))
	for i, r := range t.rows {
		parts[i] = r.String()
	}
	return t.schema.Name + "{" + strings.Join(parts, ", ") + "}"
}

// FromInstance lifts a ground instance to a (ground) c-table.
func FromInstance(in *relation.Instance) *CTable {
	t := NewCTable(in.Schema())
	for _, tup := range in.Tuples() {
		terms := make([]query.Term, len(tup))
		for i, v := range tup {
			terms[i] = query.C(v)
		}
		t.MustAddRow(Row{Terms: terms})
	}
	return t
}
