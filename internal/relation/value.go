// Package relation implements the relational substrate of the paper
// "Capturing Missing Tuples and Missing Values" (Deng, Fan, Geerts;
// PODS 2010 / TODS 2016): attributes with finite or infinite domains,
// relation schemas, tuples, set-semantics instances and multi-relation
// databases, together with the schema-merging construction of Lemma 3.2.
//
// All collections iterate deterministically so that the decision
// procedures built on top are reproducible.
package relation

import (
	"fmt"
	"slices"
	"strings"
)

// Value is a constant drawn from some attribute domain. The paper works
// over uninterpreted constants with equality and inequality only, so a
// string representation is both sufficient and convenient.
type Value string

// CompareValues orders two values lexicographically. It exists so that
// callers sort values the same way everywhere.
func CompareValues(a, b Value) int { return strings.Compare(string(a), string(b)) }

// SortValues sorts a slice of values in place and returns it.
func SortValues(vs []Value) []Value {
	slices.Sort(vs)
	return vs
}

// DedupValues sorts and removes duplicates from vs, returning the result.
func DedupValues(vs []Value) []Value {
	SortValues(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || vs[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// MergeValues returns the sorted union of blocks, each sorted and free
// of repeats. Blocks may overlap; none is written to, so blocks shared
// across goroutines (an instance's SortedColumn) are safe inputs. When
// the largest block holds every value of the others, the union is that
// block, capped at its length; otherwise it is a new slice. Either way
// callers must not write into it. Each merge step copies, from the
// block with the least head, the run that stays below every other
// block's head, found by binary search: merging a few small blocks into
// a large one costs little more than copying it.
func MergeValues(blocks ...[]Value) []Value {
	n, big := 0, -1
	live := make([][]Value, 0, len(blocks))
	for _, b := range blocks {
		if len(b) > 0 {
			if big < 0 || len(b) > len(live[big]) {
				big = len(live)
			}
			n += len(b)
			live = append(live, b)
		}
	}
	if big >= 0 && holdsAll(live, big) {
		return slices.Clip(live[big])
	}
	out := make([]Value, 0, n)
	for len(live) > 0 {
		// m has the least head and o the least head of the others.
		m, o, k := 0, -1, len(live[0])
		for i := 1; i < len(live); i++ {
			switch h := live[i][0]; {
			case h < live[m][0]:
				m, o = i, m
			case o < 0 || h < live[o][0]:
				o = i
			}
		}
		if o >= 0 {
			k, _ = slices.BinarySearch(live[m], live[o][0])
			k = max(k, 1)
		}
		run := live[m][:k]
		if len(out) > 0 && out[len(out)-1] == run[0] {
			run = run[1:]
		}
		out = append(out, run...)
		if live[m] = live[m][k:]; len(live[m]) == 0 {
			live = append(live[:m], live[m+1:]...)
		}
	}
	return out
}

// holdsAll reports whether blocks[big] holds every value of the other
// blocks.
func holdsAll(blocks [][]Value, big int) bool {
	for i, b := range blocks {
		if i == big {
			continue
		}
		for _, v := range b {
			if _, ok := slices.BinarySearch(blocks[big], v); !ok {
				return false
			}
		}
	}
	return true
}

// ValueSet is a deterministic set of values.
type ValueSet struct {
	m map[Value]struct{}
}

// NewValueSet returns a set containing the given values.
func NewValueSet(vs ...Value) *ValueSet {
	s := &ValueSet{m: make(map[Value]struct{}, len(vs))}
	for _, v := range vs {
		s.m[v] = struct{}{}
	}
	return s
}

// Add inserts v and reports whether it was absent.
func (s *ValueSet) Add(v Value) bool {
	if _, ok := s.m[v]; ok {
		return false
	}
	s.m[v] = struct{}{}
	return true
}

// AddAll inserts every value of other into s.
func (s *ValueSet) AddAll(other *ValueSet) {
	if other == nil {
		return
	}
	for v := range other.m {
		s.m[v] = struct{}{}
	}
}

// Contains reports whether v is in the set.
func (s *ValueSet) Contains(v Value) bool {
	if s == nil {
		return false
	}
	_, ok := s.m[v]
	return ok
}

// Len returns the number of values in the set.
func (s *ValueSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.m)
}

// Values returns the members in sorted order.
func (s *ValueSet) Values() []Value {
	if s == nil {
		return nil
	}
	out := make([]Value, 0, len(s.m))
	for v := range s.m {
		out = append(out, v)
	}
	return SortValues(out)
}

// Clone returns an independent copy of the set.
func (s *ValueSet) Clone() *ValueSet {
	c := &ValueSet{m: make(map[Value]struct{}, s.Len())}
	if s != nil {
		for v := range s.m {
			c.m[v] = struct{}{}
		}
	}
	return c
}

// String renders the set as {a, b, c}.
func (s *ValueSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range s.Values() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(v))
	}
	b.WriteByte('}')
	return b.String()
}

// Domain describes the set of constants an attribute may take. A finite
// domain enumerates its members (e.g. the Boolean domain {0, 1}); an
// infinite domain admits every constant. The distinction matters for the
// active-domain construction Adom = S ∪ New ∪ df of Proposition 3.3:
// variables ranging over a finite-domain attribute may only be valuated
// inside that finite domain.
type Domain struct {
	name   string
	finite bool
	values []Value
	member map[Value]struct{}
}

// Infinite returns a fresh infinite domain with the given name.
func Infinite(name string) *Domain {
	return &Domain{name: name}
}

// Finite returns a finite domain with the given name and members.
// Members are deduplicated and kept in sorted order.
func Finite(name string, values ...Value) *Domain {
	vs := DedupValues(append([]Value(nil), values...))
	m := make(map[Value]struct{}, len(vs))
	for _, v := range vs {
		m[v] = struct{}{}
	}
	return &Domain{name: name, finite: true, values: vs, member: m}
}

// Bool is the Boolean domain {0, 1} used throughout the paper's
// reductions (Figure 2).
func Bool() *Domain { return Finite("bool", "0", "1") }

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// IsFinite reports whether the domain enumerates its members.
func (d *Domain) IsFinite() bool { return d != nil && d.finite }

// Values returns the members of a finite domain in sorted order, or nil
// for an infinite domain.
func (d *Domain) Values() []Value {
	if d == nil || !d.finite {
		return nil
	}
	return append([]Value(nil), d.values...)
}

// Contains reports whether v belongs to the domain. Every value belongs
// to an infinite domain.
func (d *Domain) Contains(v Value) bool {
	if d == nil || !d.finite {
		return true
	}
	_, ok := d.member[v]
	return ok
}

// String renders the domain for diagnostics.
func (d *Domain) String() string {
	if d == nil {
		return "⊤"
	}
	if !d.finite {
		return fmt.Sprintf("%s(∞)", d.name)
	}
	parts := make([]string, len(d.values))
	for i, v := range d.values {
		parts[i] = string(v)
	}
	return fmt.Sprintf("%s{%s}", d.name, strings.Join(parts, ","))
}
