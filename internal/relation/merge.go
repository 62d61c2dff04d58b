package relation

import "fmt"

// This file implements the data half of Lemma 3.2: a linear-time
// bijective encoding fD of instances of a multi-relation schema
// R = (R1, ..., Rn) into instances of a single relation schema R.
//
// Each source relation Ri is made uniform by padding to the maximal
// arity with the reserved constant Pad, and a leading tag attribute AR
// records which source relation a tuple came from. The query and
// constraint halves (fQ, fC) live in internal/query and internal/cc.

// Pad is the reserved padding constant used by Merge. It must not occur
// in source data; Merge.Encode reports an error if it does.
const Pad Value = "⊥pad"

// TagAttr is the name of the leading relation-tag attribute of the
// merged schema (the paper's AR).
const TagAttr = "AR"

// Merger holds the merged single-relation schema for a database schema
// and converts instances back and forth.
type Merger struct {
	src    *DBSchema
	merged *Schema
	arity  int // max source arity
}

// NewMerger builds the merged schema for src. The merged relation is
// named "R_merged" and has 1 + max-arity attributes: the tag attribute
// AR with finite domain {R1, ..., Rn}, then A1..Ak where Ai's domain is
// infinite (source domain checks happen on the source side of the
// bijection).
func NewMerger(src *DBSchema) (*Merger, error) {
	if src.Len() == 0 {
		return nil, fmt.Errorf("relation: cannot merge empty database schema")
	}
	arity := 0
	tags := make([]Value, 0, src.Len())
	for _, r := range src.Relations() {
		if r.Arity() > arity {
			arity = r.Arity()
		}
		tags = append(tags, Value(r.Name))
	}
	attrs := make([]Attribute, 0, arity+1)
	attrs = append(attrs, Attr(TagAttr, Finite("reltag", tags...)))
	for i := 0; i < arity; i++ {
		attrs = append(attrs, Attr(fmt.Sprintf("A%d", i+1), nil))
	}
	merged, err := NewSchema("R_merged", attrs...)
	if err != nil {
		return nil, err
	}
	return &Merger{src: src, merged: merged, arity: arity}, nil
}

// Source returns the source database schema.
func (m *Merger) Source() *DBSchema { return m.src }

// Merged returns the single-relation target schema.
func (m *Merger) Merged() *Schema { return m.merged }

// PadWidth returns how many pad columns relation rel receives.
func (m *Merger) PadWidth(rel string) (int, error) {
	r := m.src.Relation(rel)
	if r == nil {
		return 0, fmt.Errorf("relation: merge: unknown relation %s", rel)
	}
	return m.arity - r.Arity(), nil
}

// EncodeTuple maps one source tuple of rel to a merged tuple.
func (m *Merger) EncodeTuple(rel string, t Tuple) (Tuple, error) {
	r := m.src.Relation(rel)
	if r == nil {
		return nil, fmt.Errorf("relation: merge: unknown relation %s", rel)
	}
	if len(t) != r.Arity() {
		return nil, fmt.Errorf("relation: merge: tuple %v has arity %d, want %d", t, len(t), r.Arity())
	}
	out := make(Tuple, 0, m.arity+1)
	out = append(out, Value(rel))
	for _, v := range t {
		if v == Pad {
			return nil, fmt.Errorf("relation: merge: reserved pad constant in source tuple %v", t)
		}
		out = append(out, v)
	}
	for len(out) < m.arity+1 {
		out = append(out, Pad)
	}
	return out, nil
}

// DecodeTuple inverts EncodeTuple, returning the source relation name
// and the original tuple.
func (m *Merger) DecodeTuple(t Tuple) (string, Tuple, error) {
	if len(t) != m.arity+1 {
		return "", nil, fmt.Errorf("relation: merge: merged tuple %v has arity %d, want %d", t, len(t), m.arity+1)
	}
	rel := string(t[0])
	r := m.src.Relation(rel)
	if r == nil {
		return "", nil, fmt.Errorf("relation: merge: unknown tag %q", rel)
	}
	body := t[1:]
	for i := r.Arity(); i < m.arity; i++ {
		if body[i] != Pad {
			return "", nil, fmt.Errorf("relation: merge: tuple %v has non-pad value in pad column %d", t, i+1)
		}
	}
	return rel, body[:r.Arity()].Clone(), nil
}

// Encode maps a source database to a merged single-relation instance
// (the paper's fD). It is a bijection onto well-formed merged instances.
func (m *Merger) Encode(db *Database) (*Instance, error) {
	if db.Schema() != m.src {
		return nil, fmt.Errorf("relation: merge: database has a different schema")
	}
	out := NewInstance(m.merged)
	for _, r := range m.src.Relations() {
		for _, t := range db.Relation(r.Name).Tuples() {
			et, err := m.EncodeTuple(r.Name, t)
			if err != nil {
				return nil, err
			}
			out.insertUnchecked(et)
		}
	}
	return out, nil
}

// Decode inverts Encode.
func (m *Merger) Decode(inst *Instance) (*Database, error) {
	if inst.Schema() != m.merged {
		return nil, fmt.Errorf("relation: merge: instance has a different schema")
	}
	db := NewDatabase(m.src)
	for _, t := range inst.Tuples() {
		rel, body, err := m.DecodeTuple(t)
		if err != nil {
			return nil, err
		}
		if err := db.Insert(rel, body); err != nil {
			return nil, err
		}
	}
	return db, nil
}
