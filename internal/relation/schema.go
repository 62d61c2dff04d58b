package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Attribute is a named column with a domain of constants.
type Attribute struct {
	Name   string
	Domain *Domain
}

// Attr is shorthand for constructing an attribute.
func Attr(name string, dom *Domain) Attribute { return Attribute{Name: name, Domain: dom} }

// Schema is a relation schema: a relation name plus an ordered list of
// attributes. The paper writes R(A1, ..., An).
type Schema struct {
	Name  string
	Attrs []Attribute
	index map[string]int
}

// NewSchema builds a relation schema. Attribute names must be distinct;
// attributes with a nil domain get a fresh infinite domain named after
// the attribute.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: schema needs a name")
	}
	s := &Schema{Name: name, Attrs: append([]Attribute(nil), attrs...), index: make(map[string]int, len(attrs))}
	for i := range s.Attrs {
		a := &s.Attrs[i]
		if a.Name == "" {
			return nil, fmt.Errorf("relation: schema %s: attribute %d has no name", name, i)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("relation: schema %s: duplicate attribute %s", name, a.Name)
		}
		s.index[a.Name] = i
		if a.Domain == nil {
			a.Domain = Infinite(name + "." + a.Name)
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for literals in tests,
// reductions and examples where the schema is statically correct.
func MustSchema(name string, attrs ...Attribute) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// AttrNames returns the attribute names in schema order.
func (s *Schema) AttrNames() []string {
	out := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		out[i] = a.Name
	}
	return out
}

// DomainAt returns the domain of the i-th attribute.
func (s *Schema) DomainAt(i int) *Domain { return s.Attrs[i].Domain }

// Admits reports whether the tuple's values all lie in the respective
// attribute domains (and the arity matches).
func (s *Schema) Admits(t Tuple) bool {
	if len(t) != len(s.Attrs) {
		return false
	}
	for i, v := range t {
		if !s.Attrs[i].Domain.Contains(v) {
			return false
		}
	}
	return true
}

// Check is Admits as an error: the one an insert of t fails with.
func (s *Schema) Check(t Tuple) error {
	if !s.Admits(t) {
		return fmt.Errorf("relation: tuple %v does not fit schema %s", t, s)
	}
	return nil
}

// String renders the schema as R(A:dom, ...).
func (s *Schema) String() string {
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		parts[i] = a.Name
	}
	return fmt.Sprintf("%s(%s)", s.Name, strings.Join(parts, ", "))
}

// Database schema: an ordered collection of relation schemas, the
// paper's R = (R1, ..., Rn).
type DBSchema struct {
	rels  []*Schema
	index map[string]int
}

// NewDBSchema builds a database schema from relation schemas with
// pairwise distinct names.
func NewDBSchema(rels ...*Schema) (*DBSchema, error) {
	db := &DBSchema{index: make(map[string]int, len(rels))}
	for _, r := range rels {
		if err := db.Add(r); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// MustDBSchema is NewDBSchema that panics on error.
func MustDBSchema(rels ...*Schema) *DBSchema {
	db, err := NewDBSchema(rels...)
	if err != nil {
		panic(err)
	}
	return db
}

// Add appends one relation schema.
func (db *DBSchema) Add(r *Schema) error {
	if r == nil {
		return fmt.Errorf("relation: nil schema")
	}
	if _, dup := db.index[r.Name]; dup {
		return fmt.Errorf("relation: duplicate relation %s", r.Name)
	}
	db.index[r.Name] = len(db.rels)
	db.rels = append(db.rels, r)
	return nil
}

// Relation returns the schema of the named relation, or nil.
func (db *DBSchema) Relation(name string) *Schema {
	if db == nil {
		return nil
	}
	if i, ok := db.index[name]; ok {
		return db.rels[i]
	}
	return nil
}

// Relations returns the relation schemas in declaration order.
func (db *DBSchema) Relations() []*Schema { return append([]*Schema(nil), db.rels...) }

// Names returns the relation names in declaration order.
func (db *DBSchema) Names() []string {
	out := make([]string, len(db.rels))
	for i, r := range db.rels {
		out[i] = r.Name
	}
	return out
}

// Len returns the number of relations.
func (db *DBSchema) Len() int { return len(db.rels) }

// String renders the database schema.
func (db *DBSchema) String() string {
	parts := make([]string, len(db.rels))
	for i, r := range db.rels {
		parts[i] = r.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}
