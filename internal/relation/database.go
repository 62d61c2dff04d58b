package relation

import (
	"fmt"
	"strings"
)

// Database is a ground instance I = (I1, ..., In) of a database schema
// R = (R1, ..., Rn). Relations are addressed by name; every relation of
// the schema is present (possibly empty).
type Database struct {
	schema *DBSchema
	insts  map[string]*Instance
}

// NewDatabase returns an empty database of the given schema (each
// relation present and empty).
func NewDatabase(schema *DBSchema) *Database {
	db := &Database{schema: schema, insts: make(map[string]*Instance, schema.Len())}
	for _, r := range schema.Relations() {
		db.insts[r.Name] = NewInstance(r)
	}
	return db
}

// ResidentBytes estimates the heap bytes the database retains: the sum
// of its relations' own storage. The charges use the fixed constants of
// instance.go, so the estimate is identical on every platform — it is
// what the rcserved registry cap accounts.
func (db *Database) ResidentBytes() int64 {
	if db == nil {
		return 0
	}
	var b int64
	for _, r := range db.schema.Relations() {
		b += db.insts[r.Name].ResidentBytes()
	}
	return b
}

// Schema returns the database schema.
func (db *Database) Schema() *DBSchema { return db.schema }

// Relation returns the instance of the named relation, or nil when the
// schema has no such relation.
func (db *Database) Relation(name string) *Instance {
	if db == nil {
		return nil
	}
	return db.insts[name]
}

// SetRelation replaces the instance of a relation; the instance's schema
// must be the schema's relation of that name.
func (db *Database) SetRelation(inst *Instance) error {
	r := db.schema.Relation(inst.Schema().Name)
	if r == nil {
		return fmt.Errorf("relation: schema has no relation %s", inst.Schema().Name)
	}
	if r != inst.Schema() {
		return fmt.Errorf("relation: instance schema %s is not the database's schema object", inst.Schema().Name)
	}
	db.insts[r.Name] = inst
	return nil
}

// MustSetRelation is SetRelation that panics on error.
func (db *Database) MustSetRelation(inst *Instance) {
	if err := db.SetRelation(inst); err != nil {
		panic(err)
	}
}

// Insert adds a tuple to the named relation.
func (db *Database) Insert(rel string, t Tuple) error {
	inst := db.insts[rel]
	if inst == nil {
		return fmt.Errorf("relation: no relation %s", rel)
	}
	return inst.Insert(t)
}

// MustInsert is Insert that panics on error.
func (db *Database) MustInsert(rel string, t Tuple) {
	if err := db.Insert(rel, t); err != nil {
		panic(err)
	}
}

// Size returns the total number of tuples across all relations.
func (db *Database) Size() int {
	n := 0
	for _, r := range db.schema.Relations() {
		n += db.insts[r.Name].Len()
	}
	return n
}

// Clone returns an independent copy sharing schemas.
func (db *Database) Clone() *Database {
	c := &Database{schema: db.schema, insts: make(map[string]*Instance, len(db.insts))}
	for _, r := range db.schema.Relations() {
		c.insts[r.Name] = db.insts[r.Name].Clone()
	}
	return c
}

// SubsetOf reports componentwise containment: for all i, Ii ⊆ I'i.
func (db *Database) SubsetOf(other *Database) bool {
	for _, r := range db.schema.Relations() {
		if !db.insts[r.Name].SubsetOf(other.Relation(r.Name)) {
			return false
		}
	}
	return true
}

// Equal reports componentwise set equality.
func (db *Database) Equal(other *Database) bool {
	return db.SubsetOf(other) && other.SubsetOf(db)
}

// WithTuple returns a copy of the database with t added to rel.
func (db *Database) WithTuple(rel string, t Tuple) *Database {
	c := db.Clone()
	c.MustInsert(rel, t)
	return c
}

// WithoutTuple returns a copy of the database with t removed from rel.
// Every other relation is cloned; rel is rebuilt without t.
func (db *Database) WithoutTuple(rel string, t Tuple) *Database {
	c := &Database{schema: db.schema, insts: make(map[string]*Instance, len(db.insts))}
	for _, r := range db.schema.Relations() {
		if r.Name != rel {
			c.insts[r.Name] = db.insts[r.Name].Clone()
		}
	}
	c.insts[rel] = db.insts[rel].WithoutTuple(t)
	return c
}

// ActiveDomain collects every constant occurring in the database.
func (db *Database) ActiveDomain(dst *ValueSet) *ValueSet {
	if dst == nil {
		dst = NewValueSet()
	}
	if db == nil {
		return dst
	}
	for _, r := range db.schema.Relations() {
		db.insts[r.Name].ActiveDomain(dst)
	}
	return dst
}

// Located identifies one tuple within a database, used when enumerating
// tuple removals (MINP) or single-tuple extensions (extensibility).
type Located struct {
	Rel   string
	Tuple Tuple
}

// AllTuples lists every tuple of the database with its relation, in
// deterministic (schema, insertion) order.
func (db *Database) AllTuples() []Located {
	var out []Located
	for _, r := range db.schema.Relations() {
		for _, t := range db.insts[r.Name].Tuples() {
			out = append(out, Located{Rel: r.Name, Tuple: t})
		}
	}
	return out
}

// String renders the database deterministically.
func (db *Database) String() string {
	parts := make([]string, 0, db.schema.Len())
	for _, r := range db.schema.Relations() {
		parts = append(parts, db.insts[r.Name].String())
	}
	return strings.Join(parts, "; ")
}
