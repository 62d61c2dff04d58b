package ctable

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"relcomplete/internal/relation"
)

// CInstance is a c-instance T = (T1, ..., Tn): one c-table per relation
// of a database schema. Variables are shared across tables (a valuation
// is global), so the same variable may correlate values in different
// relations as long as its domains are compatible.
type CInstance struct {
	schema *relation.DBSchema
	tables map[string]*CTable

	// prefix is µ(T) over every table's ground prefix, built on the
	// first Apply and again when a table's row count has changed since;
	// prefixMu serialises the builds. Concurrent decides on one resident
	// c-instance share it, and every Apply starts from a clone of it.
	prefixMu sync.Mutex
	prefix   atomic.Pointer[groundPrefix]
}

// NewCInstance returns an empty c-instance of the schema.
func NewCInstance(schema *relation.DBSchema) *CInstance {
	ci := &CInstance{schema: schema, tables: make(map[string]*CTable, schema.Len())}
	for _, r := range schema.Relations() {
		ci.tables[r.Name] = NewCTable(r)
	}
	return ci
}

// Schema returns the database schema.
func (ci *CInstance) Schema() *relation.DBSchema { return ci.schema }

// Table returns the c-table of the named relation, or nil.
func (ci *CInstance) Table(name string) *CTable {
	if ci == nil {
		return nil
	}
	return ci.tables[name]
}

// AddRow appends a row to the named relation's c-table, checking
// cross-table domain compatibility of shared variables.
func (ci *CInstance) AddRow(rel string, r Row) error {
	t := ci.tables[rel]
	if t == nil {
		return fmt.Errorf("ctable: no relation %s", rel)
	}
	if len(r.Terms) != t.schema.Arity() {
		return fmt.Errorf("ctable %s: row has %d terms, want %d", rel, len(r.Terms), t.schema.Arity())
	}
	// Cross-table compatibility: the same variable must not be bound to
	// incompatible domains in two tables.
	for i, term := range r.Terms {
		if !term.IsVar {
			continue
		}
		dom := t.schema.DomainAt(i)
		for other, ot := range ci.tables {
			if other == rel {
				continue
			}
			if prev, ok := ot.varDom[term.Name]; ok && !compatibleDomains(prev, dom) {
				return fmt.Errorf("ctable: variable %s used at incompatible domains across %s and %s",
					term.Name, other, rel)
			}
		}
	}
	return t.AddRow(r)
}

// MustAddRow is AddRow that panics on error.
func (ci *CInstance) MustAddRow(rel string, r Row) {
	if err := ci.AddRow(rel, r); err != nil {
		panic(err)
	}
}

// Size returns the total number of rows.
func (ci *CInstance) Size() int {
	n := 0
	for _, r := range ci.schema.Relations() {
		n += ci.tables[r.Name].Len()
	}
	return n
}

// Vars returns all variables across tables, sorted.
func (ci *CInstance) Vars() []string {
	seen := map[string]bool{}
	for _, r := range ci.schema.Relations() {
		for _, v := range ci.tables[r.Name].Vars() {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// VarDomains returns the domain bound to each variable across tables.
func (ci *CInstance) VarDomains() map[string]*relation.Domain {
	out := map[string]*relation.Domain{}
	for _, r := range ci.schema.Relations() {
		for v, d := range ci.tables[r.Name].varDom {
			if prev, ok := out[v]; !ok || (!prev.IsFinite() && d.IsFinite()) {
				out[v] = d
			}
		}
	}
	return out
}

// Constants collects every constant of the c-instance.
func (ci *CInstance) Constants(dst *relation.ValueSet) *relation.ValueSet {
	if dst == nil {
		dst = relation.NewValueSet()
	}
	for _, r := range ci.schema.Relations() {
		ci.tables[r.Name].Constants(dst)
	}
	return dst
}

// IsGround reports whether no table has variables or conditions.
func (ci *CInstance) IsGround() bool {
	for _, r := range ci.schema.Relations() {
		if !ci.tables[r.Name].IsGround() {
			return false
		}
	}
	return true
}

// Apply computes µ(T) as a ground database. Each relation starts from a
// copy-on-write clone of its table's ground prefix, and only the rows
// after the prefix are applied, so a candidate costs what its valuation
// changes; the rows and their order are those of the row-by-row build.
func (ci *CInstance) Apply(mu Valuation) (*relation.Database, error) {
	c, err := ci.Candidate(mu)
	if err != nil {
		return nil, err
	}
	return c.Build(), nil
}

// Candidate is µ(T) before it is built: the c-instance's ground prefix,
// which is the same database for every µ, and the tuples µ adds to it.
type Candidate struct {
	pre *groundPrefix
	// Added lists µ of the rows after the ground prefixes whose tuples
	// the prefixes lack, per relation in schema order and in row order
	// within a relation. Two rows may yield one tuple, so a tuple can
	// appear more than once; its first appearances are exactly the
	// tuples the row-by-row build appends after the prefix's.
	Added []relation.Located
	// Key fingerprints µ(T) by Added: per relation in schema order, the
	// count and the sorted encodings of its distinct added tuples. The
	// prefixes are fixed for the c-instance, so two valuations get
	// equal keys exactly when they yield equal databases, and the
	// deciders deduplicate candidates by the key before building any of
	// them.
	Key string
}

// Candidate applies µ to the rows after the ground prefixes and keys
// the result, without building µ(T). The rows fail where the row-by-row
// build fails.
func (ci *CInstance) Candidate(mu Valuation) (Candidate, error) {
	pre := ci.groundPrefix()
	c := Candidate{pre: pre}
	var key []byte
	for _, pt := range pre.tables {
		inst := pre.db.Relation(pt.t.schema.Name)
		start := len(c.Added)
		err := pt.t.eachRowTuple(pt.t.rows[pt.next:], mu, func(tup relation.Tuple) error {
			if err := pt.t.schema.Check(tup); err != nil {
				return err
			}
			if !inst.Contains(tup) {
				c.Added = append(c.Added, relation.Located{Rel: pt.t.schema.Name, Tuple: tup})
			}
			return nil
		})
		if err != nil {
			return Candidate{}, err
		}
		key = appendAddedKey(key, c.Added[start:])
	}
	c.Key = string(key)
	return c, nil
}

// Prefix returns the ground prefix the candidate adds to: µ(T) over
// every table's ground prefix. It is shared by every candidate of the
// c-instance and frozen, so callers must not insert into it.
func (c Candidate) Prefix() *relation.Database { return c.pre.db }

// Build returns µ(T): a copy-on-write clone of the ground prefix with
// the added tuples inserted in order, a repeat ignored, so its rows and
// their order are those of the row-by-row build. Each call returns a
// fresh database.
func (c Candidate) Build() *relation.Database {
	db := c.pre.db.Clone()
	for _, l := range c.Added {
		db.MustInsert(l.Rel, l.Tuple)
	}
	return db
}

// appendAddedKey appends the count and the sorted encodings of the
// distinct tuples one relation gained beyond its prefix.
func appendAddedKey(dst []byte, added []relation.Located) []byte {
	if len(added) > 1 {
		added = slices.Clone(added)
		slices.SortFunc(added, func(a, b relation.Located) int { return a.Tuple.Compare(b.Tuple) })
		added = slices.CompactFunc(added, func(a, b relation.Located) bool { return a.Tuple.Equal(b.Tuple) })
	}
	dst = binary.AppendUvarint(dst, uint64(len(added)))
	for _, l := range added {
		dst = l.Tuple.AppendKey(dst)
	}
	return dst
}

// groundPrefix is µ(T) over every table's ground prefix (see
// CTable.applyGroundPrefix), the same database for every µ. Its
// relations are frozen, so the clone Apply starts from shares their
// membership maps.
type groundPrefix struct {
	db     *relation.Database
	tables []prefixTable // in schema order
}

// prefixTable records how one table's prefix was built.
type prefixTable struct {
	t    *CTable
	rows int // the table's row count when the prefix was built
	next int // index of the first row the prefix does not cover
}

// groundPrefix returns the current ground prefix, building it under
// prefixMu when it is missing or a table has gained rows since.
func (ci *CInstance) groundPrefix() *groundPrefix {
	if pre := ci.prefix.Load(); pre != nil && pre.current() {
		return pre
	}
	ci.prefixMu.Lock()
	defer ci.prefixMu.Unlock()
	if pre := ci.prefix.Load(); pre != nil && pre.current() {
		return pre
	}
	pre := &groundPrefix{db: relation.NewDatabase(ci.schema)}
	for _, r := range ci.schema.Relations() {
		t, inst := ci.tables[r.Name], pre.db.Relation(r.Name)
		next := t.applyGroundPrefix(inst)
		inst.Freeze()
		pre.tables = append(pre.tables, prefixTable{t: t, rows: t.Len(), next: next})
	}
	ci.prefix.Store(pre)
	return pre
}

// current reports whether the prefix was built for every table's
// current row count.
func (pre *groundPrefix) current() bool {
	for _, pt := range pre.tables {
		if pt.rows != pt.t.Len() {
			return false
		}
	}
	return true
}

// RowRef addresses one row of a c-instance.
type RowRef struct {
	Rel   string
	Index int
}

// AllRows lists row references in deterministic order.
func (ci *CInstance) AllRows() []RowRef {
	var out []RowRef
	for _, r := range ci.schema.Relations() {
		for i := 0; i < ci.tables[r.Name].Len(); i++ {
			out = append(out, RowRef{Rel: r.Name, Index: i})
		}
	}
	return out
}

// WithoutRow returns a copy of the c-instance with one row removed.
func (ci *CInstance) WithoutRow(ref RowRef) *CInstance {
	c := NewCInstance(ci.schema)
	for _, r := range ci.schema.Relations() {
		t := ci.tables[r.Name]
		for i, row := range t.Rows() {
			if r.Name == ref.Rel && i == ref.Index {
				continue
			}
			c.MustAddRow(r.Name, row)
		}
	}
	return c
}

// WithoutRows returns a copy with every row in refs removed (refs is a
// set keyed by relation and index).
func (ci *CInstance) WithoutRows(refs map[RowRef]bool) *CInstance {
	c := NewCInstance(ci.schema)
	for _, r := range ci.schema.Relations() {
		t := ci.tables[r.Name]
		for i, row := range t.Rows() {
			if refs[RowRef{Rel: r.Name, Index: i}] {
				continue
			}
			c.MustAddRow(r.Name, row)
		}
	}
	return c
}

// Clone returns an independent copy.
func (ci *CInstance) Clone() *CInstance {
	c := NewCInstance(ci.schema)
	for _, r := range ci.schema.Relations() {
		for _, row := range ci.tables[r.Name].Rows() {
			c.MustAddRow(r.Name, row)
		}
	}
	return c
}

// FromDatabase lifts a ground database to a ground c-instance.
func FromDatabase(db *relation.Database) *CInstance {
	ci := NewCInstance(db.Schema())
	for _, r := range db.Schema().Relations() {
		ci.tables[r.Name] = FromInstance(db.Relation(r.Name))
	}
	return ci
}

// String renders the c-instance deterministically.
func (ci *CInstance) String() string {
	parts := make([]string, 0, ci.schema.Len())
	for _, r := range ci.schema.Relations() {
		parts = append(parts, ci.tables[r.Name].String())
	}
	return strings.Join(parts, "; ")
}
