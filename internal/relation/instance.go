package relation

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"relcomplete/internal/fault"
	"relcomplete/internal/obs"
)

// Tuple is a row of constants; position i belongs to attribute i of the
// owning schema.
type Tuple []Value

// Equal reports component-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Compare orders tuples lexicographically (shorter first on prefix tie).
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := CompareValues(t[i], u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// String renders the tuple as (a, b, c).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = string(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// T builds a tuple from string literals; convenience for tests and
// reductions.
func T(vals ...Value) Tuple { return Tuple(vals) }

// Instance is a set-semantics instance of a single relation schema.
// Iteration order is insertion order, which makes every derived
// computation deterministic.
//
// An instance keeps its rows, a membership set keyed by the rows'
// value encodings (Tuple.AppendKey), hash indexes on those encodings
// built lazily per position set, and per-position distinct-value
// statistics that feed the query planner's cost estimates.
type Instance struct {
	schema *Schema
	rows   []Tuple
	seen   map[string]int // tuple key -> index in rows

	// Copy-on-write membership. A frozen instance accepts no inserts, so
	// its clones share its seen map as base, read-only, and write new
	// keys into a seen map of their own; a key is a member when either
	// map holds it. The two maps never share a key. Freeze refuses an
	// instance with a base, so a frozen instance has none of its own.
	base   map[string]int
	frozen bool

	// Per-position distinct-value statistics, computed lazily from the
	// rows on the first DistinctAt/indexSizeHint call and cached until the
	// row count changes. Guarded by idxMu (the planner reads statistics
	// from instances shared across parallel workers).
	statRows     int
	statDistinct []int

	// Distinct values in first-occurrence order, computed lazily by
	// ActiveDomain and cached until the row count changes — the eval
	// engine recomputes its domain per plan run, so on instances that
	// are queried repeatedly (every candidate model is checked against
	// each containment constraint) this turns O(rows×arity) hash inserts
	// per run into O(distinct). Guarded by idxMu.
	adomRows int
	adomVals []Value

	// Each column's distinct values in sorted order, computed lazily by
	// SortedColumn and cached until the row count changes: the active
	// domain and typed-domain construction merge these instead of
	// hashing and sorting every value of the master data on each build.
	// Guarded by idxMu; the slices are shared read-only. A pointer, so
	// the candidate instances that never need it stay in the allocation
	// size class they had without it.
	cols *sortedColumns

	// idxMu guards indexes. Indexes are built lazily by the first query
	// that joins on a given position set and maintained incrementally on
	// insert, so concurrent READERS (the parallel candidate searches
	// evaluate queries against shared instances) may race to build one;
	// the mutex serialises them. Concurrent mutation with reads remains
	// unsupported, as it always was for rows and seen.
	idxMu   sync.Mutex
	indexes map[uint64]*posIndex // bitmask of key positions -> index
}

// sortedColumns holds, per column, the distinct values of an
// instance's first rows rows in sorted order.
type sortedColumns struct {
	rows int
	vals [][]Value
}

// posIndex is a hash index of the instance on a fixed set of column
// positions: the encoded values at those positions map to the rows that
// carry them, in insertion order.
type posIndex struct {
	positions []int // ascending
	buckets   map[string][]Tuple
}

// add indexes row t.
func (ix *posIndex) add(t Tuple) {
	var arr [scratchKeyBytes]byte
	key := arr[:0]
	for _, p := range ix.positions {
		key = AppendValueKey(key, t[p])
	}
	ix.buckets[string(key)] = append(ix.buckets[string(key)], t)
}

// maxIndexedArity bounds the position bitmask; wider relations (which
// the paper never produces) fall back to scans.
const maxIndexedArity = 64

// scratchKeyBytes sizes the stack scratch buffers of the key-building
// hot paths: 64 bytes hold the keys of the short constants the paper's
// reductions build. Longer keys silently spill to the heap.
const scratchKeyBytes = 64

// Resident-size accounting constants. These are deliberately fixed
// (not unsafe.Sizeof probes) so the byte charges that feed the rcserved
// registry cap are identical on every platform and can be pinned by
// tests: a slice header, a string header, and a flat per-map-entry
// bookkeeping charge covering bucket space and the hash seed share.
const (
	sliceHeaderBytes  = 24
	stringHeaderBytes = 16
	mapEntryBytes     = 48
)

// posMask folds ascending positions into a bitmask key.
func posMask(positions []int) uint64 {
	var m uint64
	for _, p := range positions {
		m |= 1 << uint(p)
	}
	return m
}

// statsLocked returns the per-position distinct counts, recomputing
// them from the rows when the cache is stale. Callers must hold idxMu;
// the result is nil for an empty instance.
func (in *Instance) statsLocked() []int {
	if len(in.rows) == 0 {
		return nil
	}
	if in.statDistinct != nil && in.statRows == len(in.rows) {
		return in.statDistinct
	}
	seen := make(map[Value]struct{}, len(in.rows))
	counts := make([]int, in.schema.Arity())
	for p := range counts {
		clear(seen)
		for _, t := range in.rows {
			seen[t[p]] = struct{}{}
		}
		counts[p] = len(seen)
	}
	in.statDistinct, in.statRows = counts, len(in.rows)
	return counts
}

// indexSizeHint estimates the bucket count of an index on positions:
// the product of per-position distinct counts, clamped by the row
// count. An empty instance has no statistics and falls back to the row
// count. Callers hold idxMu.
func (in *Instance) indexSizeHint(positions []int) int {
	stats := in.statsLocked()
	if stats == nil {
		return len(in.rows)
	}
	est := 1
	for _, p := range positions {
		if p >= len(stats) || stats[p] == 0 {
			return len(in.rows)
		}
		est *= stats[p]
		if est >= len(in.rows) {
			return len(in.rows)
		}
	}
	return est
}

// LookupIndexed returns the rows whose columns at positions (ascending)
// equal vals, using a lazily built hash index. The second result is
// false when the instance cannot serve the lookup from an index (no
// positions, or arity beyond the bitmask width) and the caller must
// scan. The returned slice is shared with the index; callers must not
// mutate it.
func (in *Instance) LookupIndexed(positions []int, vals []Value) ([]Tuple, bool) {
	if in == nil {
		return nil, true // vacuously indexable: no rows match
	}
	if len(positions) == 0 || in.schema.Arity() > maxIndexedArity {
		return nil, false
	}
	if err := faultPlan.Load().Visit(fault.SiteRelationProbe); err != nil {
		// Graceful degradation: an injected probe error demotes the
		// lookup to "not indexable" and the caller falls back to a scan,
		// so the verdict is unaffected (delays and panics hit directly).
		return nil, false
	}
	m := metrics.Load()
	var arr [scratchKeyBytes]byte
	key := arr[:0]
	for _, v := range vals {
		key = AppendValueKey(key, v)
	}
	mask := posMask(positions)
	in.idxMu.Lock()
	ix := in.indexes[mask]
	if ix == nil {
		ix = &posIndex{
			positions: append([]int(nil), positions...),
			buckets:   make(map[string][]Tuple, in.indexSizeHint(positions)),
		}
		for _, t := range in.rows {
			ix.add(t)
		}
		if in.indexes == nil {
			in.indexes = make(map[uint64]*posIndex, 4)
		}
		in.indexes[mask] = ix
		m.Inc(obs.IndexBuilds)
	}
	in.idxMu.Unlock()
	rows := ix.buckets[string(key)]
	if m != nil {
		m.Inc(obs.IndexProbes)
		if len(rows) > 0 {
			m.Inc(obs.IndexProbeHits)
		} else {
			m.Inc(obs.IndexProbeMisses)
		}
		m.Observe(obs.IndexProbeRows, int64(len(rows)))
	}
	return rows, true
}

// NewInstance returns an empty instance of the given schema.
func NewInstance(schema *Schema) *Instance {
	return &Instance{schema: schema, seen: make(map[string]int)}
}

// InstanceOf builds an instance of schema containing the given tuples;
// it returns an error if a tuple does not fit the schema.
func InstanceOf(schema *Schema, tuples ...Tuple) (*Instance, error) {
	inst := NewInstance(schema)
	for _, t := range tuples {
		if err := inst.Insert(t); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// MustInstance is InstanceOf that panics on error.
func MustInstance(schema *Schema, tuples ...Tuple) *Instance {
	inst, err := InstanceOf(schema, tuples...)
	if err != nil {
		panic(err)
	}
	return inst
}

// Schema returns the instance's relation schema.
func (in *Instance) Schema() *Schema { return in.schema }

// Len returns the number of tuples.
func (in *Instance) Len() int {
	if in == nil {
		return 0
	}
	return len(in.rows)
}

// IsEmpty reports whether the instance has no tuples.
func (in *Instance) IsEmpty() bool { return in.Len() == 0 }

// Insert adds t (validated against the schema); duplicates are ignored.
func (in *Instance) Insert(t Tuple) error {
	if err := in.schema.Check(t); err != nil {
		return err
	}
	in.insertUnchecked(t)
	return nil
}

// MustInsert is Insert that panics on error.
func (in *Instance) MustInsert(t Tuple) {
	if err := in.Insert(t); err != nil {
		panic(err)
	}
}

func (in *Instance) insertUnchecked(t Tuple) bool {
	if in.frozen {
		panic("relation: insert into a frozen instance of " + in.schema.Name)
	}
	var arr [scratchKeyBytes]byte
	k := t.AppendKey(arr[:0])
	if in.has(k) {
		return false
	}
	in.seen[string(k)] = len(in.rows)
	row := t.Clone()
	in.rows = append(in.rows, row)
	in.maintainIndexes(row)
	return true
}

// maintainIndexes keeps live indexes exact after an insert: appending
// to each bucket is cheaper than invalidating and re-scanning on the
// next lookup.
func (in *Instance) maintainIndexes(row Tuple) {
	in.idxMu.Lock()
	if len(in.indexes) > 0 {
		for _, ix := range in.indexes {
			ix.add(row)
		}
		metrics.Load().Add(obs.IndexInserts, int64(len(in.indexes)))
	}
	in.idxMu.Unlock()
}

// has reports whether a membership key is in seen or in the shared
// base of a copy-on-write clone.
func (in *Instance) has(key []byte) bool {
	if _, ok := in.base[string(key)]; ok {
		return true
	}
	_, ok := in.seen[string(key)]
	return ok
}

// Contains reports whether the instance holds t.
func (in *Instance) Contains(t Tuple) bool {
	if in == nil {
		return false
	}
	var arr [scratchKeyBytes]byte
	return in.has(t.AppendKey(arr[:0]))
}

// Tuples returns the tuples in insertion order. The returned slice is
// shared with the instance; callers must not mutate it.
func (in *Instance) Tuples() []Tuple {
	if in == nil {
		return nil
	}
	return in.rows
}

// DistinctAt returns the number of distinct values at position pos, or
// 0 for a nil or empty instance or an out-of-range pos. Statistics are
// computed on demand and cached until the row count changes, so
// candidate instances that are never planned against pay nothing for
// them.
func (in *Instance) DistinctAt(pos int) int {
	if in == nil || pos < 0 || pos >= in.schema.Arity() {
		return 0
	}
	in.idxMu.Lock()
	stats := in.statsLocked()
	in.idxMu.Unlock()
	if stats == nil {
		return 0
	}
	return stats[pos]
}

// ResidentBytes estimates the heap bytes of the instance's storage
// using the fixed platform-independent charges above: the rows (a slice
// header per row, a string header and the bytes of each value) and the
// membership map (key bytes plus the per-entry charge).
func (in *Instance) ResidentBytes() int64 {
	if in == nil {
		return 0
	}
	arity := int64(in.schema.Arity())
	rows := int64(len(in.rows))
	b := rows * (sliceHeaderBytes + arity*stringHeaderBytes)
	for _, m := range [...]map[string]int{in.base, in.seen} {
		for k := range m {
			b += int64(len(k)) + mapEntryBytes
		}
	}
	for _, t := range in.rows {
		for _, v := range t {
			b += int64(len(v))
		}
	}
	return b
}

// Clone returns an independent copy. Rows are immutable after insert,
// so the clone shares the tuple backing arrays (as index buckets and
// Tuples() callers already do) instead of re-keying every row. The
// membership map is copied on write: the clone of a frozen instance
// shares its map read-only and starts an empty one of its own, and the
// clone of such a clone copies only that small map.
// Statistics and indexes are not copied; the clone rebuilds them
// lazily if queried.
func (in *Instance) Clone() *Instance {
	c := &Instance{schema: in.schema}
	c.rows = append([]Tuple(nil), in.rows...)
	switch {
	case in.frozen:
		c.base, c.seen = in.seen, make(map[string]int)
	case in.seen != nil:
		c.base, c.seen = in.base, maps.Clone(in.seen)
	default:
		c.seen = make(map[string]int)
	}
	return c
}

// Freeze makes the instance read-only: a later insert panics, and
// clones share its membership map instead of copying it. An instance
// built once and cloned per use (a c-instance's ground prefix) freezes
// itself before it is shared. Only an instance built by inserts can be
// frozen; freezing the clone of a frozen instance panics.
func (in *Instance) Freeze() {
	if in.base != nil {
		panic("relation: freeze of a copy-on-write clone of " + in.schema.Name)
	}
	in.frozen = true
}

// WithTuple returns a copy of the instance with t added.
func (in *Instance) WithTuple(t Tuple) *Instance {
	c := in.Clone()
	c.insertUnchecked(t)
	return c
}

// WithoutTuple returns a copy of the instance with t removed. The copy
// shares the other rows, as Clone does, and keys them afresh.
func (in *Instance) WithoutTuple(t Tuple) *Instance {
	c := &Instance{schema: in.schema, seen: make(map[string]int, len(in.rows)),
		rows: make([]Tuple, 0, len(in.rows))}
	var arr [scratchKeyBytes]byte
	for _, u := range in.rows {
		if u.Equal(t) {
			continue
		}
		c.seen[string(u.AppendKey(arr[:0]))] = len(c.rows)
		c.rows = append(c.rows, u)
	}
	return c
}

// SubsetOf reports in ⊆ other.
func (in *Instance) SubsetOf(other *Instance) bool {
	if in == nil {
		return true
	}
	for _, t := range in.rows {
		if !other.Contains(t) {
			return false
		}
	}
	return true
}

// Equal reports set equality with other.
func (in *Instance) Equal(other *Instance) bool {
	return in.Len() == other.Len() && in.SubsetOf(other)
}

// activeValuesLocked returns the distinct values of the instance in
// first-occurrence order, recomputing the cache when the row count
// changed. Callers must hold idxMu and must not mutate the result.
func (in *Instance) activeValuesLocked() []Value {
	if in.adomVals != nil && in.adomRows == len(in.rows) {
		return in.adomVals
	}
	vals := make([]Value, 0, 16)
	seen := make(map[Value]struct{}, 16)
	for _, t := range in.rows {
		for _, v := range t {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				vals = append(vals, v)
			}
		}
	}
	in.adomVals, in.adomRows = vals, len(in.rows)
	return vals
}

// SortedColumn returns the distinct values at position pos in sorted
// order, or nil for a nil or empty instance or an out-of-range pos. All
// columns are computed on the first call and cached until the row
// count changes. The slice is shared across goroutines and capped at
// its length, so an append to it copies; callers must not write into
// it.
func (in *Instance) SortedColumn(pos int) []Value {
	if in == nil || pos < 0 || pos >= in.schema.Arity() || len(in.rows) == 0 {
		return nil
	}
	in.idxMu.Lock()
	defer in.idxMu.Unlock()
	if in.cols == nil || in.cols.rows != len(in.rows) {
		sc := &sortedColumns{rows: len(in.rows), vals: make([][]Value, in.schema.Arity())}
		for p := range sc.vals {
			col := make([]Value, len(in.rows))
			for i, t := range in.rows {
				col[i] = t[p]
			}
			if col = DedupValues(col); cap(col) > 2*len(col) {
				col = slices.Clone(col)
			}
			sc.vals[p] = slices.Clip(col)
		}
		in.cols = sc
	}
	return in.cols.vals[pos]
}

// ActiveDomain collects every constant appearing in the instance into dst
// (allocating it when nil) and returns dst.
func (in *Instance) ActiveDomain(dst *ValueSet) *ValueSet {
	if dst == nil {
		dst = NewValueSet()
	}
	if in == nil || len(in.rows) == 0 {
		return dst
	}
	in.idxMu.Lock()
	vals := in.activeValuesLocked()
	in.idxMu.Unlock()
	for _, v := range vals {
		dst.Add(v)
	}
	return dst
}

// Sorted returns the tuples in lexicographic order (a fresh slice).
func (in *Instance) Sorted() []Tuple {
	out := make([]Tuple, len(in.rows))
	copy(out, in.rows)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// String renders the instance deterministically.
func (in *Instance) String() string {
	var b strings.Builder
	b.WriteString(in.schema.Name)
	b.WriteByte('{')
	for i, t := range in.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}
