package relation

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The resident-byte charges are deterministic by construction (fixed
// constants, no platform probing); pin them for a known instance so the
// rcserved registry accounting cannot drift silently.
func TestResidentBytesPinned(t *testing.T) {
	in := NewInstance(pairSchema(t))
	in.MustInsert(T("ab", "cde"))
	in.MustInsert(T("ab", "ab"))
	// Per row: slice header (24) + 2 string headers (32); per membership
	// key its bytes (a 1-byte uvarint length + the bytes of each value)
	// + the map entry charge (48); and the bytes of every value.
	want := int64(2*(24+2*16) + ((1 + 2) + (1 + 3) + 48) + ((1 + 2) + (1 + 2) + 48) + (2 + 3 + 2 + 2))
	if got := in.ResidentBytes(); got != want {
		t.Fatalf("instance ResidentBytes = %d, want %d", got, want)
	}
}

// A database charges the sum of its relations' storage.
func TestDatabaseResidentBytesSumsRelations(t *testing.T) {
	sch := MustDBSchema(
		MustSchema("R", Attr("A", nil)),
		MustSchema("S", Attr("B", nil)),
	)
	db := NewDatabase(sch)
	db.MustInsert("R", T("v"))
	db.MustInsert("S", T("v"))
	want := db.Relation("R").ResidentBytes() + db.Relation("S").ResidentBytes()
	if got := db.ResidentBytes(); got != want || want <= 0 {
		t.Fatalf("database ResidentBytes = %d, want %d", got, want)
	}
}

func TestDistinctStats(t *testing.T) {
	in := NewInstance(pairSchema(t))
	if got := in.DistinctAt(0); got != 0 {
		t.Fatalf("empty instance DistinctAt = %d, want 0", got)
	}
	in.MustInsert(T("a", "x"))
	in.MustInsert(T("b", "x"))
	in.MustInsert(T("c", "x"))
	in.MustInsert(T("a", "y")) // duplicate value at 0
	in.MustInsert(T("a", "y")) // duplicate tuple: no stats change
	if got := in.DistinctAt(0); got != 3 {
		t.Fatalf("DistinctAt(0) = %d, want 3", got)
	}
	if got := in.DistinctAt(1); got != 2 {
		t.Fatalf("DistinctAt(1) = %d, want 2", got)
	}
	if got := in.DistinctAt(7); got != 0 {
		t.Fatalf("out-of-range DistinctAt = %d, want 0", got)
	}
	c := in.Clone()
	c.MustInsert(T("d", "x"))
	if got, orig := c.DistinctAt(0), in.DistinctAt(0); got != 4 || orig != 3 {
		t.Fatalf("clone stats must be independent: clone=%d orig=%d", got, orig)
	}
}

// refInstance is the reference model TestInstanceMatchesReference
// checks Instance against: a set of tuple keys plus the tuples in
// insertion order.
type refInstance struct {
	keys map[string]bool
	rows []Tuple
}

func (m refInstance) with(t Tuple) refInstance {
	c := refInstance{keys: make(map[string]bool, len(m.keys)+1), rows: slices.Clone(m.rows)}
	for k := range m.keys {
		c.keys[k] = true
	}
	c.insert(t)
	return c
}

func (m *refInstance) insert(t Tuple) {
	if m.keys == nil {
		m.keys = map[string]bool{}
	}
	if !m.keys[t.Key()] {
		m.keys[t.Key()] = true
		m.rows = append(m.rows, t.Clone())
	}
}

func (m refInstance) without(t Tuple) refInstance {
	var c refInstance
	for _, u := range m.rows {
		if !u.Equal(t) {
			c.insert(u)
		}
	}
	return c
}

// lookup lists the rows whose column pos holds v, in insertion order.
func (m refInstance) lookup(pos int, v Value) []Tuple {
	var out []Tuple
	for _, u := range m.rows {
		if u[pos] == v {
			out = append(out, u)
		}
	}
	return out
}

func (m refInstance) render(name string) string {
	rows := slices.Clone(m.rows)
	slices.SortFunc(rows, Tuple.Compare)
	parts := make([]string, len(rows))
	for i, u := range rows {
		parts[i] = u.String()
	}
	return name + "{" + strings.Join(parts, ", ") + "}"
}

// Randomised check of the Instance API surface against the reference
// model: Insert, WithTuple, WithoutTuple, Clone (of plain and of frozen
// instances), Contains, LookupIndexed, String and Equal, and the
// test-local union built from them.
func TestInstanceMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	vals := []Value{"", "a", "b", "c", "d", "⊥pad"}
	v := func() Value { return vals[r.Intn(len(vals))] }
	sch := pairSchema(t)
	for iter := 0; iter < 200; iter++ {
		in, ref := NewInstance(sch), refInstance{}
		for op := 0; op < 12; op++ {
			tup := T(v(), v())
			switch r.Intn(6) {
			case 0, 1:
				in.MustInsert(tup)
				ref.insert(tup)
			case 2:
				in, ref = in.WithTuple(tup), ref.with(tup)
			case 3:
				in, ref = in.WithoutTuple(tup), ref.without(tup)
			case 4:
				in = in.Clone()
			default:
				frozen := MustInstance(sch, in.Tuples()...)
				frozen.Freeze()
				in = frozen.Clone()
			}
			if !slices.EqualFunc(in.Tuples(), ref.rows, Tuple.Equal) {
				t.Fatalf("iter %d op %d: Tuples %v, want %v", iter, op, in.Tuples(), ref.rows)
			}
			probe := T(v(), v())
			if got, want := in.Contains(probe), ref.keys[probe.Key()]; got != want {
				t.Fatalf("iter %d: Contains(%v) = %v, want %v", iter, probe, got, want)
			}
			for pos := range probe {
				rows, ok := in.LookupIndexed([]int{pos}, []Value{probe[pos]})
				if want := ref.lookup(pos, probe[pos]); !ok || !slices.EqualFunc(rows, want, Tuple.Equal) {
					t.Fatalf("iter %d: LookupIndexed(%d, %q) = %v,%v, want %v", iter, pos, probe[pos], rows, ok, want)
				}
			}
		}
		if got, want := in.String(), ref.render(sch.Name); got != want {
			t.Fatalf("iter %d: String %s, want %s", iter, got, want)
		}
		other, otherRef := NewInstance(sch), refInstance{}
		for i := r.Intn(5); i > 0; i-- {
			tup := T(v(), v())
			other.MustInsert(tup)
			otherRef.insert(tup)
		}
		u, uRef := union(in, other), ref
		for _, tup := range otherRef.rows {
			uRef = uRef.with(tup)
		}
		if !slices.EqualFunc(u.Tuples(), uRef.rows, Tuple.Equal) {
			t.Fatalf("iter %d: Union %v, want %v", iter, u.Tuples(), uRef.rows)
		}
		reversed := NewInstance(sch)
		for i := len(ref.rows) - 1; i >= 0; i-- {
			reversed.MustInsert(ref.rows[i])
		}
		if !in.Equal(reversed) || !reversed.Equal(in) {
			t.Fatalf("iter %d: %v not Equal to its rows reinserted in reverse", iter, in)
		}
		if got, want := in.Equal(other), maps.Equal(ref.keys, otherRef.keys); got != want {
			t.Fatalf("iter %d: Equal(%v, %v) = %v, want %v", iter, in, other, got, want)
		}
	}
}

// The key-building hot paths must not allocate: AppendKey and
// AppendValueKey into a reused scratch buffer, membership tests, and
// warm index probes.
func TestHotPathZeroAlloc(t *testing.T) {
	prevMetrics := Metrics()
	SetMetrics(nil)
	defer SetMetrics(prevMetrics)

	tup := T("alpha", "beta", "gamma")
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(200, func() {
		buf = tup.AppendKey(buf[:0])
	}); n != 0 {
		t.Errorf("Tuple.AppendKey allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendValueKey(buf[:0], "alpha")
	}); n != 0 {
		t.Errorf("AppendValueKey allocs/op = %v, want 0", n)
	}

	in := NewInstance(pairSchema(t))
	for i := 0; i < 64; i++ {
		in.MustInsert(T(Value(fmt.Sprintf("k%d", i%8)), Value(fmt.Sprintf("v%d", i))))
	}
	hit, missVal := T("k3", "v3"), T("k3", "nope")
	if n := testing.AllocsPerRun(200, func() {
		if !in.Contains(hit) || in.Contains(missVal) {
			panic("Contains wrong")
		}
	}); n != 0 {
		t.Errorf("Contains allocs/op = %v, want 0", n)
	}

	pos, valsHit, valsMiss := []int{0}, []Value{"k3"}, []Value{"zzz"}
	in.LookupIndexed(pos, valsHit) // build the index outside the measurement
	if n := testing.AllocsPerRun(200, func() {
		rows, ok := in.LookupIndexed(pos, valsHit)
		if !ok || len(rows) == 0 {
			panic("probe wrong")
		}
		if rows, ok := in.LookupIndexed(pos, valsMiss); !ok || len(rows) != 0 {
			panic("miss probe wrong")
		}
	}); n != 0 {
		t.Errorf("LookupIndexed probe allocs/op = %v, want 0", n)
	}
}
