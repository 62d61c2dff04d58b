package relation

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func pairSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema("R", Attr("A", nil), Attr("B", nil))
}

func TestTupleKeyInjective(t *testing.T) {
	// Classic separator-collision cases must key differently.
	cases := [][2]Tuple{
		{T("a", "bc"), T("ab", "c")},
		{T("", "x"), T("x", "")},
		{T("1:1"), T("1", "1")[:1]},
	}
	for _, c := range cases {
		if c[0].Key() == c[1].Key() {
			t.Fatalf("Key collision between %v and %v", c[0], c[1])
		}
	}
}

func TestTupleCompareAndEqual(t *testing.T) {
	if T("a", "b").Compare(T("a", "c")) >= 0 {
		t.Fatal("compare order wrong")
	}
	if T("a").Compare(T("a", "b")) >= 0 {
		t.Fatal("prefix should sort first")
	}
	if T("a", "b").Compare(T("a", "b")) != 0 {
		t.Fatal("equal tuples should compare 0")
	}
	if !T("a", "b").Equal(T("a", "b")) || T("a").Equal(T("a", "b")) {
		t.Fatal("Equal wrong")
	}
}

func TestInstanceSetSemantics(t *testing.T) {
	in := NewInstance(pairSchema(t))
	in.MustInsert(T("1", "2"))
	in.MustInsert(T("1", "2"))
	in.MustInsert(T("3", "4"))
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (set semantics)", in.Len())
	}
	if !in.Contains(T("1", "2")) || in.Contains(T("9", "9")) {
		t.Fatal("Contains wrong")
	}
}

func TestInstanceInsertValidates(t *testing.T) {
	s := MustSchema("R", Attr("A", Bool()))
	in := NewInstance(s)
	if err := in.Insert(T("7")); err == nil {
		t.Fatal("out-of-domain insert should fail")
	}
	if err := in.Insert(T("0", "1")); err == nil {
		t.Fatal("wrong-arity insert should fail")
	}
}

// union returns a new instance holding the tuples of both operands.
func union(in, other *Instance) *Instance {
	c := in.Clone()
	for _, t := range other.rows {
		c.insertUnchecked(t)
	}
	return c
}

// properSubsetOf reports in ⊊ other.
func properSubsetOf(in, other *Instance) bool {
	return in.Len() < other.Len() && in.SubsetOf(other)
}

func TestInstanceSetOps(t *testing.T) {
	s := pairSchema(t)
	a := MustInstance(s, T("1", "1"), T("2", "2"))
	b := MustInstance(s, T("2", "2"), T("3", "3"))

	u := union(a, b)
	if u.Len() != 3 {
		t.Fatalf("union Len = %d", u.Len())
	}
	if a.Len() != 2 || b.Len() != 2 {
		t.Fatal("union mutated operands")
	}

	if !a.SubsetOf(u) || u.SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	if !properSubsetOf(a, u) || properSubsetOf(a, a) {
		t.Fatal("ProperSubsetOf wrong")
	}
	if !a.Equal(a.Clone()) || a.Equal(b) {
		t.Fatal("Equal wrong")
	}

	w := a.WithTuple(T("9", "9"))
	if !w.Contains(T("9", "9")) || a.Contains(T("9", "9")) {
		t.Fatal("WithTuple wrong or mutated receiver")
	}
	wo := a.WithoutTuple(T("1", "1"))
	if wo.Contains(T("1", "1")) || wo.Len() != 1 || a.Len() != 2 {
		t.Fatal("WithoutTuple wrong or mutated receiver")
	}
}

func TestInstanceActiveDomain(t *testing.T) {
	a := MustInstance(pairSchema(t), T("1", "2"), T("2", "3"))
	got := a.ActiveDomain(nil).Values()
	want := []Value{"1", "2", "3"}
	if len(got) != len(want) {
		t.Fatalf("ActiveDomain = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ActiveDomain = %v", got)
		}
	}
}

// SortedColumn lists each column's distinct values in order, serves
// the cached slice until the row count changes, and caps it so that an
// append by a caller copies instead of writing into the cache.
func TestInstanceSortedColumn(t *testing.T) {
	a := MustInstance(pairSchema(t), T("b", "2"), T("a", "2"), T("b", "1"))
	if got := a.SortedColumn(0); !reflect.DeepEqual(got, []Value{"a", "b"}) {
		t.Fatalf("SortedColumn(0) = %v", got)
	}
	col := a.SortedColumn(1)
	if !reflect.DeepEqual(col, []Value{"1", "2"}) || cap(col) != len(col) {
		t.Fatalf("SortedColumn(1) = %v (cap %d)", col, cap(col))
	}
	if again := a.SortedColumn(1); &again[0] != &col[0] {
		t.Fatal("SortedColumn recomputed an unchanged column")
	}
	_ = append(col, "0")
	a.MustInsert(T("c", "0"))
	if got := a.SortedColumn(1); !reflect.DeepEqual(got, []Value{"0", "1", "2"}) {
		t.Fatalf("SortedColumn(1) after insert = %v", got)
	}
	if !reflect.DeepEqual(col, []Value{"1", "2"}) {
		t.Fatalf("an earlier column slice changed: %v", col)
	}
	var nilInst *Instance
	for _, got := range [][]Value{a.SortedColumn(-1), a.SortedColumn(2), nilInst.SortedColumn(0),
		NewInstance(pairSchema(t)).SortedColumn(0)} {
		if got != nil {
			t.Fatalf("SortedColumn out of range or empty = %v, want nil", got)
		}
	}
}

func TestInstanceStringDeterministic(t *testing.T) {
	s := pairSchema(t)
	a := MustInstance(s, T("2", "2"), T("1", "1"))
	b := MustInstance(s, T("1", "1"), T("2", "2"))
	if a.String() != b.String() {
		t.Fatalf("String depends on insertion order: %q vs %q", a.String(), b.String())
	}
	if a.String() != "R{(1, 1), (2, 2)}" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestInstanceCloneIsDeep(t *testing.T) {
	a := MustInstance(pairSchema(t), T("1", "1"))
	c := a.Clone()
	c.MustInsert(T("2", "2"))
	if a.Contains(T("2", "2")) {
		t.Fatal("clone shares storage")
	}
}

func TestNilInstanceReads(t *testing.T) {
	var in *Instance
	if in.Len() != 0 || in.Contains(T("x")) || in.Tuples() != nil {
		t.Fatal("nil instance reads should be empty")
	}
	other := MustInstance(pairSchema(t), T("1", "1"))
	if !in.SubsetOf(other) {
		t.Fatal("nil ⊆ anything")
	}
}

// Property: union is commutative, associative and idempotent up to set
// equality; insertion order never matters.
func TestInstanceUnionProperties(t *testing.T) {
	s := MustSchema("P", Attr("A", Bool()), Attr("B", Bool()))
	gen := func(r *rand.Rand) *Instance {
		in := NewInstance(s)
		for i := 0; i < r.Intn(6); i++ {
			in.MustInsert(T(Value(rune('0'+r.Intn(2))), Value(rune('0'+r.Intn(2)))))
		}
		return in
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		if !union(a, b).Equal(union(b, a)) {
			t.Fatal("union not commutative")
		}
		if !union(a, union(b, c)).Equal(union(union(a, b), c)) {
			t.Fatal("union not associative")
		}
		if !union(a, a).Equal(a) {
			t.Fatal("union not idempotent")
		}
	}
}

// Property (testing/quick): a tuple round-trips through Key uniquely —
// distinct tuples over a small alphabet have distinct keys.
func TestTupleKeyQuick(t *testing.T) {
	f := func(a, b []byte) bool {
		ta := make(Tuple, len(a))
		for i, x := range a {
			ta[i] = Value(string([]byte{x % 3, ':'}))
		}
		tb := make(Tuple, len(b))
		for i, x := range b {
			tb[i] = Value(string([]byte{x % 3, ':'}))
		}
		if ta.Equal(tb) {
			return ta.Key() == tb.Key()
		}
		return ta.Key() != tb.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}
