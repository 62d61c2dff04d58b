package relation

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDedupValues(t *testing.T) {
	got := DedupValues([]Value{"b", "a", "b", "c", "a"})
	want := []Value{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DedupValues = %v, want %v", got, want)
	}
	if out := DedupValues(nil); len(out) != 0 {
		t.Fatalf("DedupValues(nil) = %v, want empty", out)
	}
}

// MergeValues equals the sorted set union of its blocks on random
// overlapping blocks, returns the largest block itself when it holds
// every value, and never writes into a block.
func TestMergeValues(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pool := []Value{"", "a", "ab", "b", "ba", "c", "•x", "•xʹ", "z"}
	for iter := 0; iter < 500; iter++ {
		var blocks, copies [][]Value
		union := NewValueSet()
		for b := r.Intn(5); b > 0; b-- {
			var vs []Value
			for i := r.Intn(6); i > 0; i-- {
				vs = append(vs, pool[r.Intn(len(pool))])
			}
			vs = DedupValues(vs)
			union.AddAll(NewValueSet(vs...))
			blocks = append(blocks, vs)
			copies = append(copies, append([]Value(nil), vs...))
		}
		got := MergeValues(blocks...)
		if want := union.Values(); !reflect.DeepEqual(append([]Value{}, got...), want) {
			t.Fatalf("MergeValues(%v) = %v, want %v", blocks, got, want)
		}
		if !reflect.DeepEqual(blocks, copies) {
			t.Fatalf("MergeValues wrote into its blocks: %v, was %v", blocks, copies)
		}
	}
	big := []Value{"a", "b", "c", "d"}
	if got := MergeValues([]Value{"b"}, big, []Value{"a", "d"}); &got[0] != &big[0] || cap(got) != len(got) {
		t.Fatalf("MergeValues did not return the block holding every value: %v", got)
	}
	if got := MergeValues([]Value{"e"}, big); &got[0] == &big[0] {
		t.Fatal("MergeValues returned a block that lacks a value")
	}
}

func TestValueSetBasics(t *testing.T) {
	s := NewValueSet("x", "y")
	if !s.Contains("x") || !s.Contains("y") || s.Contains("z") {
		t.Fatal("membership wrong after construction")
	}
	if !s.Add("z") {
		t.Fatal("Add of fresh value should report true")
	}
	if s.Add("z") {
		t.Fatal("Add of duplicate should report false")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if got := s.Values(); !reflect.DeepEqual(got, []Value{"x", "y", "z"}) {
		t.Fatalf("Values = %v", got)
	}
}

func TestValueSetCloneIndependence(t *testing.T) {
	s := NewValueSet("a")
	c := s.Clone()
	c.Add("b")
	if s.Contains("b") {
		t.Fatal("mutating clone changed original")
	}
	if !c.Contains("a") {
		t.Fatal("clone lost original member")
	}
}

func TestValueSetAddAll(t *testing.T) {
	s := NewValueSet("a")
	s.AddAll(NewValueSet("b", "c"))
	s.AddAll(nil)
	if got := s.Values(); !reflect.DeepEqual(got, []Value{"a", "b", "c"}) {
		t.Fatalf("Values = %v", got)
	}
}

func TestValueSetNilReceiverSafety(t *testing.T) {
	var s *ValueSet
	if s.Contains("a") || s.Len() != 0 || s.Values() != nil {
		t.Fatal("nil ValueSet should behave as empty for reads")
	}
}

func TestValueSetString(t *testing.T) {
	if got := NewValueSet("b", "a").String(); got != "{a, b}" {
		t.Fatalf("String = %q", got)
	}
}

func TestFiniteDomain(t *testing.T) {
	d := Finite("color", "red", "blue", "red")
	if !d.IsFinite() {
		t.Fatal("Finite domain should be finite")
	}
	if got := d.Values(); !reflect.DeepEqual(got, []Value{"blue", "red"}) {
		t.Fatalf("Values = %v", got)
	}
	if !d.Contains("red") || d.Contains("green") {
		t.Fatal("membership wrong")
	}
}

func TestInfiniteDomain(t *testing.T) {
	d := Infinite("any")
	if d.IsFinite() {
		t.Fatal("Infinite domain should not be finite")
	}
	if d.Values() != nil {
		t.Fatal("infinite domain enumerates no values")
	}
	if !d.Contains("anything at all") {
		t.Fatal("infinite domain contains everything")
	}
}

func TestBoolDomain(t *testing.T) {
	d := Bool()
	if got := d.Values(); !reflect.DeepEqual(got, []Value{"0", "1"}) {
		t.Fatalf("Bool() = %v", got)
	}
}

func TestDomainString(t *testing.T) {
	if got := Finite("b", "0", "1").String(); got != "b{0,1}" {
		t.Fatalf("finite String = %q", got)
	}
	if got := Infinite("x").String(); got != "x(∞)" {
		t.Fatalf("infinite String = %q", got)
	}
	var d *Domain
	if got := d.String(); got != "⊤" {
		t.Fatalf("nil String = %q", got)
	}
}

// Property: DedupValues output is sorted and duplicate-free, and
// preserves the underlying set.
func TestDedupValuesProperty(t *testing.T) {
	f := func(raw []string) bool {
		vs := make([]Value, len(raw))
		set := map[Value]bool{}
		for i, s := range raw {
			vs[i] = Value(s)
			set[Value(s)] = true
		}
		out := DedupValues(vs)
		if len(out) != len(set) {
			return false
		}
		for i, v := range out {
			if !set[v] {
				return false
			}
			if i > 0 && !(out[i-1] < v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
