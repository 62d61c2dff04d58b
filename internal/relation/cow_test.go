package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// Storage keys rows by their values' content alone, whatever memory the
// values occupy. The copy-on-write tests run in two value modes:
// interned, where equal values share one string, as the constants of a
// query or a c-table do, and boxed, where every value is a copy of its
// own, as a decoder produces them.
var valueModes = []struct {
	name string
	val  func(Value) Value
}{
	{"interned", func(v Value) Value { return v }},
	{"boxed", boxValue},
}

// boxValue copies v into an allocation of its own.
func boxValue(v Value) Value { return Value(strings.Clone(string(v))) }

// boxTuple copies every value of t into an allocation of its own.
func boxTuple(t Tuple) Tuple {
	c := make(Tuple, len(t))
	for i, v := range t {
		c[i] = boxValue(v)
	}
	return c
}

// flatCopy re-inserts in's rows, boxed, into a fresh instance: the
// reference a copy-on-write clone must be indistinguishable from.
func flatCopy(in *Instance) *Instance {
	c := NewInstance(in.Schema())
	for _, t := range in.Tuples() {
		c.insertUnchecked(boxTuple(t))
	}
	return c
}

// sameAsFlat checks that in and a flat copy of it agree on Tuples (in
// order), Contains over probe, Equal and ResidentBytes.
func sameAsFlat(t *testing.T, what string, in *Instance, probe []Tuple) {
	t.Helper()
	flat := flatCopy(in)
	if !slices.EqualFunc(in.Tuples(), flat.Tuples(), Tuple.Equal) {
		t.Fatalf("%s: Tuples %v, flat copy %v", what, in.Tuples(), flat.Tuples())
	}
	for _, p := range probe {
		if in.Contains(p) != flat.Contains(p) {
			t.Fatalf("%s: Contains(%v) = %v, flat copy %v", what, p, in.Contains(p), flat.Contains(p))
		}
	}
	if !in.Equal(flat) || !flat.Equal(in) {
		t.Fatalf("%s: not Equal to its flat copy", what)
	}
	if got, want := in.ResidentBytes(), flat.ResidentBytes(); got != want {
		t.Fatalf("%s: ResidentBytes %d, flat copy %d", what, got, want)
	}
}

// digits are the values randTuple draws.
var digits = []Value{"0", "1", "2", "3", "4", "5"}

// randTuple draws a pair of digits, each passed through val.
func randTuple(rng *rand.Rand, val func(Value) Value) Tuple {
	return T(val(digits[rng.Intn(6)]), val(digits[rng.Intn(6)]))
}

// Clones of a frozen instance, and clones of those, are independent of
// the original and of each other, and each is indistinguishable from a
// flat copy of its rows.
func TestFrozenCloneCopyOnWrite(t *testing.T) {
	for _, mode := range valueModes {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var probe []Tuple
			for i := 0; i < 36; i++ {
				probe = append(probe, T(Value(fmt.Sprint(i/6)), Value(fmt.Sprint(i%6))))
			}
			probe = append(probe, T("never", "seen"))
			for round := 0; round < 20; round++ {
				base := NewInstance(pairSchema(t))
				for i := rng.Intn(8); i > 0; i-- {
					base.MustInsert(randTuple(rng, mode.val))
				}
				base.Freeze()
				before := flatCopy(base)

				a, b := base.Clone(), base.Clone()
				for i := rng.Intn(5); i > 0; i-- {
					a.MustInsert(randTuple(rng, mode.val))
				}
				a2 := a.Clone()
				for i := rng.Intn(5); i > 0; i-- {
					a2.MustInsert(randTuple(rng, mode.val))
				}
				for i := rng.Intn(5); i > 0; i-- {
					a.MustInsert(randTuple(rng, mode.val)) // after a2 was cloned from it
				}
				for i := rng.Intn(5); i > 0; i-- {
					b.MustInsert(randTuple(rng, mode.val))
				}
				sameAsFlat(t, "frozen", base, probe)
				if !slices.EqualFunc(base.Tuples(), before.Tuples(), Tuple.Equal) {
					t.Fatalf("frozen instance changed: %v, was %v", base.Tuples(), before.Tuples())
				}
				for name, c := range map[string]*Instance{"clone a": a, "clone of a": a2, "clone b": b} {
					sameAsFlat(t, name, c, probe)
					if !base.SubsetOf(c) {
						t.Fatalf("%s lost a row of the frozen instance", name)
					}
				}
				// A clone of a clone copies only its own small map.
				if len(a2.base) != len(base.seen) || len(a2.seen) != a2.Len()-base.Len() {
					t.Fatalf("clone of a clone: base %d keys, own %d keys; want %d and %d",
						len(a2.base), len(a2.seen), len(base.seen), a2.Len()-base.Len())
				}
			}
		})
	}
}

func TestInsertIntoFrozenPanics(t *testing.T) {
	for _, mode := range valueModes {
		t.Run(mode.name, func(t *testing.T) {
			in := NewInstance(pairSchema(t))
			in.MustInsert(T(mode.val("1"), mode.val("2")))
			in.Freeze()
			defer func() {
				if recover() == nil {
					t.Fatal("insert into a frozen instance did not panic")
				}
			}()
			in.MustInsert(T(mode.val("3"), mode.val("4")))
		})
	}
}

// WithoutTuple equals re-inserting every other row, in order, on flat
// instances and copy-on-write clones alike. The dropped row is passed
// through the mode too, so a boxed drop shares no memory with the row
// it removes.
func TestWithoutTupleMatchesReinsertion(t *testing.T) {
	for _, mode := range valueModes {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			for round := 0; round < 30; round++ {
				in := NewInstance(pairSchema(t))
				for i := 1 + rng.Intn(8); i > 0; i-- {
					in.MustInsert(randTuple(rng, mode.val))
				}
				if round%2 == 1 {
					in.Freeze()
					in = in.Clone()
					in.MustInsert(randTuple(rng, mode.val))
				}
				for _, row := range append(slices.Clone(in.Tuples()), T("absent", "row")) {
					drop := T(mode.val(row[0]), mode.val(row[1]))
					got := in.WithoutTuple(drop)
					want := NewInstance(in.Schema())
					for _, u := range in.Tuples() {
						if !u.Equal(drop) {
							want.insertUnchecked(u)
						}
					}
					if !slices.EqualFunc(got.Tuples(), want.Tuples(), Tuple.Equal) {
						t.Fatalf("WithoutTuple(%v) of %v = %v, want %v",
							drop, in.Tuples(), got.Tuples(), want.Tuples())
					}
					sameAsFlat(t, "without "+drop.String(), got, append(in.Tuples(), drop))
					if got.Contains(drop) {
						t.Fatalf("WithoutTuple(%v) still contains it", drop)
					}
				}
			}
		})
	}
}
