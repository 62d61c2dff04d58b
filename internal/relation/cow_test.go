package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// storageModes builds an empty instance of s in each storage mode.
var storageModes = []struct {
	name string
	make func(s *Schema) *Instance
}{
	{"interned", func(s *Schema) *Instance { return NewInternedInstance(s, NewInterner()) }},
	{"boxed", NewBoxedInstance},
}

// flatCopy re-inserts in's rows into a fresh instance of the same
// storage: the reference a copy-on-write clone must be
// indistinguishable from.
func flatCopy(in *Instance) *Instance {
	c := in.emptyLike(in.Len())
	for _, t := range in.Tuples() {
		c.insertUnchecked(t)
	}
	return c
}

// sameAsFlat checks that in and a flat copy of it agree on Tuples (in
// order), ids, Contains over probe, Equal and ResidentBytes.
func sameAsFlat(t *testing.T, what string, in *Instance, probe []Tuple) {
	t.Helper()
	flat := flatCopy(in)
	if !slices.EqualFunc(in.Tuples(), flat.Tuples(), Tuple.Equal) {
		t.Fatalf("%s: Tuples %v, flat copy %v", what, in.Tuples(), flat.Tuples())
	}
	if !slices.Equal(in.ids, flat.ids) {
		t.Fatalf("%s: ids %v, flat copy %v", what, in.ids, flat.ids)
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

func randTuple(rng *rand.Rand) Tuple {
	return T(Value(fmt.Sprint(rng.Intn(6))), Value(fmt.Sprint(rng.Intn(6))))
}

// Clones of a frozen instance, and clones of those, are independent of
// the original and of each other, and each is indistinguishable from a
// flat copy of its rows.
func TestFrozenCloneCopyOnWrite(t *testing.T) {
	for _, mode := range storageModes {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var probe []Tuple
			for i := 0; i < 36; i++ {
				probe = append(probe, T(Value(fmt.Sprint(i/6)), Value(fmt.Sprint(i%6))))
			}
			probe = append(probe, T("never", "seen"))
			for round := 0; round < 20; round++ {
				base := mode.make(pairSchema(t))
				for i := rng.Intn(8); i > 0; i-- {
					base.MustInsert(randTuple(rng))
				}
				base.Freeze()
				before := flatCopy(base)

				a, b := base.Clone(), base.Clone()
				for i := rng.Intn(5); i > 0; i-- {
					a.MustInsert(randTuple(rng))
				}
				a2 := a.Clone()
				for i := rng.Intn(5); i > 0; i-- {
					a2.MustInsert(randTuple(rng))
				}
				for i := rng.Intn(5); i > 0; i-- {
					a.MustInsert(randTuple(rng)) // after a2 was cloned from it
				}
				for i := rng.Intn(5); i > 0; i-- {
					b.MustInsert(randTuple(rng))
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
	for _, mode := range storageModes {
		t.Run(mode.name, func(t *testing.T) {
			in := mode.make(pairSchema(t))
			in.MustInsert(T("1", "2"))
			in.Freeze()
			defer func() {
				if recover() == nil {
					t.Fatal("insert into a frozen instance did not panic")
				}
			}()
			in.MustInsert(T("3", "4"))
		})
	}
}

// WithoutTuple equals re-inserting every other row, in order and in
// ids, on flat instances and copy-on-write clones alike.
func TestWithoutTupleMatchesReinsertion(t *testing.T) {
	for _, mode := range storageModes {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			for round := 0; round < 30; round++ {
				in := mode.make(pairSchema(t))
				for i := 1 + rng.Intn(8); i > 0; i-- {
					in.MustInsert(randTuple(rng))
				}
				if round%2 == 1 {
					in.Freeze()
					in = in.Clone()
					in.MustInsert(randTuple(rng))
				}
				for _, drop := range append(slices.Clone(in.Tuples()), T("absent", "row")) {
					got := in.WithoutTuple(drop)
					want := in.emptyLike(in.Len())
					for _, u := range in.Tuples() {
						if !u.Equal(drop) {
							want.insertUnchecked(u)
						}
					}
					if !slices.EqualFunc(got.Tuples(), want.Tuples(), Tuple.Equal) || !slices.Equal(got.ids, want.ids) {
						t.Fatalf("WithoutTuple(%v) of %v = %v (ids %v), want %v (ids %v)",
							drop, in.Tuples(), got.Tuples(), got.ids, want.Tuples(), want.ids)
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
