package core

import (
	"slices"
	"testing"

	"relcomplete/internal/ctable"
	"relcomplete/internal/relation"
)

// checkDomainsAgainstSets compares the compact domains built for p and
// ci with the set-based construction they replaced: Adom membership
// with a value set over the Adom's values, and each position's typed
// candidates with the sorted set union of its class's constants and
// fresh values, the unattributed constants and the shared fresh values.
func checkDomainsAgainstSets(t *testing.T, p *Problem, ci *ctable.CInstance) {
	t.Helper()
	for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}} {
		a, err := p.adomFor(ci, flags[0], flags[1])
		if err != nil {
			t.Fatal(err)
		}
		set := relation.NewValueSet(a.Values()...)
		if !slices.Equal(a.Values(), set.Values()) {
			t.Fatalf("Adom values not sorted and distinct: %v", a.Values())
		}
		for _, v := range a.Values() {
			for _, probe := range []relation.Value{v, v + "ʹ", v + "x", "•" + v, v[:len(v)/2], ""} {
				if a.Contains(probe) != set.Contains(probe) {
					t.Fatalf("Adom.Contains(%q) = %v, set says %v", probe, a.Contains(probe), set.Contains(probe))
				}
			}
		}

		cp, err := p.classify(ci, a)
		if err != nil {
			t.Fatal(err)
		}
		ty := cp.compact()
		shared := relation.NewValueSet(append(append([]relation.Value(nil), cp.global...), cp.every...)...)
		for pos, cl := range cp.class {
			old := relation.NewValueSet(cp.consts[cl]...)
			for _, v := range cp.fresh[cl] {
				old.Add(v)
			}
			old.AddAll(shared)
			if got := ty.candidatesAt(pos, nil, a); !slices.Equal(got, old.Values()) {
				t.Fatalf("candidatesAt(%v) = %v, set construction %v", pos, got, old.Values())
			}
		}
		if got := ty.candidatesAt(position{rel: "·unclassified·"}, nil, a); !slices.Equal(got, shared.Values()) {
			t.Fatalf("unclassified candidates = %v, set construction %v", got, shared.Values())
		}
	}
}
