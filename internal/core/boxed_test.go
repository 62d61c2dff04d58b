package core

import (
	"errors"
	"strings"
	"testing"

	"relcomplete/internal/relation"
)

// boxedCopy rebuilds db row by row into fresh instances, copying every
// value into an allocation of its own: storage that shares nothing with
// db, neither a frozen base, nor an index or statistic an earlier decide
// built, nor the memory of a value.
func boxedCopy(db *relation.Database) *relation.Database {
	c := relation.NewDatabase(db.Schema())
	for _, lt := range db.AllTuples() {
		tup := make(relation.Tuple, len(lt.Tuple))
		for i, v := range lt.Tuple {
			tup[i] = relation.Value(strings.Clone(string(v)))
		}
		c.MustInsert(lt.Rel, tup)
	}
	return c
}

// The boxed storage differential: a problem over a boxed copy of the
// master data must reach the original problem's verdict in every model,
// and both the reference's. The copy's values share no memory with the
// c-instance's constants, so the constraint checks compare models with
// master data by content alone. The randomised problems reuse the
// reference corpus generator.
func TestRCDPBoxedStorageDifferential(t *testing.T) {
	for i, rp := range randomProblems(t, 303, 60) {
		boxedP := MustProblem(rp.p.Schema, rp.p.Query, boxedCopy(rp.p.Master), rp.p.CCs, Options{})
		for _, m := range []Model{Strong, Weak, Viable} {
			got, errGot := rp.p.RCDP(rp.ci, m)
			gotB, errB := boxedP.RCDP(rp.ci, m)
			want, errWant := rp.p.ReferenceRCDP(rp.ci, m, 3)
			if errors.Is(errGot, ErrInconsistent) || errors.Is(errB, ErrInconsistent) || errors.Is(errWant, ErrInconsistent) {
				if !errors.Is(errGot, ErrInconsistent) || !errors.Is(errB, ErrInconsistent) || !errors.Is(errWant, ErrInconsistent) {
					t.Fatalf("case %d model %v: inconsistency disagreement %v / boxed %v / reference %v", i, m, errGot, errB, errWant)
				}
				continue
			}
			if errGot != nil || errB != nil || errWant != nil {
				t.Fatalf("case %d model %v: errors %v / boxed %v / reference %v", i, m, errGot, errB, errWant)
			}
			if got != gotB || got != want {
				t.Fatalf("case %d model %v: decider %v, boxed %v, reference %v\nquery: %s\nci: %v\nmaster: %v",
					i, m, got, gotB, want, rp.p.Query, rp.ci, rp.p.Master)
			}
		}
	}
}

// GroundComplete must agree on boxed copies too: it exercises the
// membership (Contains) and index-probe fast paths on candidate models.
func TestGroundCompleteBoxedStorageDifferential(t *testing.T) {
	for i, rp := range randomProblems(t, 404, 40) {
		db, err := rp.p.AnyModel(rp.ci)
		if err != nil {
			t.Fatal(err)
		}
		if db == nil {
			continue
		}
		boxedP := MustProblem(rp.p.Schema, rp.p.Query, boxedCopy(rp.p.Master), rp.p.CCs, Options{})
		got, _, errGot := rp.p.GroundComplete(db)
		gotB, _, errB := boxedP.GroundComplete(boxedCopy(db))
		want, errWant := rp.p.ReferenceGroundComplete(db, 3)
		if errGot != nil || errB != nil || errWant != nil {
			t.Fatalf("case %d: errors %v / boxed %v / reference %v", i, errGot, errB, errWant)
		}
		if got != gotB || got != want {
			t.Fatalf("case %d: GroundComplete %v, boxed %v, reference %v\nquery: %s\ndb: %v\nmaster: %v",
				i, got, gotB, want, rp.p.Query, db, rp.p.Master)
		}
	}
}
