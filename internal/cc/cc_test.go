package cc

import (
	"strings"
	"testing"

	"relcomplete/internal/eval"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// Fixture: data schema R(A,B), S(C); master schema Rm(A,B), Empty(W).
type fixture struct {
	data, master *relation.DBSchema
	db, dm       *relation.Database
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	data := relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", nil)),
		relation.MustSchema("S", relation.Attr("C", nil)),
	)
	master := relation.MustDBSchema(
		relation.MustSchema("Rm", relation.Attr("A", nil), relation.Attr("B", nil)),
		relation.MustSchema("Empty", relation.Attr("W", nil)),
	)
	return &fixture{data: data, master: master,
		db: relation.NewDatabase(data), dm: relation.NewDatabase(master)}
}

func TestConstraintValidation(t *testing.T) {
	if _, err := Parse("c", "q(x) := R(x, y) | S(x)", "p(x) := Rm(x, y)"); err == nil {
		t.Fatal("UCQ left side should be rejected")
	}
	if _, err := Parse("c", "q(x) := R(x, y)", "p(x, y) := Rm(x, y)"); err == nil {
		t.Fatal("arity mismatch should be rejected")
	}
	if _, err := Parse("c", "q(x) := R(x, y)", "p(x) := not Rm(x, x)"); err == nil {
		t.Fatal("FO right side should be rejected")
	}
	if _, err := New("c", nil, nil); err == nil {
		t.Fatal("nil sides should be rejected")
	}
}

func TestConstraintSatisfied(t *testing.T) {
	f := newFixture(t)
	c := MustParse("bound", "q(x, y) := R(x, y)", "p(x, y) := Rm(x, y)")

	// Empty data: trivially satisfied.
	ok, err := c.Satisfied(f.db, f.dm, eval.Options{})
	if err != nil || !ok {
		t.Fatalf("empty data should satisfy: %v %v", ok, err)
	}

	f.db.MustInsert("R", relation.T("1", "2"))
	ok, _ = c.Satisfied(f.db, f.dm, eval.Options{})
	if ok {
		t.Fatal("R tuple not in master: should violate")
	}

	f.dm.MustInsert("Rm", relation.T("1", "2"))
	ok, _ = c.Satisfied(f.db, f.dm, eval.Options{})
	if !ok {
		t.Fatal("master now covers the tuple")
	}
}

func TestConstraintWithSelectionAndProjection(t *testing.T) {
	// Example 2.1 shape: q selects Edinburgh patients and projects, the
	// master side projects Patientm.
	data := relation.MustDBSchema(relation.MustSchema("MVisit",
		relation.Attr("NHS", nil), relation.Attr("city", nil), relation.Attr("yob", nil)))
	master := relation.MustDBSchema(relation.MustSchema("Patientm",
		relation.Attr("NHS", nil), relation.Attr("yob", nil), relation.Attr("zip", nil)))
	db := relation.NewDatabase(data)
	dm := relation.NewDatabase(master)
	c := MustParse("edi",
		"q(n, y) := MVisit(n, c, y) & c = 'EDI'",
		"p(n, y) := exists z: Patientm(n, y, z)")

	db.MustInsert("MVisit", relation.T("915", "EDI", "2000"))
	db.MustInsert("MVisit", relation.T("916", "LON", "1990")) // not selected
	ok, err := c.Satisfied(db, dm, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("EDI patient missing from master")
	}
	dm.MustInsert("Patientm", relation.T("915", "2000", "EH8"))
	ok, _ = c.Satisfied(db, dm, eval.Options{})
	if !ok {
		t.Fatal("selected tuple covered; LON tuple must not matter")
	}
}

func TestSetSatisfiedAndViolations(t *testing.T) {
	f := newFixture(t)
	c1 := MustParse("c1", "q(x, y) := R(x, y)", "p(x, y) := Rm(x, y)")
	c2 := MustParse("c2", "q(x) := S(x)", "p(x) := exists y: Rm(x, y)")
	v := NewSet(c1, c2)
	if v.Len() != 2 {
		t.Fatal("Len wrong")
	}

	f.db.MustInsert("S", relation.T("7"))
	ok, err := v.Satisfied(f.db, f.dm, eval.Options{})
	if err != nil || ok {
		t.Fatal("c2 should be violated")
	}
	viol, err := v.Violations(f.db, f.dm, eval.Options{})
	if err != nil || len(viol) != 1 || viol[0].Name != "c2" {
		t.Fatalf("Violations = %v", viol)
	}

	f.dm.MustInsert("Rm", relation.T("7", "z"))
	ok, _ = v.Satisfied(f.db, f.dm, eval.Options{})
	if !ok {
		t.Fatal("all constraints satisfied now")
	}
}

func TestNilSetIsSatisfied(t *testing.T) {
	f := newFixture(t)
	var v *Set
	ok, err := v.Satisfied(f.db, f.dm, eval.Options{})
	if err != nil || !ok {
		t.Fatal("nil set should be satisfied")
	}
	if v.Len() != 0 {
		t.Fatal("nil set Len should be 0")
	}
}

// Lemma 4.7(a): CC satisfaction is antimonotone in the data — removing
// tuples cannot introduce a violation.
func TestSatisfactionAntimonotone(t *testing.T) {
	f := newFixture(t)
	c := MustParse("c", "q(x, y) := R(x, y) & x != y", "p(x, y) := Rm(x, y)")
	f.dm.MustInsert("Rm", relation.T("1", "2"))
	f.db.MustInsert("R", relation.T("1", "2"))
	f.db.MustInsert("R", relation.T("3", "3")) // filtered out by x != y
	v := NewSet(c)
	ok, _ := v.Satisfied(f.db, f.dm, eval.Options{})
	if !ok {
		t.Fatal("setup should satisfy")
	}
	for _, loc := range f.db.AllTuples() {
		smaller := f.db.WithoutTuple(loc.Rel, loc.Tuple)
		ok, err := v.Satisfied(smaller, f.dm, eval.Options{})
		if err != nil || !ok {
			t.Fatalf("removing %v broke satisfaction", loc)
		}
	}
}

func TestSetConstantsAndString(t *testing.T) {
	c := MustParse("c", "q(x) := R(x, y) & y = 'k'", "p(x) := exists y: Rm(x, y)")
	v := NewSet(c)
	if !v.Constants(nil).Contains("k") {
		t.Fatal("constant lost")
	}
	if !strings.Contains(v.String(), "⊆") {
		t.Fatalf("String = %q", v.String())
	}
	if len(v.Vars()) == 0 {
		t.Fatal("Vars should report left-side variables")
	}
}

func TestFullContainment(t *testing.T) {
	f := newFixture(t)
	c, err := FullContainment("full", f.data.Relation("R"), f.master.Relation("Rm"))
	if err != nil {
		t.Fatal(err)
	}
	f.db.MustInsert("R", relation.T("1", "2"))
	ok, _ := c.Satisfied(f.db, f.dm, eval.Options{})
	if ok {
		t.Fatal("should be violated")
	}
	f.dm.MustInsert("Rm", relation.T("1", "2"))
	ok, _ = c.Satisfied(f.db, f.dm, eval.Options{})
	if !ok {
		t.Fatal("should be satisfied")
	}
	// Arity mismatch.
	if _, err := FullContainment("bad", f.data.Relation("R"), f.master.Relation("Empty")); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

func TestMergeConstraints(t *testing.T) {
	f := newFixture(t)
	m, err := relation.NewMerger(f.data)
	if err != nil {
		t.Fatal(err)
	}
	v := NewSet(
		MustParse("c1", "q(x, y) := R(x, y)", "p(x, y) := Rm(x, y)"),
		MustParse("c2", "q(x) := S(x)", "p(x) := exists y: Rm(x, y)"),
	)
	mv, err := v.Merge(m)
	if err != nil {
		t.Fatal(err)
	}

	// Lemma 3.2(b): satisfaction is preserved through the encoding.
	f.db.MustInsert("R", relation.T("1", "2"))
	f.db.MustInsert("S", relation.T("1"))
	f.dm.MustInsert("Rm", relation.T("1", "2"))

	enc, err := m.Encode(f.db)
	if err != nil {
		t.Fatal(err)
	}
	mergedDB := relation.NewDatabase(relation.MustDBSchema(m.Merged()))
	for _, tup := range enc.Tuples() {
		mergedDB.MustInsert(m.Merged().Name, tup)
	}
	ok1, err := v.Satisfied(f.db, f.dm, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok2, err := mv.Satisfied(mergedDB, f.dm, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok1 != ok2 {
		t.Fatalf("Lemma 3.2(b) violated: %v vs %v", ok1, ok2)
	}

	// And for a violating database.
	f.db.MustInsert("S", relation.T("99"))
	enc, _ = m.Encode(f.db)
	mergedDB = relation.NewDatabase(relation.MustDBSchema(m.Merged()))
	for _, tup := range enc.Tuples() {
		mergedDB.MustInsert(m.Merged().Name, tup)
	}
	ok1, _ = v.Satisfied(f.db, f.dm, eval.Options{})
	ok2, _ = mv.Satisfied(mergedDB, f.dm, eval.Options{})
	if ok1 || ok2 {
		t.Fatalf("both should be violated: %v vs %v", ok1, ok2)
	}
}

func TestConstraintErrorPropagation(t *testing.T) {
	f := newFixture(t)
	c := MustParse("c", "q(x) := Nope(x)", "p(x) := exists y: Rm(x, y)")
	if _, err := c.Satisfied(f.db, f.dm, eval.Options{}); err == nil {
		t.Fatal("unknown relation should error")
	}
	q := query.MustParseQuery("q(x) := S(x)")
	p := query.MustParseQuery("p(x) := Gone(x)")
	c2 := Must("c2", q, p)
	f.db.MustInsert("S", relation.T("1"))
	if _, err := c2.Satisfied(f.db, f.dm, eval.Options{}); err == nil {
		t.Fatal("unknown master relation should error")
	}
}

// Right sides of the form p(x̄) := Rm(x̄) are checked by probing the
// master instance; every other shape keeps the memoised p(Dm) set. Each
// must agree with the materialise-both-sides check on every data
// instance.
func TestIdentityProjectionAgreesWithNaive(t *testing.T) {
	cases := []struct {
		left, right string
		identity    bool
	}{
		{"q(x, y) := R(x, y)", "p(x, y) := Rm(x, y)", true},
		{"q(x, y) := R(x, y)", "p(y, x) := Rm(x, y)", false},          // swapped columns
		{"q(x, y) := R(x, y)", "p(x, x) := Rm(x, x)", false},          // repeated variable
		{"q(x) := S(x)", "p(x) := Rm(x, '2')", false},                 // constant
		{"q(x) := S(x)", "p(x) := exists y: Rm(x, y)", false},         // dropped column
		{"q(x) := S(x)", "p(x) := Rm(x, y)", false},                   // dropped column, implicit
		{"q(x, y) := R(x, y) & x != y", "p(x, y) := Rm(x, y)", true},  // selective left side
		{"q(x, y) := R(y, x)", "p(a, b) := Rm(a, b)", true},           // renamed variables
		{"q(x, y) := R(x, y)", "p(x, y) := Rm(x, y) & x != y", false}, // comparison on the right
	}
	vals := []relation.Value{"1", "2", "3"}
	for _, tc := range cases {
		c := MustParse("c", tc.left, tc.right)
		if got := identityRel(c.Right) != ""; got != tc.identity {
			t.Fatalf("%s: identity = %v, want %v", tc.right, got, tc.identity)
		}
		// Every data instance of one R tuple and one S tuple, against
		// a fixed master; plus the empty instance.
		f := newFixture(t)
		f.dm.MustInsert("Rm", relation.T("1", "2"))
		f.dm.MustInsert("Rm", relation.T("2", "2"))
		f.dm.MustInsert("Rm", relation.T("3", "1"))
		dbs := []*relation.Database{relation.NewDatabase(f.data)}
		for _, a := range vals {
			for _, b := range vals {
				for _, s := range vals {
					db := relation.NewDatabase(f.data)
					db.MustInsert("R", relation.T(a, b))
					db.MustInsert("S", relation.T(s))
					dbs = append(dbs, db)
				}
			}
		}
		for _, db := range dbs {
			got, err := c.Satisfied(db, f.dm, eval.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.satisfiedNaive(db, f.dm, eval.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s ⊆ %s on %v: compiled %v, naive %v", tc.left, tc.right, db, got, want)
			}
		}
	}
}

// An identity right side over a relation the master lacks still errors,
// and only once the left side yields a tuple.
func TestIdentityProjectionUnknownMaster(t *testing.T) {
	f := newFixture(t)
	c := MustParse("c", "q(x) := S(x)", "p(x) := Gone(x)")
	if identityRel(c.Right) != "Gone" {
		t.Fatal("right side should be recognised as an identity projection")
	}
	if ok, err := c.Satisfied(f.db, f.dm, eval.Options{}); err != nil || !ok {
		t.Fatalf("empty left side: ok=%v err=%v, want satisfied", ok, err)
	}
	f.db.MustInsert("S", relation.T("1"))
	if _, err := c.Satisfied(f.db, f.dm, eval.Options{}); err == nil || !strings.Contains(err.Error(), "Gone") {
		t.Fatalf("unknown master relation: err = %v", err)
	}
}
