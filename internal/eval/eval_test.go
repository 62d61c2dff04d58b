package eval

import (
	"math/rand"
	"testing"

	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

func mkDB(t testing.TB) *relation.Database {
	t.Helper()
	sch := relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", nil)),
		relation.MustSchema("S", relation.Attr("C", nil)),
	)
	db := relation.NewDatabase(sch)
	db.MustInsert("R", relation.T("1", "2"))
	db.MustInsert("R", relation.T("2", "3"))
	db.MustInsert("R", relation.T("3", "3"))
	db.MustInsert("S", relation.T("2"))
	db.MustInsert("S", relation.T("3"))
	return db
}

func answersOf(t testing.TB, db *relation.Database, src string) []relation.Tuple {
	t.Helper()
	ans, err := Answers(db, query.MustParseQuery(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

func wantAnswers(t *testing.T, got []relation.Tuple, want ...relation.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEvalCQJoin(t *testing.T) {
	db := mkDB(t)
	// R(x,y) & S(y): (1,2),(2,3),(3,3)
	got := answersOf(t, db, "Q(x, y) := R(x, y) & S(y)")
	wantAnswers(t, got, relation.T("1", "2"), relation.T("2", "3"), relation.T("3", "3"))
}

func TestEvalCQConstantsAndProjection(t *testing.T) {
	db := mkDB(t)
	got := answersOf(t, db, "Q(x) := R(x, '3')")
	wantAnswers(t, got, relation.T("2"), relation.T("3"))
	// Constant in head.
	got = answersOf(t, db, "Q('k', x) := R(x, '2')")
	wantAnswers(t, got, relation.T("k", "1"))
}

func TestEvalCQInequality(t *testing.T) {
	db := mkDB(t)
	got := answersOf(t, db, "Q(x, y) := R(x, y) & x != y")
	wantAnswers(t, got, relation.T("1", "2"), relation.T("2", "3"))
	// z is unbound when it meets itself: z ≠ z holds for no value, so
	// only the S(x) disjunct contributes.
	got = answersOf(t, db, "Q(x) := R(x, y) & (S(x) | z != z)")
	wantAnswers(t, got, relation.T("2"), relation.T("3"))
}

func TestEvalCQSelfJoin(t *testing.T) {
	db := mkDB(t)
	// Paths of length 2.
	got := answersOf(t, db, "Q(x, z) := R(x, y) & R(y, z)")
	wantAnswers(t, got,
		relation.T("1", "3"), relation.T("2", "3"), relation.T("3", "3"))
}

func TestEvalExistsProjection(t *testing.T) {
	db := mkDB(t)
	got := answersOf(t, db, "Q(x) := exists y: R(x, y) & S(y)")
	wantAnswers(t, got, relation.T("1"), relation.T("2"), relation.T("3"))
}

func TestEvalBooleanQuery(t *testing.T) {
	db := mkDB(t)
	yes, err := Bool(db, query.MustParseQuery("Q() := exists x: R(x, x)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !yes {
		t.Fatal("R(3,3) exists; query should be true")
	}
	no, err := Bool(db, query.MustParseQuery("Q() := R('9', '9')"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if no {
		t.Fatal("query should be false")
	}
	if _, err := Bool(db, query.MustParseQuery("Q(x) := R(x, x)"), Options{}); err == nil {
		t.Fatal("non-Boolean query should be rejected by Bool")
	}
}

func TestEvalUCQ(t *testing.T) {
	db := mkDB(t)
	got := answersOf(t, db, "Q(x) := S(x) | R(x, '2')")
	wantAnswers(t, got, relation.T("1"), relation.T("2"), relation.T("3"))
}

func TestEvalDisjunctionPadsFreeVars(t *testing.T) {
	// Q(x, y) := S(x) | S(y): the missing variable ranges over the
	// active domain (1, 2, 3 here).
	db := mkDB(t)
	got := answersOf(t, db, "Q(x, y) := S(x) | S(y)")
	if len(got) != 12 { // {2,3}×{1,2,3} ∪ {1,2,3}×{2,3} = 6+6-4+... compute: |A|=12? see below
		// S(x)|S(y) over adom {1,2,3}: S={2,3}.
		// disjunct1: x∈{2,3}, y∈{1,2,3} -> 6; disjunct2: x∈{1,2,3}, y∈{2,3} -> 6; union -> 6+6-4=8.
		t.Logf("answers: %v", got)
	}
	want := map[string]bool{}
	for _, x := range []relation.Value{"1", "2", "3"} {
		for _, y := range []relation.Value{"1", "2", "3"} {
			if x == "2" || x == "3" || y == "2" || y == "3" {
				want[relation.T(x, y).Key()] = true
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d answers %v, want %d", len(got), got, len(want))
	}
	for _, g := range got {
		if !want[g.Key()] {
			t.Fatalf("unexpected answer %v", g)
		}
	}
}

func TestEvalFONegation(t *testing.T) {
	db := mkDB(t)
	// x in S with no outgoing R edge to a non-S node... simpler:
	// Q(x) := S(x) & ! R(x, x)  -> S={2,3}, R(3,3) holds -> {2}
	got := answersOf(t, db, "Q(x) := S(x) & ! R(x, x)")
	wantAnswers(t, got, relation.T("2"))
}

func TestEvalFOForall(t *testing.T) {
	db := mkDB(t)
	// Q() := forall x: (S(x) | exists y: R(x, y))
	// adom = {1,2,3}; R covers 1,2,3 as first column -> true.
	yes, err := Bool(db, query.MustParseQuery("Q() := forall x: (S(x) | exists y: R(x, y))"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !yes {
		t.Fatal("should hold on active domain")
	}
	// With an extra domain value it fails.
	yes, err = Bool(db, query.MustParseQuery("Q() := forall x: (S(x) | exists y: R(x, y))"),
		Options{ExtraDomain: relation.NewValueSet("99")})
	if err != nil {
		t.Fatal(err)
	}
	if yes {
		t.Fatal("extra domain value 99 has no R/S fact; forall must fail")
	}
}

func TestEvalExistsShadowing(t *testing.T) {
	db := mkDB(t)
	// Outer x is a head variable; inner exists re-binds x.
	got := answersOf(t, db, "Q(x) := S(x) & (exists x: R(x, '2'))")
	wantAnswers(t, got, relation.T("2"), relation.T("3"))
}

func TestEvalCompareOnlyBody(t *testing.T) {
	db := mkDB(t)
	// Unsafe body: x constrained only by =; active-domain semantics.
	got := answersOf(t, db, "Q(x) := x = '2'")
	wantAnswers(t, got, relation.T("2"))
	// x != '2' ranges over the active domain.
	got = answersOf(t, db, "Q(x) := x != '2'")
	wantAnswers(t, got, relation.T("1"), relation.T("3"))
}

func TestEvalUnknownRelation(t *testing.T) {
	db := mkDB(t)
	if _, err := Answers(db, query.MustParseQuery("Q(x) := Nope(x)"), Options{}); err == nil {
		t.Fatal("unknown relation should error")
	}
}

func TestSameAndSubsetAnswers(t *testing.T) {
	db := mkDB(t)
	bigger := db.WithTuple("S", relation.T("1"))
	q := query.MustParseQuery("Q(x) := S(x)")
	same, err := SameAnswers(db, db.Clone(), q, Options{})
	if err != nil || !same {
		t.Fatal("identical databases must have same answers")
	}
	same, _ = SameAnswers(db, bigger, q, Options{})
	if same {
		t.Fatal("answers must differ")
	}
	sub, _ := SubsetAnswers(db, bigger, q, Options{})
	if !sub {
		t.Fatal("monotone query: smaller instance has subset answers")
	}
	sub, _ = SubsetAnswers(bigger, db, q, Options{})
	if sub {
		t.Fatal("superset answers reported as subset")
	}
}

func TestAnswerInstance(t *testing.T) {
	db := mkDB(t)
	inst, err := AnswerInstance(db, query.MustParseQuery("Q(x) := S(x)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Len() != 2 || !inst.Contains(relation.T("2")) {
		t.Fatalf("AnswerInstance = %v", inst)
	}
}

// Cross-validation: on random small instances, the positive evaluator
// and the FO model checker agree on positive queries.
func TestPositiveEvalMatchesFOChecker(t *testing.T) {
	queries := []string{
		"Q(x) := R(x, y) & S(y)",
		"Q(x) := exists y: R(x, y) & y != x",
		"Q(x, y) := R(x, y) | (S(x) & S(y))",
		"Q(x) := S(x) & (R(x, '1') | R('1', x))",
		"Q() := exists x, y: R(x, y) & x != y",
	}
	sch := relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", nil)),
		relation.MustSchema("S", relation.Attr("C", nil)),
	)
	r := rand.New(rand.NewSource(3))
	vals := []relation.Value{"1", "2", "3"}
	for trial := 0; trial < 60; trial++ {
		db := relation.NewDatabase(sch)
		for i := 0; i < r.Intn(6); i++ {
			db.MustInsert("R", relation.T(vals[r.Intn(3)], vals[r.Intn(3)]))
		}
		for i := 0; i < r.Intn(4); i++ {
			db.MustInsert("S", relation.T(vals[r.Intn(3)]))
		}
		for _, src := range queries {
			q := query.MustParseQuery(src)
			e := &env{src: dbSource{db}, opts: Options{}}
			e.adom = evalDomain(db, q, Options{})
			pos, err := e.sat(q.Body)
			if err != nil {
				t.Fatal(err)
			}
			fo, err := e.satFO(q.Body, sortedVars(query.FreeVars(q.Body)))
			if err != nil {
				t.Fatal(err)
			}
			free := sortedVars(query.FreeVars(q.Body))
			a := map[string]bool{}
			for _, b := range pos {
				a[b.keyOver(free)] = true
			}
			bkeys := map[string]bool{}
			for _, b := range fo {
				bkeys[b.keyOver(free)] = true
			}
			if len(a) != len(bkeys) {
				t.Fatalf("trial %d query %s: positive %d vs FO %d bindings\n%v", trial, src, len(a), len(bkeys), db)
			}
			for k := range a {
				if !bkeys[k] {
					t.Fatalf("trial %d query %s: binding mismatch", trial, src)
				}
			}
		}
	}
}

// Monotonicity property: answers of positive queries only grow under
// extension (the property the paper's weak model relies on).
func TestPositiveMonotonicity(t *testing.T) {
	sch := relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", nil)),
		relation.MustSchema("S", relation.Attr("C", nil)),
	)
	q := query.MustParseQuery("Q(x) := (exists y: R(x, y) & S(y)) | S(x)")
	r := rand.New(rand.NewSource(11))
	vals := []relation.Value{"1", "2", "3", "4"}
	for trial := 0; trial < 50; trial++ {
		db := relation.NewDatabase(sch)
		for i := 0; i < r.Intn(5); i++ {
			db.MustInsert("R", relation.T(vals[r.Intn(4)], vals[r.Intn(4)]))
		}
		ext := db.Clone()
		for i := 0; i < 1+r.Intn(3); i++ {
			if r.Intn(2) == 0 {
				ext.MustInsert("R", relation.T(vals[r.Intn(4)], vals[r.Intn(4)]))
			} else {
				ext.MustInsert("S", relation.T(vals[r.Intn(4)]))
			}
		}
		// Evaluate both over the same domain so the comparison is fair.
		dom := relation.NewValueSet(vals...)
		sub, err := SubsetAnswers(db, ext, q, Options{ExtraDomain: dom})
		if err != nil {
			t.Fatal(err)
		}
		if !sub {
			t.Fatalf("monotonicity violated at trial %d", trial)
		}
	}
}
