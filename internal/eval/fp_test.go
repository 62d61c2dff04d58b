package eval

import (
	"errors"
	"math/rand"
	"testing"

	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

func edgeDB(t testing.TB, edges ...[2]relation.Value) *relation.Database {
	t.Helper()
	sch := relation.MustDBSchema(relation.MustSchema("edge", relation.Attr("A", nil), relation.Attr("B", nil)))
	db := relation.NewDatabase(sch)
	for _, e := range edges {
		db.MustInsert("edge", relation.T(e[0], e[1]))
	}
	return db
}

// fpNaive is the textbook inflational iteration: every rule against the
// full store, until a round derives nothing. It is the reference the
// semi-naive evaluation is checked against.
func fpNaive(db *relation.Database, p *query.Program, opts Options) ([]relation.Tuple, error) {
	idb := newIDBStore(p.IDBArity())
	e := fpEnv(db, p, opts, fpSource{db: db, idb: idb})
	for {
		before := idb.count
		for ri := range p.Rules {
			if err := deriveRule(e, idb, nil, &p.Rules[ri], opts, p.Name); err != nil {
				return nil, err
			}
		}
		if idb.count == before {
			break
		}
	}
	return idb.tuples(p.Output), nil
}

const reachSrc = `
	reach(x, y) :- edge(x, y).
	reach(x, z) :- reach(x, y), edge(y, z).
	output reach.
`

func TestFPTransitiveClosure(t *testing.T) {
	db := edgeDB(t, [2]relation.Value{"a", "b"}, [2]relation.Value{"b", "c"}, [2]relation.Value{"c", "d"})
	p := query.MustParseProgram("reach", db.Schema(), reachSrc)
	ans, err := FPAnswers(db, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		relation.T("a", "b").Key(): true, relation.T("a", "c").Key(): true, relation.T("a", "d").Key(): true,
		relation.T("b", "c").Key(): true, relation.T("b", "d").Key(): true,
		relation.T("c", "d").Key(): true,
	}
	if len(ans) != len(want) {
		t.Fatalf("reach = %v", ans)
	}
	for _, a := range ans {
		if !want[a.Key()] {
			t.Fatalf("unexpected fact %v", a)
		}
	}
}

func TestFPCycle(t *testing.T) {
	db := edgeDB(t, [2]relation.Value{"a", "b"}, [2]relation.Value{"b", "a"})
	p := query.MustParseProgram("reach", db.Schema(), reachSrc)
	ans, err := FPAnswers(db, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 4 { // all pairs over {a, b}
		t.Fatalf("reach on 2-cycle = %v", ans)
	}
}

func TestFPEmptyEDB(t *testing.T) {
	db := edgeDB(t)
	p := query.MustParseProgram("reach", db.Schema(), reachSrc)
	ans, err := FPAnswers(db, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 0 {
		t.Fatalf("reach on empty EDB = %v", ans)
	}
}

func TestFPWithComparison(t *testing.T) {
	db := edgeDB(t, [2]relation.Value{"a", "a"}, [2]relation.Value{"a", "b"})
	p := query.MustParseProgram("p", db.Schema(), `
		strict(x, y) :- edge(x, y), x != y.
		output strict.
	`)
	ans, err := FPAnswers(db, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || !ans[0].Equal(relation.T("a", "b")) {
		t.Fatalf("strict = %v", ans)
	}
}

func TestFPIDBChaining(t *testing.T) {
	// Two IDB layers: pair of reachable endpoints both reachable from a.
	db := edgeDB(t, [2]relation.Value{"a", "b"}, [2]relation.Value{"a", "c"})
	p := query.MustParseProgram("p", db.Schema(), `
		reach(x, y) :- edge(x, y).
		reach(x, z) :- reach(x, y), edge(y, z).
		sib(y, z) :- reach(x, y), reach(x, z), y != z.
		output sib.
	`)
	ans, err := FPAnswers(db, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 { // (b,c) and (c,b)
		t.Fatalf("sib = %v", ans)
	}
}

func TestFPBool(t *testing.T) {
	db := edgeDB(t, [2]relation.Value{"a", "b"})
	p := query.MustParseProgram("p", db.Schema(), `
		hit(x) :- edge(x, y).
		output hit.
	`)
	yes, err := FPBool(db, p, Options{})
	if err != nil || !yes {
		t.Fatal("non-empty output should be true")
	}
	empty := edgeDB(t)
	no, err := FPBool(empty, p, Options{})
	if err != nil || no {
		t.Fatal("empty output should be false")
	}
}

func TestFPBudget(t *testing.T) {
	// Complete graph on 6 nodes: reach derives 36 facts; cap at 10.
	var edges [][2]relation.Value
	names := []relation.Value{"1", "2", "3", "4", "5", "6"}
	for _, a := range names {
		for _, b := range names {
			edges = append(edges, [2]relation.Value{a, b})
		}
	}
	db := edgeDB(t, edges...)
	p := query.MustParseProgram("reach", db.Schema(), reachSrc)
	_, err := FPAnswers(db, p, Options{MaxDerived: 10})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestFPMonotone(t *testing.T) {
	p := query.MustParseProgram("reach", nil, reachSrc)
	small := edgeDB(t, [2]relation.Value{"a", "b"})
	big := small.WithTuple("edge", relation.T("b", "c"))
	a1, err := FPAnswers(small, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := FPAnswers(big, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, x := range a2 {
		seen[x.Key()] = true
	}
	for _, x := range a1 {
		if !seen[x.Key()] {
			t.Fatalf("FP not monotone: %v lost", x)
		}
	}
}

func TestSameFPAnswers(t *testing.T) {
	p := query.MustParseProgram("reach", nil, reachSrc)
	a := edgeDB(t, [2]relation.Value{"a", "b"})
	same, err := SameFPAnswers(a, a.Clone(), p, Options{})
	if err != nil || !same {
		t.Fatal("identical databases must agree")
	}
	b := a.WithTuple("edge", relation.T("b", "c"))
	same, _ = SameFPAnswers(a, b, p, Options{})
	if same {
		t.Fatal("answers must differ")
	}
}

// Differential test: semi-naive (default) and naive fixpoint
// evaluation agree on random graphs, including multi-IDB programs.
func TestSemiNaiveMatchesNaive(t *testing.T) {
	progs := []string{
		reachSrc,
		`
		reach(x, y) :- edge(x, y).
		reach(x, z) :- reach(x, y), reach(y, z).
		output reach.
		`,
		`
		reach(x, y) :- edge(x, y).
		reach(x, z) :- reach(x, y), edge(y, z).
		sib(y, z) :- reach(x, y), reach(x, z), y != z.
		output sib.
		`,
	}
	names := []relation.Value{"a", "b", "c", "d", "e"}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var edges [][2]relation.Value
		for i := 0; i < 2+r.Intn(10); i++ {
			edges = append(edges, [2]relation.Value{names[r.Intn(5)], names[r.Intn(5)]})
		}
		db := edgeDB(t, edges...)
		for pi, src := range progs {
			p := query.MustParseProgram("p", db.Schema(), src)
			semi, err := FPAnswers(db, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			naive, err := fpNaive(db, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameTupleSets(semi, naive) {
				t.Fatalf("seed %d prog %d: semi-naive %v vs naive %v", seed, pi, semi, naive)
			}
		}
	}
}

func TestNaiveFPBudget(t *testing.T) {
	var edges [][2]relation.Value
	names := []relation.Value{"1", "2", "3", "4", "5", "6"}
	for _, a := range names {
		for _, b := range names {
			edges = append(edges, [2]relation.Value{a, b})
		}
	}
	db := edgeDB(t, edges...)
	p := query.MustParseProgram("reach", db.Schema(), reachSrc)
	if _, err := fpNaive(db, p, Options{MaxDerived: 10}); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}
