package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// ---------------------------------------------------------------------------
// Randomized differential testing: the compiled indexed engine must be
// bit-identical to the nested-loop evaluator (answersNested) on random
// databases and random CQ/UCQ/∃FO+ queries.
// ---------------------------------------------------------------------------

var genVars = []string{"x", "y", "z"}
var genConsts = []relation.Value{"1", "2", "3", "9"}

// qgen generates random positive-existential formulas over the schema
// {R/2, S/1, T/3}. Quantified variables reuse the same name pool, so
// shadowing occurs naturally.
type qgen struct{ r *rand.Rand }

func (g *qgen) term() query.Term {
	if g.r.Intn(4) == 0 {
		return query.C(genConsts[g.r.Intn(len(genConsts))])
	}
	return query.V(genVars[g.r.Intn(len(genVars))])
}

func (g *qgen) formula(depth int) query.Formula {
	roll := g.r.Intn(10)
	if depth <= 0 {
		roll = g.r.Intn(4) // leaves only
	}
	switch {
	case roll < 3: // atom
		switch g.r.Intn(3) {
		case 0:
			return query.NewAtom("R", g.term(), g.term())
		case 1:
			return query.NewAtom("S", g.term())
		default:
			return query.NewAtom("T", g.term(), g.term(), g.term())
		}
	case roll < 4: // comparison
		if g.r.Intn(2) == 0 {
			return query.EqT(g.term(), g.term())
		}
		return query.NeqT(g.term(), g.term())
	case roll < 7: // conjunction
		n := 2 + g.r.Intn(2)
		kids := make([]query.Formula, n)
		for i := range kids {
			kids[i] = g.formula(depth - 1)
		}
		return &query.And{Kids: kids}
	case roll < 9: // disjunction
		kids := []query.Formula{g.formula(depth - 1), g.formula(depth - 1)}
		return &query.Or{Kids: kids}
	default: // existential
		n := 1 + g.r.Intn(2)
		vars := make([]string, 0, n)
		for _, v := range g.r.Perm(len(genVars))[:n] {
			vars = append(vars, genVars[v])
		}
		sort.Strings(vars)
		return &query.Exists{Vars: vars, Sub: g.formula(depth - 1)}
	}
}

func (g *qgen) query(name string) *query.Query {
	body := g.formula(2)
	free := sortedVars(query.FreeVars(body))
	// Random subset of the free variables as head (possibly empty:
	// Boolean query), always in sorted order.
	head := make([]query.Term, 0, len(free))
	for _, v := range free {
		if g.r.Intn(3) > 0 {
			head = append(head, query.V(v))
		}
	}
	q, err := query.NewQuery(name, head, body)
	if err != nil {
		// Head shape rejected (e.g. free var constraints): retry as
		// Boolean, which is always admissible.
		q = query.MustQuery(name, nil, body)
	}
	return q
}

func randPlanDB(r *rand.Rand) *relation.Database {
	sch := relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", nil)),
		relation.MustSchema("S", relation.Attr("C", nil)),
		relation.MustSchema("T", relation.Attr("D", nil), relation.Attr("E", nil), relation.Attr("F", nil)),
	)
	db := relation.NewDatabase(sch)
	val := func() relation.Value {
		return relation.Value(fmt.Sprintf("%d", 1+r.Intn(5)))
	}
	for i, n := 0, r.Intn(8); i < n; i++ {
		db.MustInsert("R", relation.T(val(), val()))
	}
	for i, n := 0, r.Intn(4); i < n; i++ {
		db.MustInsert("S", relation.T(val()))
	}
	for i, n := 0, r.Intn(6); i < n; i++ {
		db.MustInsert("T", relation.T(val(), val(), val()))
	}
	return db
}

func sameTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// sameForEachRows checks that plan.ForEach over db emits exactly the
// rows of want. ForEach emits in join order, possibly with repeats; its
// row set is the answer set.
func sameForEachRows(t *testing.T, what string, plan *Plan, db *relation.Database, opts Options, want []relation.Tuple) {
	t.Helper()
	emitted := map[string]bool{}
	if err := plan.ForEach(db, opts, func(tup relation.Tuple) error {
		emitted[tup.Key()] = true
		return nil
	}); err != nil {
		t.Fatalf("%s: ForEach: %v", what, err)
	}
	if len(emitted) != len(want) {
		t.Fatalf("%s on %s: ForEach emitted %d distinct rows, want %d", what, db, len(emitted), len(want))
	}
	for _, tup := range want {
		if !emitted[tup.Key()] {
			t.Fatalf("%s on %s: ForEach never emitted %v", what, db, tup)
		}
	}
}

func TestPlanDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := &qgen{r: r}
	extra := relation.NewValueSet()
	extra.Add("7")
	extra.Add("8")
	for i := 0; i < 400; i++ {
		db := randPlanDB(r)
		q := g.query(fmt.Sprintf("Q%d", i))
		opts := Options{}
		if i%5 == 0 {
			// The quantification domain beyond the active domain must
			// flow identically through both engines.
			opts.ExtraDomain = extra
		}
		got, errC := Answers(db, q, opts)
		want, errN := answersNested(db, q, opts)
		if (errC != nil) != (errN != nil) {
			t.Fatalf("#%d %s: error divergence: compiled=%v naive=%v", i, q, errC, errN)
		}
		if errC != nil {
			continue
		}
		if !sameTuples(got, want) {
			t.Fatalf("#%d %s on %s:\ncompiled %v\nnaive    %v", i, q, db, got, want)
		}
		plan, err := Compile(q)
		if err != nil {
			t.Fatalf("#%d %s: compile: %v", i, q, err)
		}
		sameForEachRows(t, fmt.Sprintf("#%d %s", i, q), plan, db, opts, want)
		if q.IsBoolean() {
			bc, err := Bool(db, q, opts)
			if err != nil {
				t.Fatalf("#%d compiled Bool: %v", i, err)
			}
			bn, err := boolNested(db, q, opts)
			if err != nil {
				t.Fatalf("#%d naive Bool: %v", i, err)
			}
			if bc != bn || bc != (len(want) > 0) {
				t.Fatalf("#%d %s: Bool divergence: compiled=%v naive=%v answers=%d", i, q, bc, bn, len(want))
			}
		}
	}
}

// copyValues rebuilds db row by row, passing every value through val.
func copyValues(db *relation.Database, val func(relation.Value) relation.Value) *relation.Database {
	c := relation.NewDatabase(db.Schema())
	for _, lt := range db.AllTuples() {
		tup := make(relation.Tuple, len(lt.Tuple))
		for i, v := range lt.Tuple {
			tup[i] = val(v)
		}
		c.MustInsert(lt.Rel, tup)
	}
	return c
}

// Storage keys rows by their values' content alone. On random databases
// and random ∃FO+ queries, a database whose equal values share one
// string with each other and with the query's constants (interned) and
// a copy where every value has an allocation of its own (boxed) must
// give the nested-loop reference's answers and Plan.ForEach row sets.
func TestPlanDifferentialInternedBoxed(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := &qgen{r: r}
	extra := relation.NewValueSet()
	extra.Add("7")
	extra.Add("8")
	pool := map[relation.Value]relation.Value{}
	for _, c := range genConsts {
		pool[c] = c
	}
	intern := func(v relation.Value) relation.Value {
		if c, ok := pool[v]; ok {
			return c
		}
		pool[v] = v
		return v
	}
	box := func(v relation.Value) relation.Value { return relation.Value(strings.Clone(string(v))) }
	for i := 0; i < 400; i++ {
		db := randPlanDB(r)
		interned, boxed := copyValues(db, intern), copyValues(db, box)
		q := g.query(fmt.Sprintf("Q%d", i))
		opts := Options{}
		if i%5 == 0 {
			opts.ExtraDomain = extra
		}
		want, errN := answersNested(boxed, q, opts)
		gotI, errI := Answers(interned, q, opts)
		gotB, errB := Answers(boxed, q, opts)
		if (errI != nil) != (errN != nil) || (errB != nil) != (errN != nil) {
			t.Fatalf("#%d %s: error divergence: interned=%v boxed=%v naive=%v", i, q, errI, errB, errN)
		}
		if errN != nil {
			continue
		}
		// Answers are sorted, so the comparison can be positional.
		if !sameTuples(gotI, want) || !sameTuples(gotB, want) {
			t.Fatalf("#%d %s on %s:\ninterned %v\nboxed    %v\nnaive    %v", i, q, db, gotI, gotB, want)
		}
		plan, err := Compile(q)
		if err != nil {
			t.Fatalf("#%d %s: compile: %v", i, q, err)
		}
		sameForEachRows(t, fmt.Sprintf("#%d %s interned", i, q), plan, interned, opts, want)
		sameForEachRows(t, fmt.Sprintf("#%d %s boxed", i, q), plan, boxed, opts, want)
	}
}

// The corpus pins the corner cases the random generator may miss.
func TestPlanDifferentialCorpus(t *testing.T) {
	db := mkDB(t)
	for _, src := range []string{
		"Q(x, y) := R(x, y) & S(y)",
		"Q(x) := R(x, x)",
		"Q(x) := R(x, '3')",
		"Q('k', x) := R(x, '2')",
		"Q(x) := S(x) | R(x, '2')",
		"Q(x, y) := S(x) | R(x, y)", // y free in one disjunct only: padded
		"Q(x) := exists y: R(x, y) & S(y)",
		"Q(x) := S(x) & exists x: R(x, x)", // inner x shadows the head x
		"Q(x, y) := R(x, y) & x != y",
		"Q(x, y) := S(x) & x = y",
		"Q(x, y) := x != y",        // both sides range the domain
		"Q() := exists x: R(x, x)", // Boolean semi-join
		"Q() := exists x, y: R(x, y) & x != y & S(y)",
		"Q(x) := (S(x) | R(x, '2')) & exists y: R(x, y)",
		"Q(x) := R(x, y) & (S(x) | z != z)", // z ≠ z holds for no z
		"Q(x) := S(x) & (R(x, x) | z = z)",  // z = z holds for every z
	} {
		q := query.MustParseQuery(src)
		got, err := Answers(db, q, Options{})
		if err != nil {
			t.Fatalf("%s: compiled: %v", src, err)
		}
		want, err := answersNested(db, q, Options{})
		if err != nil {
			t.Fatalf("%s: naive: %v", src, err)
		}
		if !sameTuples(got, want) {
			t.Fatalf("%s:\ncompiled %v\nnaive    %v", src, got, want)
		}
	}
}

// Both engines must reject a query over a relation the database lacks.
func TestPlanUnknownRelationParity(t *testing.T) {
	db := mkDB(t)
	q := query.MustParseQuery("Q(x) := Nope(x)")
	if _, err := Answers(db, q, Options{}); err == nil {
		t.Fatal("compiled: unknown relation should error")
	}
	if _, err := answersNested(db, q, Options{}); err == nil {
		t.Fatal("naive: unknown relation should error")
	}
}

// ---------------------------------------------------------------------------
// Determinism: compiling twice yields the same plan, and running twice
// yields the same answers in the same order — including the unsorted
// first-derivation order of ForEach, which depends on the greedy
// conjunct ordering being a pure function of (plan, database).
// ---------------------------------------------------------------------------

func TestPlanDeterministic(t *testing.T) {
	src := "Q(x) := (S(x) | R(x, '2')) & (exists y: R(x, y) & S(y)) & x != '9'"
	q := query.MustParseQuery(src)
	p1 := MustCompile(q)
	p2 := MustCompile(query.MustParseQuery(src))
	if p1.Explain() != p2.Explain() {
		t.Fatalf("plan shape not deterministic:\n%s\nvs\n%s", p1.Explain(), p2.Explain())
	}
	db := mkDB(t)
	order := func(p *Plan) []string {
		var out []string
		if err := p.ForEach(db, Options{}, func(tu relation.Tuple) error {
			out = append(out, tu.String())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	o1, o2, o3 := order(p1), order(p1), order(p2)
	if fmt.Sprint(o1) != fmt.Sprint(o2) || fmt.Sprint(o1) != fmt.Sprint(o3) {
		t.Fatalf("derivation order not deterministic: %v vs %v vs %v", o1, o2, o3)
	}
}

// One compiled plan must be reusable across databases; the greedy order
// adapts per run without leaking state between runs.
func TestPlanReuseAcrossDatabases(t *testing.T) {
	q := query.MustParseQuery("Q(x, y) := R(x, y) & S(y)")
	p := MustCompile(q)
	db1 := mkDB(t)
	db2 := mkDB(t)
	db2.MustInsert("R", relation.T("7", "2"))
	a1, err := p.Answers(db1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p.Answers(db2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a2) != len(a1)+1 {
		t.Fatalf("reused plan: got %v then %v", a1, a2)
	}
	a1again, err := p.Answers(db1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(a1, a1again) {
		t.Fatalf("plan state leaked between runs: %v vs %v", a1, a1again)
	}
}

func TestPlanForEachStop(t *testing.T) {
	db := mkDB(t)
	p := MustCompile(query.MustParseQuery("Q(x, y) := R(x, y)"))
	var n int
	err := p.ForEach(db, Options{}, func(relation.Tuple) error {
		n++
		return Stop
	})
	if err != nil {
		t.Fatalf("Stop must not surface as an error: %v", err)
	}
	if n != 1 {
		t.Fatalf("Stop after first tuple: callback ran %d times", n)
	}
}

func TestCompileRejectsFullFO(t *testing.T) {
	q := query.MustParseQuery("Q(x) := S(x) & !(exists y: R(x, y))")
	if _, err := Compile(q); err == nil {
		t.Fatal("negation is outside the compiled fragment")
	}
}

// Boolean evaluation through the public entry must short-circuit: on a
// database where the first witness is immediate, Bool must not pay for
// the full answer set. This is a semantic test (the perf claim lives in
// the benchmarks): it pins that both engines agree with Answers.
func TestBoolAgreesWithAnswers(t *testing.T) {
	db := mkDB(t)
	for _, src := range []string{
		"Q() := exists x: S(x)",
		"Q() := exists x: R(x, x)",
		"Q() := exists x: R(x, '7')",
		"Q() := exists x, y: R(x, y) & x != y",
	} {
		q := query.MustParseQuery(src)
		want := len(answersOf(t, db, src)) > 0
		for name, boolFn := range map[string]func(*relation.Database, *query.Query, Options) (bool, error){
			"compiled": Bool, "nested": boolNested,
		} {
			got, err := boolFn(db, q, Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", src, name, err)
			}
			if got != want {
				t.Fatalf("%s %s: Bool=%v, answers say %v", src, name, got, want)
			}
		}
	}
}

// TestPlanOrdersComparisonsAfterLargeAtoms: a comparison that ranges
// the domain runs after the atom that binds its variables even when
// the atom's estimate exceeds the comparison's base penalty (50000 with
// one side known, 100000 with neither), and pricing it builds no
// domain. Ranging the domain first would cost about 10^5 values per
// frame for x != 'c' and 10^10 pairs for x != y, where the atom scans
// 10^5 rows.
func TestPlanOrdersComparisonsAfterLargeAtoms(t *testing.T) {
	schema := relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", nil)))
	db := relation.NewDatabase(schema)
	const rows = 100001
	for i := range rows {
		db.MustInsert("R", relation.T(relation.Value(strconv.Itoa(i)), relation.Value(strconv.Itoa(i+1))))
	}
	for _, src := range []string{
		"Q(x, y) := R(x, y) & x != y",
		"Q(x, y) := x != 'c' & R(x, y)",
	} {
		plan := MustCompile(query.MustParseQuery(src))
		and, ok := plan.root.(*andNode)
		if !ok {
			t.Fatalf("%s: root is %T, want a conjunction", src, plan.root)
		}
		rt, err := plan.newRun(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		first := and.kids[rt.orderFor(and)[0]]
		if _, ok := first.(*atomNode); !ok {
			t.Errorf("%s: %T runs first, want the atom", src, first)
		}
		if rt.adomDone {
			t.Errorf("%s: ordering the conjuncts built the domain", src)
		}
	}
}

// TestPlanExplainGolden pins the exact static rendering of a fixed
// 3-atom CQ. The slot table, head and operator tree are part of the
// observability surface (rcheck/rcbench -trace builds on them), so a
// change here is an intentional format change, not noise.
func TestPlanExplainGolden(t *testing.T) {
	q := query.MustParseQuery("Q(x, z) := R(x, y) & S(y, z) & T(z)")
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `plan Q: 3 slots [0=x 1=y 2=z] head(x#0, z#2)
  and
    atom R(x#0, y#1)
    atom S(y#1, z#2)
    atom T(z#2)
`
	if got := plan.Explain(); got != golden {
		t.Errorf("Explain drifted from golden output.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestPlanExplainRunStats checks the runtime rendering: ExplainRun must
// report the chosen conjunct order, each atom's access path, and a
// final tally line consistent with the actual answer count.
func TestPlanExplainRunStats(t *testing.T) {
	q := query.MustParseQuery("Q(x, z) := R(x, y) & S(y, z) & T(z)")
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	schema := relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", nil)),
		relation.MustSchema("S", relation.Attr("B", nil), relation.Attr("C", nil)),
		relation.MustSchema("T", relation.Attr("C", nil)),
	)
	db := relation.NewDatabase(schema)
	db.MustInsert("R", relation.T("1", "2"))
	db.MustInsert("R", relation.T("3", "2"))
	db.MustInsert("S", relation.T("2", "4"))
	db.MustInsert("T", relation.T("4"))
	out, err := plan.ExplainRun(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"and order=", "via=scan", "via=index[1]", "via=member",
		"run: answers=2", "rows_probed=", "rows_emitted=",
		// Statistics-fed estimates rendered beside the measured rows: R
		// probed on its bound position 1 (both rows carry "2" there, so
		// distinct=1 and est = 2/1), the scan and membership atoms est=1.
		"est=2", "est=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainRun missing %q:\n%s", want, out)
		}
	}
}
