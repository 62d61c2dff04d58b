package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"relcomplete/internal/cc"
	"relcomplete/internal/ctable"
	"relcomplete/internal/obs"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
	"relcomplete/internal/search"
)

// modelCandidates is the ModAdom candidate enumeration with every
// candidate built, for the reference deciders, which check whole
// databases.
func (p *Problem) modelCandidates(ctx context.Context, ci *ctable.CInstance, d *domains) search.Generator[*relation.Database] {
	gen := p.candidates(ctx, ci, d)
	return func(yield func(*relation.Database) bool) error {
		return gen(func(c ctable.Candidate) bool { return yield(c.Build()) })
	}
}

// forEachSingleTupleExtension is forEachExtension over a base not known
// to be partially closed: every extension is built and checked whole.
func (p *Problem) forEachSingleTupleExtension(ctx context.Context, db *relation.Database, d *domains,
	fn func(ext *relation.Database, rel string, t relation.Tuple) (bool, error)) error {
	return p.forEachExtension(ctx, db, d, false, fn)
}

// deltaSchemas are the parity suite's data schema R(a, b), S(c) and its
// master schema M(x), N(x, y), Empty(w).
func deltaSchemas() (*relation.DBSchema, *relation.DBSchema) {
	data := relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("a", nil), relation.Attr("b", nil)),
		relation.MustSchema("S", relation.Attr("c", nil)))
	master := relation.MustDBSchema(
		relation.MustSchema("M", relation.Attr("x", nil)),
		relation.MustSchema("N", relation.Attr("x", nil), relation.Attr("y", nil)),
		relation.MustSchema("Empty", relation.Attr("w", nil)))
	return data, master
}

// deltaValues are the values the parity suite's tuples are drawn from;
// "d" is in no master relation.
var deltaValues = []relation.Value{"a", "b", "c", "d"}

// deltaCC is one CC of the parity suite's pool and whether it is
// tuple-local.
type deltaCC struct {
	ccs   []*cc.Constraint
	local bool
}

func deltaCCPool(t *testing.T, data, master *relation.DBSchema) []deltaCC {
	fd, err := cc.FD{Rel: "R", LHS: []string{"a"}, RHS: []string{"b"}}.AsCCs(data, master.Relation("Empty"))
	if err != nil {
		t.Fatal(err)
	}
	one := func(name, left, right string, local bool) deltaCC {
		return deltaCC{ccs: []*cc.Constraint{cc.MustParse(name, left, right)}, local: local}
	}
	return []deltaCC{
		one("r_in_m", "q(x) := R(x, y)", "p(x) := M(x)", true),
		one("r_const", "q(y) := R('a', y)", "p(y) := M(y)", true),
		one("r_neq", "q(x, y) := R(x, y) & x != y", "p(x, y) := N(x, y)", true),
		one("r_eq", "q(y) := exists x: R(x, y) & x = 'b'", "p(y) := M(y)", true),
		one("s_in_m", "q(x) := S(x)", "p(x) := M(x)", true),
		{ccs: fd, local: false}, // two atoms over R
		one("outside", "q(x) := R(x, y) & z != x", "p(x) := M(x)", false),
		one("join", "q(x) := R(x, y) & S(y)", "p(x) := M(x)", false),
	}
}

// deltaQueries is the parity suite's query pool and whether each query
// is tuple-local.
func deltaQueries(data *relation.DBSchema) []struct {
	q     Qry
	local bool
} {
	calc := func(src string) Qry { return CalcQuery(query.MustParseQuery(src)) }
	return []struct {
		q     Qry
		local bool
	}{
		{calc("Q(x) := R(x, y)"), true},
		{calc("Q(y) := R('a', y)"), true},
		{calc("Q(x) := R(x, y) | S(x)"), true},
		{calc("Q(x, z) := R(x, y) & z = 'b'"), true},
		{calc("Q(x, y) := R(x, y) & x != y"), true},
		{calc("Q() := exists y: R('a', y)"), true},
		{calc("Q(x) := R(x, 'b')"), true},
		{calc("Q(x) := R(x, y) & S(y)"), false},
		{calc("Q(x) := exists y: R(x, y) & R(y, x)"), false},
		{calc("Q(x) := R(x, y) & z != x"), false},
		{calc("Q(x) := R(x, y) & exists y: S(y)"), false},
		{calc("Q(x) := S(x) & !R(x, x)"), false},
		{FPQuery(query.MustParseProgram("reach", data,
			"reach(x, y) :- R(x, y). reach(x, z) :- reach(x, y), R(y, z). output reach.")), false},
	}
}

// deltaCase is one generated parity case: a problem, a partially
// closed I and a c-instance whose ground prefix is I and whose variable
// rows add Δ under mu.
type deltaCase struct {
	p      *Problem
	ccs    []int
	query  int
	i      *relation.Database
	delta  []relation.Located
	ci     *ctable.CInstance
	mu     ctable.Valuation
	ccsOK  bool // the expected CC classification
	queryO bool // the expected query classification
}

// deltaMaster is the parity suite's master data.
func deltaMaster(master *relation.DBSchema) *relation.Database {
	dm := relation.NewDatabase(master)
	for _, v := range []relation.Value{"a", "b", "c"} {
		dm.MustInsert("M", relation.T(v))
	}
	for _, r := range [][2]relation.Value{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"a", "d"}} {
		dm.MustInsert("N", relation.T(r[0], r[1]))
	}
	return dm
}

func genDeltaCase(t *testing.T, rng *rand.Rand) deltaCase {
	data, master := deltaSchemas()
	dm := deltaMaster(master)
	pool, queries := deltaCCPool(t, data, master), deltaQueries(data)
	c := deltaCase{ccsOK: true}
	v := cc.NewSet()
	for k := 1 + rng.Intn(3); k > 0; k-- {
		i := rng.Intn(len(pool))
		c.ccs = append(c.ccs, i)
		v.Add(pool[i].ccs...)
		c.ccsOK = c.ccsOK && pool[i].local
	}
	c.query = rng.Intn(len(queries))
	c.queryO = queries[c.query].local
	c.p = MustProblem(data, queries[c.query].q, dm, v, Options{Parallelism: 1})

	pick := func() relation.Value { return deltaValues[rng.Intn(len(deltaValues))] }
	random := func() relation.Located {
		if rng.Intn(3) == 0 {
			return relation.Located{Rel: "S", Tuple: relation.T(pick())}
		}
		return relation.Located{Rel: "R", Tuple: relation.T(pick(), pick())}
	}
	// I: random tuples kept while I stays partially closed.
	c.i = relation.NewDatabase(data)
	for k := rng.Intn(6); k > 0; k-- {
		l := random()
		ext := c.i.WithTuple(l.Rel, l.Tuple)
		if ok, err := c.p.satisfiesCCs(context.Background(), ext); err != nil {
			t.Fatal(err)
		} else if ok {
			c.i = ext
		}
	}
	// Δ: one to three tuples, some of them rows of I.
	rows := c.i.AllTuples()
	for k := 1 + rng.Intn(3); k > 0; k-- {
		if len(rows) > 0 && rng.Intn(3) == 0 {
			c.delta = append(c.delta, rows[rng.Intn(len(rows))])
		} else {
			c.delta = append(c.delta, random())
		}
	}
	c.ci = ctable.FromDatabase(c.i)
	c.mu = ctable.Valuation{}
	for k, l := range c.delta {
		terms := make([]query.Term, len(l.Tuple))
		for j, val := range l.Tuple {
			name := fmt.Sprintf("d%d_%d", k, j)
			terms[j], c.mu[name] = query.V(name), val
		}
		c.ci.MustAddRow(l.Rel, ctable.Row{Terms: terms})
	}
	return c
}

// TestDeltaParity: on generated partially closed I and sets Δ of one to
// three tuples (rows of I among them), with CC sets mixing tuple-local
// CCs with an FD, a comparison over a variable no atom binds and a
// join, and with tuple-local and other queries:
//   - the CCs and the query are classified as expected;
//   - checkModel admits the candidate I ∪ Δ exactly when V holds on the
//     whole of it, and builds it as the row-by-row build does;
//   - with tuple-local CCs it evaluates V on I once and on each new
//     tuple of Δ alone, and otherwise once on I ∪ Δ;
//   - Q(I) ∪ Q(Δ) = Q(I ∪ Δ) wherever the query is tuple-local, and the
//     suite meets queries that are not for which the union falls short;
//   - the single-tuple extensions of I found by their tuples alone are
//     the ones found by checking each extension whole.
func TestDeltaParity(t *testing.T) {
	ctx := context.Background()
	unionFails := 0
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := genDeltaCase(t, rng)
		p := c.p
		label := fmt.Sprintf("seed %d: V %v, Q %s, I %v, Δ %v", seed, p.CCs, p.Query, c.i, c.delta)
		if got := p.locality(); got != (locality{ccs: c.ccsOK, query: c.queryO}) {
			t.Fatalf("%s: locality %+v, want ccs %v query %v", label, got, c.ccsOK, c.queryO)
		}

		cand, err := c.ci.Candidate(c.mu)
		if err != nil {
			t.Fatal(err)
		}
		whole := cand.Build()
		want, err := p.satisfiesCCs(ctx, whole)
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.domainsFor(c.ci, false, false)
		if err != nil {
			t.Fatal(err)
		}
		m := obs.NewMetrics()
		p.Options.Obs = m
		mod, err := p.checkModel(ctx, d, cand)
		p.Options.Obs = nil
		if err != nil {
			t.Fatal(err)
		}
		if ok := mod != nil; ok != want {
			t.Fatalf("%s: checkModel admits %v, V on I ∪ Δ holds %v", label, ok, want)
		}
		if mod != nil && mod.db().String() != whole.String() {
			t.Fatalf("%s: checkModel built %v, want %v", label, mod.db(), whole)
		}
		checks := int64(1) // the full check of I ∪ Δ, or the check of I
		if c.ccsOK {
			checked := map[string]bool{} // a repeated tuple is a memo hit
			for _, l := range cand.Added {
				if checked[fmt.Sprint(l)] {
					continue
				}
				checked[fmt.Sprint(l)] = true
				checks++
				if closed, err := p.satisfiesCCs(ctx, p.deltaDatabase(l)); err != nil {
					t.Fatal(err)
				} else if !closed {
					break
				}
			}
		}
		if got := m.Get(obs.CCChecks); got != checks {
			t.Fatalf("%s: checkModel ran %d CC checks, want %d", label, got, checks)
		}

		qi, err := p.answers(ctx, c.i)
		if err != nil {
			t.Fatal(err)
		}
		qd, err := p.answers(ctx, p.deltaDatabase(c.delta...))
		if err != nil {
			t.Fatal(err)
		}
		qall, err := p.answers(ctx, whole)
		if err != nil {
			t.Fatal(err)
		}
		same := fmt.Sprint(unionTuples(qi, qd)) == fmt.Sprint(qall)
		if c.queryO && !same {
			t.Fatalf("%s: Q(I) ∪ Q(Δ) = %v, Q(I ∪ Δ) = %v", label, unionTuples(qi, qd), qall)
		}
		if !same {
			unionFails++
		}

		dI, err := p.buildDomains(ctable.FromDatabase(c.i), false, true)
		if err != nil {
			t.Fatal(err)
		}
		exts := func(closed bool) string {
			var out []string
			err := p.forEachExtension(ctx, c.i, dI, closed, func(_ *relation.Database, rel string, tup relation.Tuple) (bool, error) {
				out = append(out, rel+tup.String())
				return true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return strings.Join(out, " ")
		}
		if byTuple, whole := exts(true), exts(false); byTuple != whole {
			t.Fatalf("%s: extensions by their tuples %s, checked whole %s", label, byTuple, whole)
		}
	}
	if unionFails == 0 {
		t.Error("no query that is not tuple-local lost answers in Q(I) ∪ Q(Δ): the suite does not exercise the classification")
	}
}

// TestDeltaDecidersMatchFullPath decides generated problems at
// Parallelism 1 as they are, and on a twin problem whose CCs and query
// are classified as not tuple-local, so that every candidate takes the
// full check and every removal of strong MINP, viable MINP and
// GroundMinimal its bounded check. Each twin decides twice, cold and
// then warm. Verdicts, counterexamples, certain answers, the weakly
// complete witness and errors must be identical in all four runs. The
// suite must meet admitted models that add tuples to T's ground prefix,
// whose answers are Q(prefix) ∪ Q(Added), and complete models that
// hasCompleteRemoval settles without a bounded check.
func TestDeltaDecidersMatchFullPath(t *testing.T) {
	ctx := context.Background()
	addedModels, settled := 0, 0
	var cases []deltaDecideCase
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := genDeltaCase(t, rng)
		if c.p.Query.Calc == nil || c.p.Query.Lang() == FO {
			continue
		}
		ci := ctable.FromDatabase(c.i)
		x, y := query.V("x"), query.V("y")
		val := query.C(deltaValues[rng.Intn(len(deltaValues))])
		rows := []ctable.Row{{Terms: []query.Term{x, val}}, {Terms: []query.Term{val, x}},
			{Terms: []query.Term{x, y}}, {Terms: []query.Term{y}}}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			r := rows[rng.Intn(len(rows))]
			rel := "R"
			if len(r.Terms) == 1 {
				rel = "S"
			}
			ci.MustAddRow(rel, r)
		}
		cases = append(cases, deltaDecideCase{fmt.Sprintf("seed %d", seed), c.p, ci})
	}
	for _, c := range append(cases, deltaRemovalCases(t)...) {
		ci := c.ci
		full := MustProblem(c.p.Schema, c.p.Query, c.p.Master, c.p.CCs, c.p.Options)
		full.memo.localOnce.Do(func() {}) // nothing is tuple-local
		decide := func(p *Problem) string {
			var out []string
			add := func(v ...any) { out = append(out, fmt.Sprint(v...)) }
			ok, cex, err := p.RCDPExplainCtx(ctx, ci, Strong)
			add("strong ", ok, " ", cex, " ", err)
			ok, cex, err = p.RCDPExplainCtx(ctx, ci, Viable)
			add("viable ", ok, " ", cex, " ", err)
			ok, err = p.RCDPCtx(ctx, ci, Weak)
			add("weak ", ok, " ", err)
			ans, err := p.CertainAnswersCtx(ctx, ci)
			add("certain ", ans, " ", err)
			ans, any, err := p.CertainAnswersOfExtensionsCtx(ctx, ci)
			add("certain_ext ", ans, " ", any, " ", err)
			ok, err = p.MINPCtx(ctx, ci, Strong)
			add("minp ", ok, " ", err)
			ok, err = p.MINPCtx(ctx, ci, Viable)
			add("minp_viable ", ok, " ", err)
			db, err := p.ConstructWeaklyCompleteCtx(ctx)
			add("witness ", db, " ", err)
			if model, err := p.AnyModelCtx(ctx, ci); err == nil && model != nil {
				ok, err = p.ExtensibleCtx(ctx, model)
				add("extensible ", ok, " ", err)
				ok, cex, err = p.GroundCompleteCtx(ctx, model)
				add("ground ", ok, " ", cex, " ", err)
				ok, err = p.GroundMinimalCtx(ctx, model)
				add("ground_minimal ", ok, " ", err)
			}
			return strings.Join(out, "\n")
		}
		want := decide(full)
		for _, run := range []struct {
			name string
			p    *Problem
		}{{"full path, warm", full}, {"delta path, cold", c.p}, {"delta path, warm", c.p}} {
			if got := decide(run.p); got != want {
				t.Fatalf("%s: V %v, Q %s, T %v:\n%s:\n%s\nfull path, cold:\n%s", c.label, c.p.CCs, c.p.Query, ci, run.name, got, want)
			}
		}
		a, s := countDeltaModels(t, c.p, ci)
		addedModels += a
		settled += s
	}
	if addedModels == 0 {
		t.Error("no admitted model added tuples to T's ground prefix: Q(prefix) ∪ Q(Added) is not exercised")
	}
	if settled == 0 {
		t.Error("no complete model held a tuple that Q cannot see: hasCompleteRemoval's rule is not exercised")
	}
}

// deltaDecideCase is one input of the decider parity suite.
type deltaDecideCase struct {
	label string
	p     *Problem
	ci    *ctable.CInstance
}

// deltaRemovalCases put the edges of hasCompleteRemoval's rule in play,
// beside the generated cases:
//   - under the FD R: a → b and r_neq, which are not all tuple-local, Q
//     sees neither of T's tuples R(a, d) and R(b, c), yet each blocks an
//     extension Q sees (R(a, b) and R(b, b)), so T is minimal;
//   - under r_in_m, Q sees the one tuple R(a, v) of every model of T,
//     and every model is minimal;
//   - the same with an S row that Q cannot see, whose removal the rule
//     settles, and which adds a tuple to T's ground prefix.
func deltaRemovalCases(t *testing.T) []deltaDecideCase {
	data, master := deltaSchemas()
	dm := deltaMaster(master)
	pool := map[string][]*cc.Constraint{}
	for _, c := range deltaCCPool(t, data, master) {
		pool[c.ccs[0].Name] = append(pool[c.ccs[0].Name], c.ccs...)
	}
	build := func(ccs []*cc.Constraint, q string, rows map[string][]ctable.Row) deltaDecideCase {
		p := MustProblem(data, CalcQuery(query.MustParseQuery(q)), dm, cc.NewSet(ccs...), Options{Parallelism: 1})
		ci := ctable.NewCInstance(data)
		for _, rel := range []string{"R", "S"} {
			for _, r := range rows[rel] {
				ci.MustAddRow(rel, r)
			}
		}
		return deltaDecideCase{label: "removal case " + q, p: p, ci: ci}
	}
	row := func(terms ...query.Term) ctable.Row { return ctable.Row{Terms: terms} }
	a, b, c, d, x := query.C("a"), query.C("b"), query.C("c"), query.C("d"), query.V("x")
	return []deltaDecideCase{
		build(append(slices.Clone(pool["fd_R_b"]), pool["r_neq"]...), "Q(x) := R(x, 'b')",
			map[string][]ctable.Row{"R": {row(a, d), row(b, c)}}),
		build(pool["r_in_m"], "Q() := exists y: R('a', y)",
			map[string][]ctable.Row{"R": {row(a, x)}}),
		build(append(slices.Clone(pool["r_in_m"]), pool["s_in_m"]...), "Q() := exists y: R('a', y)",
			map[string][]ctable.Row{"R": {row(a, c)}, "S": {row(x)}}),
	}
}

// countDeltaModels counts ci's admitted models that add tuples to its
// ground prefix, and, when V and Q are tuple-local, its complete models
// whose removal check hasCompleteRemoval settles without a bounded
// check: those holding a tuple that no atom of Q matches.
func countDeltaModels(t *testing.T, p *Problem, ci *ctable.CInstance) (added, settled int) {
	t.Helper()
	ctx := context.Background()
	d, err := p.domainsFor(ci, true, false)
	if err != nil {
		t.Fatal(err)
	}
	loc := p.locality()
	genErr := p.candidates(ctx, ci, d)(func(c ctable.Candidate) bool {
		var m *model
		m, err = p.checkModel(ctx, d, c)
		if err == nil && m != nil && len(c.Added) > 0 {
			added++
		}
		if err == nil && m != nil && loc.ccs && loc.query {
			var ans []relation.Tuple
			var cex *Counterexample
			var unseen bool
			if ans, err = p.modelAnswers(ctx, d, m); err == nil {
				cex, err = p.boundedCounterexample(ctx, m.db(), ans, d, false)
			}
			if err == nil && cex == nil {
				if unseen, err = p.hasUnseenTuple(m.db()); unseen {
					settled++
				}
			}
		}
		return err == nil
	})
	if err == nil {
		err = genErr
	}
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	return added, settled
}
