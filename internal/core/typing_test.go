package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"relcomplete/internal/cc"
	"relcomplete/internal/ctable"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// Differential validation of the typed-domain pruning: on randomised
// problems over INFINITE attribute domains (where the pruning actually
// bites — Boolean-domain inputs bypass it), every decider must agree
// between the default typed path and Options.NoTypedDomains.

type typedCase struct {
	typed, untyped *Problem
	ci             *ctable.CInstance
}

func randomInfiniteDomainCases(t testing.TB, seed int64, n int) []typedCase {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	schema := relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", nil)),
	)
	masterSchema := relation.MustDBSchema(
		relation.MustSchema("M", relation.Attr("A", nil), relation.Attr("B", nil)),
	)
	queries := []string{
		"Q(x) := R(x, y)",
		"Q(x, y) := R(x, y)",
		"Q(x) := R(x, y) & y = 'k1'",
		"Q(x) := R(x, x)",
		"Q() := exists x, y: R(x, y) & x != y",
	}
	// Distinct value pools per column exercise the class separation.
	aVals := []relation.Value{"a1", "a2"}
	bVals := []relation.Value{"k1", "k2"}
	var out []typedCase
	for len(out) < n {
		dm := relation.NewDatabase(masterSchema)
		for _, a := range aVals {
			for _, b := range bVals {
				if r.Intn(2) == 0 {
					dm.MustInsert("M", relation.T(a, b))
				}
			}
		}
		v := cc.NewSet(cc.MustParse("rm", "q(x, y) := R(x, y)", "p(x, y) := M(x, y)"))
		qsrc := queries[r.Intn(len(queries))]
		mk := func(opts Options) *Problem {
			return MustProblem(schema, CalcQuery(query.MustParseQuery(qsrc)), dm, v, opts)
		}
		ci := ctable.NewCInstance(schema)
		for i := 0; i < r.Intn(3); i++ {
			terms := make([]query.Term, 2)
			if r.Intn(3) == 0 {
				terms[0] = query.V(fmt.Sprintf("u%d", r.Intn(2)))
			} else {
				terms[0] = query.C(aVals[r.Intn(2)])
			}
			if r.Intn(3) == 0 {
				terms[1] = query.V(fmt.Sprintf("w%d", r.Intn(2)))
			} else {
				terms[1] = query.C(bVals[r.Intn(2)])
			}
			ci.MustAddRow("R", ctable.Row{Terms: terms})
		}
		out = append(out, typedCase{
			typed:   mk(Options{}),
			untyped: mk(Options{NoTypedDomains: true}),
			ci:      ci,
		})
	}
	return out
}

func TestTypedDomainsAgreeWithUntyped(t *testing.T) {
	for i, c := range randomInfiniteDomainCases(t, 41, 50) {
		for _, m := range []Model{Strong, Weak, Viable} {
			got, err1 := c.typed.RCDP(c.ci, m)
			want, err2 := c.untyped.RCDP(c.ci, m)
			if errors.Is(err1, ErrInconsistent) || errors.Is(err2, ErrInconsistent) {
				if !errors.Is(err1, ErrInconsistent) || !errors.Is(err2, ErrInconsistent) {
					t.Fatalf("case %d model %v: consistency disagreement %v vs %v", i, m, err1, err2)
				}
				continue
			}
			if err1 != nil || err2 != nil {
				t.Fatalf("case %d model %v: %v / %v", i, m, err1, err2)
			}
			if got != want {
				t.Fatalf("case %d model %v: typed %v vs untyped %v\nquery: %s\nci: %v\nmaster: %v",
					i, m, got, want, c.typed.Query, c.ci, c.typed.Master)
			}
		}
	}
}

func TestTypedDomainsMINPAgree(t *testing.T) {
	for i, c := range randomInfiniteDomainCases(t, 42, 30) {
		for _, m := range []Model{Strong, Viable} {
			got, err1 := c.typed.MINP(c.ci, m)
			want, err2 := c.untyped.MINP(c.ci, m)
			if errors.Is(err1, ErrInconsistent) || errors.Is(err2, ErrInconsistent) {
				continue
			}
			if err1 != nil || err2 != nil {
				t.Fatalf("case %d model %v: %v / %v", i, m, err1, err2)
			}
			if got != want {
				t.Fatalf("case %d model %v: typed %v vs untyped %v", i, m, got, want)
			}
		}
	}
}

func TestTypedDomainsConsistencyExtensibilityAgree(t *testing.T) {
	for i, c := range randomInfiniteDomainCases(t, 43, 40) {
		g1, e1 := c.typed.Consistent(c.ci)
		g2, e2 := c.untyped.Consistent(c.ci)
		if e1 != nil || e2 != nil {
			t.Fatal(e1, e2)
		}
		if g1 != g2 {
			t.Fatalf("case %d: consistency typed %v vs untyped %v", i, g1, g2)
		}
		if !g1 {
			continue
		}
		db, err := c.typed.AnyModel(c.ci)
		if err != nil || db == nil {
			t.Fatal(db, err)
		}
		x1, e1 := c.typed.Extensible(db)
		x2, e2 := c.untyped.Extensible(db)
		if e1 != nil || e2 != nil {
			t.Fatal(e1, e2)
		}
		if x1 != x2 {
			t.Fatalf("case %d: extensibility typed %v vs untyped %v on %v", i, x1, x2, db)
		}
	}
}

func TestTypedDomainsCertainAnswersAgree(t *testing.T) {
	for i, c := range randomInfiniteDomainCases(t, 44, 40) {
		a1, e1 := c.typed.CertainAnswers(c.ci)
		a2, e2 := c.untyped.CertainAnswers(c.ci)
		if errors.Is(e1, ErrInconsistent) || errors.Is(e2, ErrInconsistent) {
			if !errors.Is(e1, ErrInconsistent) || !errors.Is(e2, ErrInconsistent) {
				t.Fatalf("case %d: inconsistency disagreement", i)
			}
			continue
		}
		if e1 != nil || e2 != nil {
			t.Fatal(e1, e2)
		}
		if !equalTupleSets(a1, a2) {
			t.Fatalf("case %d: certain answers typed %v vs untyped %v", i, a1, a2)
		}
	}
}

// The payoff: the FULL eight-attribute Figure 1 becomes decidable. The
// scenario mirrors internal/paperex.Full (not imported: paperex depends
// on core). Q4's weak-model check still tests millions of single-tuple
// extensions, so the test takes ~40 s on 2 CPUs; skipped under -short.
func TestTypedDomainsFullFigure1(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 1 takes ~40 s on 2 CPUs")
	}
	mvisit := relation.MustSchema("MVisit",
		relation.Attr("NHS", nil), relation.Attr("name", nil), relation.Attr("city", nil),
		relation.Attr("yob", nil), relation.Attr("GD", nil), relation.Attr("Date", nil),
		relation.Attr("Diag", nil), relation.Attr("DrID", nil))
	patientm := relation.MustSchema("Patientm",
		relation.Attr("NHS", nil), relation.Attr("name", nil), relation.Attr("yob", nil),
		relation.Attr("zip", nil), relation.Attr("GD", nil))
	mempty := relation.MustSchema("Mempty", relation.Attr("W", nil))
	data := relation.MustDBSchema(mvisit)
	master := relation.MustDBSchema(patientm, mempty)
	dm := relation.NewDatabase(master)
	dm.MustInsert("Patientm", relation.T("915-15-335", "John", "2000", "EH8 9AB", "M"))
	dm.MustInsert("Patientm", relation.T("915-15-336", "Bob", "2000", "EH8 9AB", "M"))

	v := cc.NewSet()
	v.Add(cc.Must("edi_2000",
		query.MustQuery("q", []query.Term{query.V("n"), query.V("na"), query.V("g")},
			query.Ex([]string{"c", "d", "di", "i"}, query.Conj(
				query.NewAtom("MVisit", query.V("n"), query.V("na"), query.V("c"), query.C("2000"),
					query.V("g"), query.V("d"), query.V("di"), query.V("i")),
				query.EqT(query.V("c"), query.C("EDI"))))),
		query.MustQuery("p", []query.Term{query.V("n"), query.V("na"), query.V("g")},
			query.Ex([]string{"z"}, query.NewAtom("Patientm",
				query.V("n"), query.V("na"), query.C("2000"), query.V("z"), query.V("g"))))))
	fdCCs, err := cc.FD{Rel: "MVisit", LHS: []string{"NHS"}, RHS: []string{"name", "GD"}}.AsCCs(data, mempty)
	if err != nil {
		t.Fatal(err)
	}
	v.Add(fdCCs...)

	ci := ctable.NewCInstance(data)
	c := func(s relation.Value) query.Term { return query.C(s) }
	ci.MustAddRow("MVisit", ctable.Row{Terms: []query.Term{
		c("915-15-335"), c("John"), c("EDI"), c("2000"), c("M"), c("15/03/2015"), c("Flu"), c("01")}})
	ci.MustAddRow("MVisit", ctable.Row{
		Terms: []query.Term{c("915-15-356"), query.V("x"), c("EDI"), query.V("z"), c("F"), c("15/03/2015"), c("Diabetes"), c("01")},
		Cond:  ctable.Cond(ctable.CNeq(query.V("z"), query.C("2001"))),
	})
	ci.MustAddRow("MVisit", ctable.Row{
		Terms: []query.Term{c("915-15-357"), c("Mary"), query.V("w"), c("2000"), c("F"), c("15/03/2015"), c("Influenza"), query.V("u")},
		Cond:  ctable.Cond(ctable.CNeq(query.V("w"), query.C("EDI"))),
	})

	q1 := query.MustParseQuery(
		"Q1(na) := exists c, g, d, di, i: MVisit('915-15-335', na, c, '2000', g, d, di, i) & c = 'EDI'")
	p := MustProblem(data, CalcQuery(q1), dm, v, Options{})

	// Example 2.3: strongly complete for Q1 — on the FULL schema.
	ok, err := p.RCDP(ci, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("full Figure 1 should be strongly complete for Q1")
	}

	// Q4 on the full schema: weakly but not strongly complete.
	q4 := query.MustParseQuery(
		"Q4(na) := exists n, g, di, i: MVisit(n, na, 'EDI', '2000', g, '15/03/2015', di, i)")
	p4 := MustProblem(data, CalcQuery(q4), dm, v, Options{})
	weak, err := p4.RCDP(ci, Weak)
	if err != nil {
		t.Fatal(err)
	}
	if !weak {
		t.Fatal("full Figure 1 should be weakly complete for Q4")
	}
	strong, err := p4.RCDP(ci, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if strong {
		t.Fatal("full Figure 1 should NOT be strongly complete for Q4")
	}
}
