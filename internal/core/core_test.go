package core

import (
	"errors"
	"testing"

	"relcomplete/internal/cc"
	"relcomplete/internal/ctable"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// boundedScenario: data schema R(A); master M(A) = {1, 2}; V: R ⊆ M;
// query Q(x) := R(x). Master data caps R at two possible tuples, so
// completeness is decided by which of them are present.
type boundedScenario struct {
	p      *Problem
	schema *relation.DBSchema
}

func newBoundedScenario(t testing.TB, masterVals ...relation.Value) *boundedScenario {
	t.Helper()
	schema := relation.MustDBSchema(relation.MustSchema("R", relation.Attr("A", nil)))
	masterSchema := relation.MustDBSchema(relation.MustSchema("M", relation.Attr("A", nil)))
	dm := relation.NewDatabase(masterSchema)
	for _, v := range masterVals {
		dm.MustInsert("M", relation.T(v))
	}
	v := cc.NewSet(cc.MustParse("rm", "q(x) := R(x)", "p(x) := M(x)"))
	q := CalcQuery(query.MustParseQuery("Q(x) := R(x)"))
	return &boundedScenario{
		p:      MustProblem(schema, q, dm, v, Options{}),
		schema: schema,
	}
}

func (s *boundedScenario) ground(vals ...relation.Value) *ctable.CInstance {
	ci := ctable.NewCInstance(s.schema)
	for _, v := range vals {
		ci.MustAddRow("R", ctable.Row{Terms: []query.Term{query.C(v)}})
	}
	return ci
}

func (s *boundedScenario) withVar(names ...string) *ctable.CInstance {
	ci := ctable.NewCInstance(s.schema)
	for _, n := range names {
		ci.MustAddRow("R", ctable.Row{Terms: []query.Term{query.V(n)}})
	}
	return ci
}

func mustRCDP(t *testing.T, p *Problem, ci *ctable.CInstance, m Model) bool {
	t.Helper()
	ok, err := p.RCDP(ci, m)
	if err != nil {
		t.Fatalf("RCDP(%v): %v", m, err)
	}
	return ok
}

func TestRCDPStrongBoundedScenario(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	if !mustRCDP(t, s.p, s.ground("1", "2"), Strong) {
		t.Fatal("full instance should be strongly complete")
	}
	if mustRCDP(t, s.p, s.ground("1"), Strong) {
		t.Fatal("{(1)} extendable by (2): not strongly complete")
	}
	if mustRCDP(t, s.p, s.withVar("x"), Strong) {
		t.Fatal("single-variable instance has incomplete models")
	}
	if mustRCDP(t, s.p, s.withVar("x", "y"), Strong) {
		t.Fatal("{(x),(y)} has collapsing models that are incomplete")
	}
}

func TestRCDPViableBoundedScenario(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	// (x),(y) can be valuated to {1, 2}, which is complete.
	if !mustRCDP(t, s.p, s.withVar("x", "y"), Viable) {
		t.Fatal("{(x),(y)} should be viably complete via µ = {x↦1, y↦2}")
	}
	// A single row can never cover both master tuples.
	if mustRCDP(t, s.p, s.withVar("x"), Viable) {
		t.Fatal("one row cannot be viably complete here")
	}
	if !mustRCDP(t, s.p, s.ground("1", "2"), Viable) {
		t.Fatal("ground complete instance is viably complete")
	}
}

func TestRCDPWeakBoundedScenario(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	// Full instance: unextendable, weakly complete.
	if !mustRCDP(t, s.p, s.ground("1", "2"), Weak) {
		t.Fatal("unextendable instance is weakly complete")
	}
	// Empty instance: extensions {1} and {2} disagree, certain answer
	// over extensions is empty — weakly complete (Example 2.4 pattern).
	if !mustRCDP(t, s.p, s.ground(), Weak) {
		t.Fatal("empty instance should be weakly complete (certain answers empty)")
	}
	// {(1)}: every extension contains (2) eventually? The only proper
	// extension is {1,2}, whose answer certain-includes (2) ∉ Q({(1)}).
	if mustRCDP(t, s.p, s.ground("1"), Weak) {
		t.Fatal("{(1)} should not be weakly complete")
	}
	// {(x)}: models {1}, {2}; certain answers ∅; extensions force {1,2}.
	if mustRCDP(t, s.p, s.withVar("x"), Weak) {
		t.Fatal("{(x)} should not be weakly complete")
	}
}

func TestRCDPWeakSingletonMaster(t *testing.T) {
	s := newBoundedScenario(t, "1")
	// Unique extension {1}: its answer (1) is certain but absent.
	if mustRCDP(t, s.p, s.ground(), Weak) {
		t.Fatal("empty instance with unique extension is not weakly complete")
	}
	if !mustRCDP(t, s.p, s.ground("1"), Weak) {
		t.Fatal("{(1)} is unextendable, hence weakly complete")
	}
}

func TestStrongImpliesWeakAndViable(t *testing.T) {
	// Observation in Section 2.2(a).
	s := newBoundedScenario(t, "1", "2")
	instances := []*ctable.CInstance{
		s.ground("1", "2"), s.ground("1"), s.ground(), s.withVar("x"), s.withVar("x", "y"),
	}
	for i, ci := range instances {
		strong := mustRCDP(t, s.p, ci, Strong)
		if !strong {
			continue
		}
		if !mustRCDP(t, s.p, ci, Weak) || !mustRCDP(t, s.p, ci, Viable) {
			t.Fatalf("instance %d strongly complete but not weakly/viably complete", i)
		}
	}
}

func TestRCDPExplainCounterexample(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	ok, cex, err := s.p.RCDPExplain(s.ground("1"), Strong)
	if err != nil || ok {
		t.Fatalf("expected incomplete: %v %v", ok, err)
	}
	if cex == nil {
		t.Fatal("counterexample missing")
	}
	if !cex.Model.SubsetOf(cex.Extension) || cex.Model.Size() >= cex.Extension.Size() {
		t.Fatal("counterexample extension must extend the model")
	}
	if len(cex.Gained) == 0 {
		t.Fatal("counterexample must gain answers")
	}
	if cex.String() == "" || (&Counterexample{}).String() == "" {
		t.Fatal("String should render")
	}
	var nilCex *Counterexample
	if nilCex.String() != "<complete>" {
		t.Fatal("nil counterexample String")
	}
}

func TestRCDPInconsistentInstance(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	// (3) violates R ⊆ M: no models.
	bad := s.ground("3")
	for _, m := range []Model{Strong, Weak, Viable} {
		_, err := s.p.RCDP(bad, m)
		if !errors.Is(err, ErrInconsistent) {
			t.Fatalf("model %v: want ErrInconsistent, got %v", m, err)
		}
	}
}

func TestConsistencyAndModels(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	ok, err := s.p.Consistent(s.withVar("x"))
	if err != nil || !ok {
		t.Fatalf("consistent instance flagged: %v %v", ok, err)
	}
	ok, err = s.p.Consistent(s.ground("3"))
	if err != nil || ok {
		t.Fatal("out-of-master instance should be inconsistent")
	}
	models, err := s.p.Models(s.withVar("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 { // {1} and {2}; fresh values violate V
		t.Fatalf("Models = %v", models)
	}
	one, err := s.p.AnyModel(s.withVar("x"))
	if err != nil || one == nil {
		t.Fatal("AnyModel should find a model")
	}
	none, err := s.p.AnyModel(s.ground("3"))
	if err != nil || none != nil {
		t.Fatal("AnyModel of inconsistent instance should be nil")
	}
}

func TestConsistencyWithConditions(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	ci := ctable.NewCInstance(s.schema)
	ci.MustAddRow("R", ctable.Row{
		Terms: []query.Term{query.V("x")},
		Cond:  ctable.Cond(ctable.CNeq(query.V("x"), query.C("1")), ctable.CNeq(query.V("x"), query.C("2"))),
	})
	// Any valuation either violates the condition (dropping the row,
	// leaving the empty instance — still a model) or leaves the master.
	ok, err := s.p.Consistent(ci)
	if err != nil || !ok {
		t.Fatal("empty valuation image is still a model")
	}
	models, _ := s.p.Models(ci, 0)
	for _, m := range models {
		if m.Size() != 0 {
			t.Fatalf("only the empty instance can satisfy V: %v", m)
		}
	}
}

func TestExtensibility(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	full := relation.NewDatabase(s.schema)
	full.MustInsert("R", relation.T("1"))
	full.MustInsert("R", relation.T("2"))
	ok, err := s.p.Extensible(full)
	if err != nil || ok {
		t.Fatal("saturated instance must not be extensible")
	}
	part := relation.NewDatabase(s.schema)
	part.MustInsert("R", relation.T("1"))
	ok, err = s.p.Extensible(part)
	if err != nil || !ok {
		t.Fatal("{(1)} extends by (2)")
	}
	empty := relation.NewDatabase(s.schema)
	ok, err = s.p.Extensible(empty)
	if err != nil || !ok {
		t.Fatal("empty instance is extensible")
	}
}

func TestPartiallyClosed(t *testing.T) {
	s := newBoundedScenario(t, "1")
	db := relation.NewDatabase(s.schema)
	db.MustInsert("R", relation.T("1"))
	ok, err := s.p.PartiallyClosed(db)
	if err != nil || !ok {
		t.Fatal("within master: partially closed")
	}
	db.MustInsert("R", relation.T("9"))
	ok, err = s.p.PartiallyClosed(db)
	if err != nil || ok {
		t.Fatal("outside master: not partially closed")
	}
}

func TestCertainAnswers(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	// {(x)}: models {1}, {2}: certain answers empty.
	ans, err := s.p.CertainAnswers(s.withVar("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 0 {
		t.Fatalf("certain answers = %v, want empty", ans)
	}
	// Ground {(1)}: certain answers {(1)}.
	ans, err = s.p.CertainAnswers(s.ground("1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || !ans[0].Equal(relation.T("1")) {
		t.Fatalf("certain answers = %v", ans)
	}
	// Inconsistent instance.
	if _, err := s.p.CertainAnswers(s.ground("3")); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
}

func TestCertainAnswersOfExtensions(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	// {(1)}: the only proper extension is {1,2}; certain ext answers
	// are {(1),(2)}.
	ans, anyExt, err := s.p.CertainAnswersOfExtensions(s.ground("1"))
	if err != nil {
		t.Fatal(err)
	}
	if !anyExt || len(ans) != 2 {
		t.Fatalf("ext answers = %v anyExt=%v", ans, anyExt)
	}
	// Full instance: no extensions.
	_, anyExt, err = s.p.CertainAnswersOfExtensions(s.ground("1", "2"))
	if err != nil {
		t.Fatal(err)
	}
	if anyExt {
		t.Fatal("saturated instance has no extensions")
	}
}

func TestMINPStrongBoundedScenario(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	ok, err := s.p.MINP(s.ground("1", "2"), Strong)
	if err != nil || !ok {
		t.Fatalf("full instance is minimal strongly complete: %v %v", ok, err)
	}
	// Incomplete instances are not minimal complete.
	ok, err = s.p.MINP(s.ground("1"), Strong)
	if err != nil || ok {
		t.Fatal("incomplete instance cannot be minimal")
	}
}

func TestMINPStrongDetectsExcess(t *testing.T) {
	// Master M = {1}; V: R ⊆ M; Q() := R('1') Boolean. The instance
	// {(1)} is complete and minimal... while for query Q'() := exists
	// x: M-independent true-檢... use a second scenario: Q(x) := R(x)
	// with master {1}: {(1)} complete; ∅ is NOT complete (extension
	// {1} changes answer) — so {(1)} is minimal.
	s := newBoundedScenario(t, "1")
	ok, err := s.p.MINP(s.ground("1"), Strong)
	if err != nil || !ok {
		t.Fatalf("{(1)} should be minimal: %v %v", ok, err)
	}

	// Now a query ignoring R entirely: every instance is complete, only
	// ∅ is minimal.
	schema := s.schema
	masterSchema := relation.MustDBSchema(relation.MustSchema("M", relation.Attr("A", nil)))
	dm := relation.NewDatabase(masterSchema)
	dm.MustInsert("M", relation.T("1"))
	v := cc.NewSet(cc.MustParse("rm", "q(x) := R(x)", "p(x) := M(x)"))
	q := CalcQuery(query.MustParseQuery("Q() := '1' = '1'"))
	p2 := MustProblem(schema, q, dm, v, Options{})
	ok, err = p2.MINP(s.ground("1"), Strong)
	if err != nil || ok {
		t.Fatalf("{(1)} carries excess data for a constant query: %v %v", ok, err)
	}
	ok, err = p2.MINP(s.ground(), Strong)
	if err != nil || !ok {
		t.Fatalf("∅ is the minimal complete instance: %v %v", ok, err)
	}
}

func TestMINPViable(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	// {(x),(y)} has model {1,2} which is minimal complete.
	ok, err := s.p.MINP(s.withVar("x", "y"), Viable)
	if err != nil || !ok {
		t.Fatalf("{(x),(y)} should be minimal viably complete: %v %v", ok, err)
	}
	// {(x)} has no complete model at all.
	ok, err = s.p.MINP(s.withVar("x"), Viable)
	if err != nil || ok {
		t.Fatal("{(x)} has no complete model")
	}
}

func TestMINPWeakCQLemma57(t *testing.T) {
	// Single-relation schema: the Lemma 5.7 fast path applies.
	s := newBoundedScenario(t, "1", "2")
	// ∅ is weakly complete (two disagreeing extensions) hence minimal.
	ok, err := s.p.MINP(s.ground(), Weak)
	if err != nil || !ok {
		t.Fatalf("∅ should be minimal weakly complete: %v %v", ok, err)
	}
	// Any non-empty instance is then non-minimal.
	ok, err = s.p.MINP(s.ground("1"), Weak)
	if err != nil || ok {
		t.Fatal("{(1)} is not minimal when ∅ is weakly complete")
	}

	// Singleton master: ∅ is not weakly complete; singletons with
	// models are minimal.
	s1 := newBoundedScenario(t, "1")
	ok, err = s1.p.MINP(s1.ground(), Weak)
	if err != nil || ok {
		t.Fatal("∅ not weakly complete with unique extension")
	}
	ok, err = s1.p.MINP(s1.ground("1"), Weak)
	if err != nil || !ok {
		t.Fatalf("singleton should be minimal: %v %v", ok, err)
	}
	ok, err = s1.p.MINP(s1.withVar("x"), Weak)
	if err != nil || !ok {
		t.Fatalf("consistent singleton c-table should be minimal: %v %v", ok, err)
	}
}

func TestUndecidableDispatch(t *testing.T) {
	schema := relation.MustDBSchema(relation.MustSchema("R", relation.Attr("A", nil)))
	foq := CalcQuery(query.MustParseQuery("Q(x) := R(x) & ! R(x)"))
	fpq := FPQuery(query.MustParseProgram("p", schema, "r(x) :- R(x). output r."))
	ci := ctable.NewCInstance(schema)

	mk := func(q Qry) *Problem { return MustProblem(schema, q, nil, nil, Options{}) }

	type combo struct {
		q      Qry
		m      Model
		rcdp   error // expected sentinel (nil = decidable)
		rcqp   error
		minp   error
		ground error // RCQPGround expectation
	}
	combos := []combo{
		{foq, Strong, ErrUndecidable, ErrUndecidable, ErrUndecidable, ErrUndecidable},
		{foq, Weak, ErrUndecidable, ErrOpen, ErrUndecidable, ErrUndecidable},
		{foq, Viable, ErrUndecidable, ErrUndecidable, ErrUndecidable, ErrUndecidable},
		{fpq, Strong, ErrUndecidable, ErrUndecidable, ErrUndecidable, ErrUndecidable},
		{fpq, Weak, nil, nil, nil, nil},
		{fpq, Viable, ErrUndecidable, ErrUndecidable, ErrUndecidable, ErrUndecidable},
	}
	for _, c := range combos {
		p := mk(c.q)
		if _, err := p.RCDP(ci, c.m); !errors.Is(err, c.rcdp) {
			t.Errorf("RCDP(%v, %v): err = %v, want %v", c.q.Lang(), c.m, err, c.rcdp)
		}
		if _, err := p.RCQP(c.m); !errors.Is(err, c.rcqp) {
			t.Errorf("RCQP(%v, %v): err = %v, want %v", c.q.Lang(), c.m, err, c.rcqp)
		}
		if _, err := p.MINP(ci, c.m); !errors.Is(err, c.minp) {
			t.Errorf("MINP(%v, %v): err = %v, want %v", c.q.Lang(), c.m, err, c.minp)
		}
		if _, err := p.RCQPGround(c.m); !errors.Is(err, c.ground) {
			t.Errorf("RCQPGround(%v, %v): err = %v, want %v", c.q.Lang(), c.m, err, c.ground)
		}
	}
}

func TestQryBasics(t *testing.T) {
	q := CalcQuery(query.MustParseQuery("Q(x) := R(x) | S(x)"))
	if q.Lang() != UCQ || !q.Monotone() || q.Arity() != 1 || q.Name() != "Q" {
		t.Fatal("Qry metadata wrong")
	}
	fp := FPQuery(query.MustParseProgram("p", nil, "r(x) :- R(x). output r."))
	if fp.Lang() != FP || fp.Arity() != 1 {
		t.Fatal("FP metadata wrong")
	}
	if fp.String() == "" || q.String() == "" {
		t.Fatal("String empty")
	}
	if CalcQuery(query.MustParseQuery("Q(x) := not R(x)")).Lang() != FO {
		t.Fatal("FO classification wrong")
	}
	if CalcQuery(query.MustParseQuery("Q(x) := R(x)")).Lang() != CQ {
		t.Fatal("CQ classification wrong")
	}
	if CalcQuery(query.MustParseQuery("Q(x) := R(x) & (S(x) | R(x))")).Lang() != EFOPlus {
		t.Fatal("∃FO+ classification wrong")
	}
}

func TestNewProblemValidation(t *testing.T) {
	schema := relation.MustDBSchema(relation.MustSchema("R", relation.Attr("A", nil)))
	if _, err := NewProblem(nil, CalcQuery(query.MustParseQuery("Q(x) := R(x)")), nil, nil, Options{}); err == nil {
		t.Fatal("nil schema should fail")
	}
	if _, err := NewProblem(schema, Qry{}, nil, nil, Options{}); err == nil {
		t.Fatal("empty query should fail")
	}
	if _, err := NewProblem(schema, CalcQuery(query.MustParseQuery("Q(x) := Nope(x)")), nil, nil, Options{}); err == nil {
		t.Fatal("unknown relation should fail")
	}
	bad := Qry{Calc: query.MustParseQuery("Q(x) := R(x)"), Prog: query.MustParseProgram("p", schema, "r(x) :- R(x). output r.")}
	if _, err := NewProblem(schema, bad, nil, nil, Options{}); err == nil {
		t.Fatal("both calc and prog should fail")
	}
	if _, err := NewProblem(schema, FPQuery(query.MustParseProgram("p", nil, "r(x) :- Gone(x). output r.")), nil, nil, Options{}); err == nil {
		t.Fatal("FP over unknown EDB should fail")
	}
}
