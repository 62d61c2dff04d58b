package ctable

import (
	"strings"
	"testing"

	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

func TestConditionEval(t *testing.T) {
	c := Cond(CEq(query.V("x"), query.C("1")), CNeq(query.V("y"), query.V("x")))
	ok, err := c.Eval(Valuation{"x": "1", "y": "2"})
	if err != nil || !ok {
		t.Fatalf("should hold: %v %v", ok, err)
	}
	ok, _ = c.Eval(Valuation{"x": "1", "y": "1"})
	if ok {
		t.Fatal("y != x violated")
	}
	ok, _ = c.Eval(Valuation{"x": "2", "y": "3"})
	if ok {
		t.Fatal("x = 1 violated")
	}
	if _, err := c.Eval(Valuation{"x": "1"}); err == nil {
		t.Fatal("unassigned variable should error")
	}
	// Empty condition is true.
	ok, err = True.Eval(Valuation{})
	if err != nil || !ok {
		t.Fatal("empty condition should be true")
	}
}

func TestConditionVarsConstantsString(t *testing.T) {
	c := Cond(CEq(query.V("b"), query.C("1")), CNeq(query.V("a"), query.C("2")))
	if got := c.Vars(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Vars = %v", got)
	}
	cs := c.Constants(nil)
	if !cs.Contains("1") || !cs.Contains("2") {
		t.Fatalf("Constants = %v", cs)
	}
	if True.String() != "true" {
		t.Fatal("empty condition should print true")
	}
	if !strings.Contains(c.String(), "∧") {
		t.Fatalf("String = %q", c.String())
	}
}

func TestConditionAnd(t *testing.T) {
	a := Cond(CEq(query.V("x"), query.C("1")))
	b := Cond(CNeq(query.V("y"), query.C("2")))
	ab := a.And(b)
	if len(ab) != 2 || len(a) != 1 || len(b) != 1 {
		t.Fatal("And wrong or mutated operands")
	}
}

func TestConditionSatisfiable(t *testing.T) {
	inf := map[string]*relation.Domain{}
	cases := []struct {
		cond Condition
		want bool
	}{
		{True, true},
		{Cond(CEq(query.V("x"), query.C("1"))), true},
		{Cond(CEq(query.V("x"), query.C("1")), CEq(query.V("x"), query.C("2"))), false},
		{Cond(CEq(query.V("x"), query.V("y")), CNeq(query.V("x"), query.V("y"))), false},
		{Cond(CNeq(query.V("x"), query.V("y"))), true},
		{Cond(CEq(query.C("1"), query.C("1"))), true},
		{Cond(CNeq(query.C("1"), query.C("1"))), false},
		{Cond(CEq(query.C("1"), query.C("2"))), false},
		{Cond(CEq(query.V("x"), query.V("y")), CEq(query.V("y"), query.C("3")), CNeq(query.V("x"), query.C("3"))), false},
	}
	for i, c := range cases {
		if got := c.cond.Satisfiable(inf); got != c.want {
			t.Errorf("case %d (%s): Satisfiable = %v, want %v", i, c.cond, got, c.want)
		}
	}
}

func TestConditionSatisfiableFiniteDomains(t *testing.T) {
	boolDom := map[string]*relation.Domain{"x": relation.Bool(), "y": relation.Bool()}
	// x != 0 and x != 1 exhausts the Boolean domain.
	c := Cond(CNeq(query.V("x"), query.C("0")), CNeq(query.V("x"), query.C("1")))
	if c.Satisfiable(boolDom) {
		t.Fatal("Boolean domain exhausted; should be unsatisfiable")
	}
	// x = 2 outside the Boolean domain.
	c = Cond(CEq(query.V("x"), query.C("2")))
	if c.Satisfiable(boolDom) {
		t.Fatal("constant outside finite domain")
	}
	// x = y with x Boolean, y over {2,3}: intersection empty.
	mixed := map[string]*relation.Domain{"x": relation.Bool(), "y": relation.Finite("d", "2", "3")}
	c = Cond(CEq(query.V("x"), query.V("y")))
	if c.Satisfiable(mixed) {
		t.Fatal("disjoint finite domains in one class")
	}
	// Still satisfiable with room left.
	c = Cond(CNeq(query.V("x"), query.C("0")))
	if !c.Satisfiable(boolDom) {
		t.Fatal("x = 1 remains")
	}
}

func patientSchema() *relation.Schema {
	return relation.MustSchema("P",
		relation.Attr("name", nil), relation.Attr("yob", nil))
}

func TestCTableAddRowValidation(t *testing.T) {
	tb := NewCTable(patientSchema())
	if err := tb.AddRow(Row{Terms: []query.Term{query.V("x")}}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	boolSchema := relation.MustSchema("B", relation.Attr("v", relation.Bool()))
	tb2 := NewCTable(boolSchema)
	if err := tb2.AddRow(Row{Terms: []query.Term{query.C("7")}}); err == nil {
		t.Fatal("out-of-domain constant should fail")
	}
}

func TestCTableVarDomainDisjointness(t *testing.T) {
	sch := relation.MustSchema("R",
		relation.Attr("A", relation.Bool()), relation.Attr("B", nil))
	tb := NewCTable(sch)
	tb.MustAddRow(Row{Terms: []query.Term{query.V("x"), query.V("y")}})
	// Re-using x in the infinite-domain column violates var(A)∩var(B)=∅.
	err := tb.AddRow(Row{Terms: []query.Term{query.V("y"), query.V("x")}})
	if err == nil {
		t.Fatal("incompatible domain reuse should fail")
	}
	// Re-using x in another Boolean column elsewhere is fine.
	sch2 := relation.MustSchema("S", relation.Attr("C", relation.Bool()))
	tb2 := NewCTable(sch2)
	if err := tb2.AddRow(Row{Terms: []query.Term{query.V("x")}}); err != nil {
		t.Fatal(err)
	}
}

func TestCTableApply(t *testing.T) {
	tb := NewCTable(patientSchema())
	tb.MustAddRow(Row{Terms: []query.Term{query.C("john"), query.C("2000")}})
	tb.MustAddRow(Row{
		Terms: []query.Term{query.V("x"), query.V("z")},
		Cond:  Cond(CNeq(query.V("z"), query.C("2001"))),
	})

	inst, err := tb.Apply(Valuation{"x": "bob", "z": "2000"})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Len() != 2 || !inst.Contains(relation.T("bob", "2000")) {
		t.Fatalf("Apply = %v", inst)
	}

	// Condition filters the row out.
	inst, err = tb.Apply(Valuation{"x": "bob", "z": "2001"})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Len() != 1 {
		t.Fatalf("conditioned row should be dropped: %v", inst)
	}

	if _, err := tb.Apply(Valuation{"x": "bob"}); err == nil {
		t.Fatal("missing assignment should error")
	}
}

func TestCTableApplyMergesDuplicates(t *testing.T) {
	tb := NewCTable(patientSchema())
	tb.MustAddRow(Row{Terms: []query.Term{query.V("x"), query.C("2000")}})
	tb.MustAddRow(Row{Terms: []query.Term{query.C("john"), query.C("2000")}})
	inst, err := tb.Apply(Valuation{"x": "john"})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Len() != 1 {
		t.Fatalf("valuation collapsing rows must merge: %v", inst)
	}
}

func TestCTableAccessors(t *testing.T) {
	tb := NewCTable(patientSchema())
	tb.MustAddRow(Row{
		Terms: []query.Term{query.V("x"), query.C("2000")},
		Cond:  Cond(CNeq(query.V("x"), query.C("eve")), CNeq(query.V("w"), query.C("0"))),
	})
	if got := tb.Vars(); len(got) != 2 || got[0] != "w" || got[1] != "x" {
		t.Fatalf("Vars = %v", got)
	}
	cs := tb.Constants(nil)
	for _, want := range []relation.Value{"2000", "eve", "0"} {
		if !cs.Contains(want) {
			t.Fatalf("Constants missing %s: %v", want, cs)
		}
	}
	if tb.IsGround() {
		t.Fatal("table with variables is not ground")
	}
	if tb.Len() != 1 {
		t.Fatal("Len wrong")
	}
	if !strings.Contains(tb.String(), "[") {
		t.Fatalf("String should show condition: %q", tb.String())
	}
}

// withoutRow returns a copy of the table with row index i removed.
func withoutRow(t *CTable, i int) *CTable {
	c := NewCTable(t.schema)
	for j, r := range t.rows {
		if j != i {
			c.MustAddRow(r)
		}
	}
	return c
}

func TestCTableWithoutRowAndClone(t *testing.T) {
	tb := NewCTable(patientSchema())
	tb.MustAddRow(Row{Terms: []query.Term{query.C("a"), query.C("1")}})
	tb.MustAddRow(Row{Terms: []query.Term{query.C("b"), query.C("2")}})
	less := withoutRow(tb, 0)
	if less.Len() != 1 || tb.Len() != 2 {
		t.Fatal("WithoutRow wrong or mutated receiver")
	}
	cl := tb.Clone()
	cl.MustAddRow(Row{Terms: []query.Term{query.C("c"), query.C("3")}})
	if tb.Len() != 2 {
		t.Fatal("Clone shares storage")
	}
}

func TestFromInstanceRoundTrip(t *testing.T) {
	in := relation.MustInstance(patientSchema(), relation.T("a", "1"), relation.T("b", "2"))
	tb := FromInstance(in)
	if !tb.IsGround() || tb.Len() != 2 {
		t.Fatal("FromInstance wrong")
	}
	back, err := tb.Apply(Valuation{})
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(in) {
		t.Fatal("round trip lost tuples")
	}
}

func TestValuationCloneAndString(t *testing.T) {
	v := Valuation{"b": "2", "a": "1"}
	c := v.Clone()
	c["a"] = "9"
	if v["a"] != "1" {
		t.Fatal("Clone shares storage")
	}
	if v.String() != "{a↦1, b↦2}" {
		t.Fatalf("String = %q", v.String())
	}
}

func TestCTableSchemaAccessor(t *testing.T) {
	sch := patientSchema()
	tb := NewCTable(sch)
	if tb.Schema() != sch {
		t.Fatal("Schema accessor wrong")
	}
	var nilT *CTable
	if nilT.Len() != 0 || nilT.Rows() != nil {
		t.Fatal("nil CTable reads should be empty")
	}
}

func TestCTableVarDomainsAccessor(t *testing.T) {
	sch := relation.MustSchema("B", relation.Attr("v", relation.Bool()))
	tb := NewCTable(sch)
	tb.MustAddRow(Row{Terms: []query.Term{query.V("x")}})
	doms := tb.VarDomains()
	if !doms["x"].IsFinite() {
		t.Fatal("VarDomains lost the Boolean binding")
	}
}
