package ctable

import (
	"testing"

	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

func twoRelSchema() *relation.DBSchema {
	return relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", nil)),
		relation.MustSchema("S", relation.Attr("C", relation.Bool())),
	)
}

func TestCInstanceBasics(t *testing.T) {
	ci := NewCInstance(twoRelSchema())
	ci.MustAddRow("R", Row{Terms: []query.Term{query.V("x"), query.C("1")}})
	ci.MustAddRow("S", Row{Terms: []query.Term{query.V("b")}})
	if ci.Size() != 2 {
		t.Fatalf("Size = %d", ci.Size())
	}
	if got := ci.Vars(); len(got) != 2 || got[0] != "b" || got[1] != "x" {
		t.Fatalf("Vars = %v", got)
	}
	if ci.IsGround() {
		t.Fatal("has variables")
	}
	if err := ci.AddRow("nope", Row{}); err == nil {
		t.Fatal("unknown relation should fail")
	}
	// A row wider than its relation fails before the cross-table domain
	// check reads a column the relation does not have.
	if err := ci.AddRow("S", Row{Terms: []query.Term{query.V("b"), query.V("z")}}); err == nil {
		t.Fatal("a row of the wrong arity should fail")
	}
}

func TestCInstanceCrossTableDomainCheck(t *testing.T) {
	ci := NewCInstance(twoRelSchema())
	// b bound to Bool in S.
	ci.MustAddRow("S", Row{Terms: []query.Term{query.V("b")}})
	// Using b in R's infinite-domain column must fail.
	if err := ci.AddRow("R", Row{Terms: []query.Term{query.V("b"), query.C("1")}}); err == nil {
		t.Fatal("cross-table incompatible domain should fail")
	}
}

func TestCInstanceApply(t *testing.T) {
	ci := NewCInstance(twoRelSchema())
	ci.MustAddRow("R", Row{Terms: []query.Term{query.V("x"), query.C("1")}})
	ci.MustAddRow("S", Row{
		Terms: []query.Term{query.V("b")},
		Cond:  Cond(CNeq(query.V("b"), query.C("0"))),
	})
	db, err := ci.Apply(Valuation{"x": "k", "b": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Relation("R").Contains(relation.T("k", "1")) || !db.Relation("S").Contains(relation.T("1")) {
		t.Fatalf("Apply = %v", db)
	}
	db, err = ci.Apply(Valuation{"x": "k", "b": "0"})
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("S").Len() != 0 {
		t.Fatal("condition should drop the S row")
	}
}

func TestCInstanceSharedVariableCorrelates(t *testing.T) {
	sch := relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil)),
		relation.MustSchema("U", relation.Attr("B", nil)),
	)
	ci := NewCInstance(sch)
	ci.MustAddRow("R", Row{Terms: []query.Term{query.V("x")}})
	ci.MustAddRow("U", Row{Terms: []query.Term{query.V("x")}})
	db, err := ci.Apply(Valuation{"x": "v"})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Relation("R").Contains(relation.T("v")) || !db.Relation("U").Contains(relation.T("v")) {
		t.Fatal("shared variable must correlate across tables")
	}
}

func TestCInstanceRowOps(t *testing.T) {
	ci := NewCInstance(twoRelSchema())
	ci.MustAddRow("R", Row{Terms: []query.Term{query.C("a"), query.C("1")}})
	ci.MustAddRow("R", Row{Terms: []query.Term{query.C("b"), query.C("2")}})
	ci.MustAddRow("S", Row{Terms: []query.Term{query.C("0")}})

	refs := ci.AllRows()
	if len(refs) != 3 {
		t.Fatalf("AllRows = %v", refs)
	}
	less := ci.WithoutRow(RowRef{Rel: "R", Index: 0})
	if less.Size() != 2 || ci.Size() != 3 {
		t.Fatal("WithoutRow wrong or mutated receiver")
	}
	if less.Table("R").Len() != 1 || less.Table("S").Len() != 1 {
		t.Fatal("wrong row removed")
	}

	none := ci.WithoutRows(map[RowRef]bool{
		{Rel: "R", Index: 0}: true,
		{Rel: "S", Index: 0}: true,
	})
	if none.Size() != 1 || none.Table("R").Len() != 1 {
		t.Fatalf("WithoutRows = %v", none)
	}

	cl := ci.Clone()
	cl.MustAddRow("S", Row{Terms: []query.Term{query.C("1")}})
	if ci.Size() != 3 {
		t.Fatal("Clone shares storage")
	}
}

func TestCInstanceFromDatabase(t *testing.T) {
	db := relation.NewDatabase(twoRelSchema())
	db.MustInsert("R", relation.T("a", "b"))
	db.MustInsert("S", relation.T("1"))
	ci := FromDatabase(db)
	if !ci.IsGround() || ci.Size() != 2 {
		t.Fatal("FromDatabase wrong")
	}
	back, err := ci.Apply(Valuation{})
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(db) {
		t.Fatal("round trip lost tuples")
	}
}

func TestCInstanceVarDomains(t *testing.T) {
	ci := NewCInstance(twoRelSchema())
	ci.MustAddRow("R", Row{Terms: []query.Term{query.V("x"), query.V("y")}})
	ci.MustAddRow("S", Row{Terms: []query.Term{query.V("b")}})
	doms := ci.VarDomains()
	if !doms["b"].IsFinite() {
		t.Fatal("b should be Boolean")
	}
	if doms["x"].IsFinite() || doms["y"].IsFinite() {
		t.Fatal("x, y should be infinite")
	}
}

func TestCInstanceConstants(t *testing.T) {
	ci := NewCInstance(twoRelSchema())
	ci.MustAddRow("R", Row{
		Terms: []query.Term{query.C("k"), query.V("y")},
		Cond:  Cond(CNeq(query.V("y"), query.C("m"))),
	})
	cs := ci.Constants(nil)
	if !cs.Contains("k") || !cs.Contains("m") {
		t.Fatalf("Constants = %v", cs)
	}
}

func TestCInstanceSchemaAndString(t *testing.T) {
	ci := NewCInstance(twoRelSchema())
	if ci.Schema() == nil {
		t.Fatal("Schema accessor wrong")
	}
	ci.MustAddRow("R", Row{Terms: []query.Term{query.V("x"), query.C("1")}})
	s := ci.String()
	if s == "" || ci.Table("nope") != nil {
		t.Fatalf("String/Table wrong: %q", s)
	}
}
