package adom

import (
	"reflect"
	"testing"

	"relcomplete/internal/cc"
	"relcomplete/internal/ctable"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

func testSchema() *relation.DBSchema {
	return relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", relation.Bool())),
	)
}

func testCInstance() *ctable.CInstance {
	ci := ctable.NewCInstance(testSchema())
	ci.MustAddRow("R", ctable.Row{
		Terms: []query.Term{query.V("x"), query.V("b")},
		Cond:  ctable.Cond(ctable.CNeq(query.V("x"), query.C("k"))),
	})
	ci.MustAddRow("R", ctable.Row{Terms: []query.Term{query.C("c1"), query.C("0")}})
	return ci
}

func TestBuildCollectsSNewDf(t *testing.T) {
	ci := testCInstance()
	master := relation.NewDatabase(relation.MustDBSchema(
		relation.MustSchema("M", relation.Attr("W", nil))))
	master.MustInsert("M", relation.T("m1"))
	v := cc.NewSet(cc.MustParse("c", "q(a) := R(a, b) & a != 'vc'", "p(a) := M(a)"))

	a := NewBuilder().AddCInstance(ci).AddDatabase(master).AddCCs(v).Build()

	// S: c1, 0 (data), k (condition), m1 (master), vc (CC).
	for _, want := range []relation.Value{"c1", "0", "k", "m1", "vc"} {
		if !a.Contains(want) {
			t.Fatalf("Adom missing constant %s: %v", want, a.Values())
		}
	}
	// df: Boolean domain of attribute B.
	if !a.Contains("1") {
		t.Fatal("finite domain value 1 missing (df)")
	}
	// New: fresh per variable of T and of V's left sides.
	if a.Fresh("x") == "" || a.Fresh("b") == "" {
		t.Fatal("fresh values for c-instance variables missing")
	}
	// Fresh values are pairwise distinct and outside S.
	if a.Fresh("x") == a.Fresh("b") {
		t.Fatal("fresh values must be distinct")
	}
}

func TestFreshAvoidsCollisions(t *testing.T) {
	b := NewBuilder()
	b.AddConstants(relation.NewValueSet("•x")) // adversarial constant
	b.AddVars([]string{"x"})
	a := b.Build()
	if a.Fresh("x") == "•x" {
		t.Fatal("fresh value collided with existing constant")
	}
	if !a.Contains(a.Fresh("x")) {
		t.Fatal("fresh value must be in the domain")
	}
}

// A database contributes its columns as blocks: the domain is the
// sorted union of its values and every other constant, and a fresh
// value steps past a master value that takes its name, exactly as it
// steps past any other constant.
func TestBuildMergesDatabaseColumns(t *testing.T) {
	master := relation.NewDatabase(relation.MustDBSchema(
		relation.MustSchema("M", relation.Attr("W", nil), relation.Attr("V", nil)),
		relation.MustSchema("N", relation.Attr("W", nil))))
	master.MustInsert("M", relation.T("•x", "m2"))
	master.MustInsert("M", relation.T("m1", "•x_0"))
	master.MustInsert("N", relation.T("c1"))
	a := NewBuilder().AddCInstance(testCInstance()).AddDatabase(master).Build()

	want := relation.NewValueSet()
	testCInstance().Constants(want)
	master.ActiveDomain(want)
	for _, v := range []relation.Value{"0", "1", "•x_1", "•xʹ", "•b", "•bʹ"} {
		want.Add(v)
	}
	if got := a.Values(); !reflect.DeepEqual(got, want.Values()) {
		t.Fatalf("Values = %v, want %v", got, want.Values())
	}
	if got := a.Fresh("x"); got != "•x_1" {
		t.Fatalf("Fresh(x) = %q, want •x_1 past the master's •x and •x_0", got)
	}
}

// Contains answers by binary search over the sorted values; it must
// agree with a set over them, for members and for near misses.
func TestContainsMatchesValueSet(t *testing.T) {
	a := NewBuilder().
		AddConstants(relation.NewValueSet("b", "a", "•x", "•xʹ", "", "zz", "ä")).
		AddVars([]string{"x", "y"}).
		Build()
	set := relation.NewValueSet(a.Values()...)
	if set.Len() != a.Len() {
		t.Fatalf("values not distinct: %v", a.Values())
	}
	for _, v := range append(a.Values(), "c", "•", "•x_1", "aa", "z", "zzz", "•y_0") {
		if a.Contains(v) != set.Contains(v) {
			t.Fatalf("Contains(%q) = %v, set says %v", v, a.Contains(v), set.Contains(v))
		}
	}
}
