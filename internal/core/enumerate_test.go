package core

import (
	"context"
	"errors"
	"testing"

	"relcomplete/internal/ctable"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// TestValuationsRespectFiniteDomains: the candidates buildDomains lists
// for a Boolean variable are its domain, typed or not, so the valuation
// enumerator assigns it only 0 and 1; without typing the other variable
// ranges over the whole Adom.
func TestValuationsRespectFiniteDomains(t *testing.T) {
	schema := relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", relation.Bool())))
	ci := ctable.NewCInstance(schema)
	ci.MustAddRow("R", ctable.Row{
		Terms: []query.Term{query.V("x"), query.V("b")},
		Cond:  ctable.Cond(ctable.CNeq(query.V("x"), query.C("k"))),
	})
	ci.MustAddRow("R", ctable.Row{Terms: []query.Term{query.C("c1"), query.C("0")}})
	for _, untyped := range []bool{false, true} {
		p := MustProblem(schema, CalcQuery(query.MustParseQuery("Q(a) := R(a, b)")), nil, nil,
			Options{NoTypedDomains: untyped})
		d, err := p.buildDomains(ci, false, false)
		if err != nil {
			t.Fatal(err)
		}
		countB := map[relation.Value]int{}
		total := 0
		err = p.forEachValuation(context.Background(), d.vars, d.cands, func(mu ctable.Valuation) (bool, error) {
			total++
			countB[mu["b"]]++
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(countB) != 2 || countB["0"] == 0 || countB["1"] == 0 {
			t.Fatalf("untyped=%v: b assignments = %v", untyped, countB)
		}
		xs := len(d.cands[1]) // vars are sorted: b, x
		if untyped && xs != d.a.Len() {
			t.Fatalf("untyped: x has %d candidates, want the Adom's %d", xs, d.a.Len())
		}
		if total != xs*2 {
			t.Fatalf("untyped=%v: total = %d, want %d", untyped, total, xs*2)
		}
	}
}

func TestValuationsEarlyStop(t *testing.T) {
	calls := 0
	err := (&Problem{}).forEachValuation(context.Background(), []string{"x"}, [][]relation.Value{{"1", "2", "3"}},
		func(mu ctable.Valuation) (bool, error) {
			calls++
			return false, nil
		})
	if err != nil || calls != 1 {
		t.Fatalf("early stop failed: calls=%d err=%v", calls, err)
	}
}

// The valuation past MaxValuations fails with a BudgetError that
// records it: Consumed is Limit+1.
func TestValuationsBudget(t *testing.T) {
	p := &Problem{Options: Options{MaxValuations: 4}}
	vals := []relation.Value{"1", "2", "3"}
	err := p.forEachValuation(context.Background(), []string{"x", "y"}, [][]relation.Value{vals, vals},
		func(mu ctable.Valuation) (bool, error) { return true, nil })
	var be *BudgetError
	if !errors.As(err, &be) || !errors.Is(err, ErrBudget) {
		t.Fatalf("want a BudgetError over ErrBudget, got %v", err)
	}
	if be.Cap != "MaxValuations" || be.Limit != 4 || be.Consumed != 5 {
		t.Fatalf("BudgetError = %+v, want MaxValuations limit 4 consumed 5", be)
	}
}

func TestValuationsNoVars(t *testing.T) {
	calls := 0
	err := (&Problem{}).forEachValuation(context.Background(), nil, nil, func(mu ctable.Valuation) (bool, error) {
		calls++
		if len(mu) != 0 {
			t.Fatal("empty valuation expected")
		}
		return true, nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("no-var enumeration should call fn once: %d %v", calls, err)
	}
}
