package ctable

import (
	"fmt"
	"testing"

	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// applyBenchTable is an Order(item, qty) c-instance of 50 ground rows
// and one variable row, placed last (a 50-row ground prefix) or first
// (an empty prefix: every row is applied per valuation).
func applyBenchTable(varFirst bool) *CInstance {
	schema := relation.MustDBSchema(relation.MustSchema("Order",
		relation.Attr("item", nil), relation.Attr("qty", relation.Finite("qty", "0", "1", "2", "3"))))
	ci := NewCInstance(schema)
	varRow := Row{Terms: []query.Term{query.C("item-target"), query.V("v")}}
	if varFirst {
		ci.MustAddRow("Order", varRow)
	}
	for i := 0; i < 50; i++ {
		ci.MustAddRow("Order", Row{Terms: []query.Term{
			query.C(relation.Value(fmt.Sprintf("item-%03d", i))), query.C(relation.Value(fmt.Sprint(i % 4)))}})
	}
	if !varFirst {
		ci.MustAddRow("Order", varRow)
	}
	return ci
}

// BenchmarkApply measures one candidate model µ(T): its deduplication
// key (Candidate) and the database built from it, cycling µ over the
// variable's domain.
func BenchmarkApply(b *testing.B) {
	for _, c := range []struct {
		name     string
		varFirst bool
	}{{"ground_prefix_50", false}, {"variable_row_first", true}} {
		b.Run(c.name, func(b *testing.B) {
			ci := applyBenchTable(c.varFirst)
			mus := []Valuation{{"v": "0"}, {"v": "1"}, {"v": "2"}, {"v": "3"}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := ci.Candidate(mus[i%len(mus)])
				if err != nil {
					b.Fatal(err)
				}
				c.Build()
			}
		})
	}
}
