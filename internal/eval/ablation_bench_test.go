package eval

// The reference legs of the root package's evaluator ablations. The
// nested-loop evaluator and the naive fixpoint are reachable only from
// this package's tests, so their legs run here, under the same
// benchmark and sub-benchmark names, on the same inputs.

import (
	"fmt"
	"testing"

	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// BenchmarkAblationEvaluators times the nested-loop map-binding
// evaluator on the positive 2-atom join that the root package times on
// compiled plans and through the FO model checker.
func BenchmarkAblationEvaluators(b *testing.B) {
	for _, n := range []int{12, 48} {
		schema := relation.MustDBSchema(
			relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", nil)),
		)
		db := relation.NewDatabase(schema)
		for i := 0; i < n; i++ {
			db.MustInsert("R", relation.T(
				relation.Value(fmt.Sprintf("n%d", i)),
				relation.Value(fmt.Sprintf("n%d", (i+1)%n))))
		}
		positive := query.MustParseQuery("Q(x, z) := R(x, y) & R(y, z)")
		b.Run(fmt.Sprintf("naive_join/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := answersNested(db, positive, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFPEvaluation times the naive inflational fixpoint on
// the chains the root package times semi-naively; naive re-derives the
// whole closure every round.
func BenchmarkAblationFPEvaluation(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		edges := make([][2]relation.Value, n)
		for i := range edges {
			edges[i] = [2]relation.Value{relation.Value(fmt.Sprintf("n%d", i)), relation.Value(fmt.Sprintf("n%d", i+1))}
		}
		db := edgeDB(b, edges...)
		prog := query.MustParseProgram("reach", db.Schema(), reachSrc)
		b.Run(fmt.Sprintf("naive/chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fpNaive(db, prog, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
