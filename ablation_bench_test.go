package relcomplete_test

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - lazy disjunct enumeration versus materialising the full DNF of an
//     ∃FO+ query (the Theorem 4.1 algorithms depend on avoiding the
//     exponential unfolding);
//   - join-based evaluation of the positive fragment versus active-
//     domain model checking (the two evaluator paths in internal/eval);
//   - the single-tuple candidate pre-filter that turns the Lemma 4.2
//     bound check from Adom^|vars| valuations into lattice-pruned
//     backtracking (measured through its cache: cold vs warm).

import (
	"fmt"
	"strings"
	"testing"

	"relcomplete/internal/core"
	"relcomplete/internal/eval"
	"relcomplete/internal/paperex"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// nestedDisjunctionQuery builds Q(x) := (A(x)|B(x)) & ... & (A(x)|B(x))
// with n binary disjunctions: 2^n disjuncts in DNF.
func nestedDisjunctionQuery(n int) *query.Query {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = "(A(x) | B(x))"
	}
	return query.MustParseQuery("Q(x) := " + strings.Join(parts, " & "))
}

func BenchmarkAblationDisjuncts(b *testing.B) {
	for _, n := range []int{6, 10, 14} {
		q := nestedDisjunctionQuery(n)
		b.Run(fmt.Sprintf("materialise/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ds := query.Disjuncts(q); len(ds) != 1<<uint(n) {
					b.Fatal("unexpected disjunct count")
				}
			}
		})
		b.Run(fmt.Sprintf("iterate_first/n=%d", n), func(b *testing.B) {
			// The deciders stop at the first counterexample-producing
			// disjunct; lazy enumeration pays only for what it uses.
			for i := 0; i < b.N; i++ {
				it := query.NewDisjunctIterator(q)
				if it.Next() == nil {
					b.Fatal("no disjunct")
				}
			}
		})
	}
}

func BenchmarkAblationEvaluators(b *testing.B) {
	// Same positive query across the evaluator tiers: the compiled
	// indexed-join plans, and the body forced through the FO model
	// checker (wrapped in a double negation: semantically identical,
	// classified FO). The indexed run compiles once, as core.Problem
	// does for the decision searches. The nested-loop leg (naive_join)
	// runs in internal/eval, where that evaluator lives.
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
		fo := query.MustQuery("Q", positive.Head, query.Neg(query.Neg(positive.Body)))

		b.Run(fmt.Sprintf("indexed/n=%d", n), func(b *testing.B) {
			plan := eval.MustCompile(positive)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Answers(db, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fo_model_checking/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Answers(db, fo, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationCandidateCache(b *testing.B) {
	// The bounded check's single-tuple candidate lattice is cached per
	// problem: the first decider call pays for |Adom|^arity closure
	// tests, later calls reuse them. Cold constructs a fresh Problem
	// each iteration; warm reuses one.
	s := paperex.Reduced()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := s.Problem(s.Q1, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.RCDP(s.T, core.Strong); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		p, err := s.Problem(s.Q1, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.RCDP(s.T, core.Strong); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.RCDP(s.T, core.Strong); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationFPEvaluation(b *testing.B) {
	// Semi-naive inflational fixpoint on a long chain. The naive leg,
	// which re-derives the whole closure every round, runs in
	// internal/eval, where the naive iteration lives.
	for _, n := range []int{16, 32, 64} {
		schema := relation.MustDBSchema(relation.MustSchema("edge",
			relation.Attr("A", nil), relation.Attr("B", nil)))
		db := relation.NewDatabase(schema)
		for i := 0; i < n; i++ {
			db.MustInsert("edge", relation.T(
				relation.Value(fmt.Sprintf("n%d", i)),
				relation.Value(fmt.Sprintf("n%d", i+1))))
		}
		prog := query.MustParseProgram("reach", schema, `
			reach(x, y) :- edge(x, y).
			reach(x, z) :- reach(x, y), edge(y, z).
			output reach.
		`)
		b.Run(fmt.Sprintf("seminaive/chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.FPAnswers(db, prog, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationTypedDomains(b *testing.B) {
	// Typed compatibility-class domains versus the flat Adom on the
	// reduced patient scenario's weak-model check.
	s := paperex.Reduced()
	run := func(b *testing.B, opts core.Options) {
		p, err := core.NewProblem(s.Data, core.CalcQuery(s.Q4), s.Dm, s.CCs, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.RCDP(s.T, core.Weak); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("typed", func(b *testing.B) { run(b, core.Options{}) })
	b.Run("untyped", func(b *testing.B) { run(b, core.Options{NoTypedDomains: true}) })
}
