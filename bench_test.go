package relcomplete_test

// The benchmark harness of EXPERIMENTS.md: one benchmark per artifact
// of the paper's Table I (and Figures 1–2), each scaling a reduction
// family or a data-complexity workload. Absolute times are
// machine-specific; the experiment's claim is the SHAPE — exponential
// growth in the quantifier structure for the combined-complexity
// cells, polynomial growth in the instance size for the Section 7
// cells, and the orderings the paper predicts (weak RCDP costlier than
// strong on one family, MINPw(UCQ) costlier than MINPw(CQ), c-instance
// MINPs costlier than ground MINPs).

import (
	"fmt"
	"testing"

	"relcomplete/internal/cc"
	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/eval"
	"relcomplete/internal/paperex"
	"relcomplete/internal/query"
	"relcomplete/internal/reduction"
	"relcomplete/internal/relation"
	"relcomplete/internal/sat"
	"relcomplete/internal/tractable"
	"relcomplete/internal/workload"
)

// ---------------------------------------------------------------------------
// E-F1 — Figure 1 and the Examples 1.1–2.3 judgements.
// ---------------------------------------------------------------------------

func BenchmarkFigure1Scenario(b *testing.B) {
	b.Run("consistency_full", func(b *testing.B) {
		s := paperex.Full()
		p, err := s.Problem(s.Q1, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, err := p.Consistent(s.T); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("rcdp_strong_Q1_reduced", func(b *testing.B) {
		s := paperex.Reduced()
		p, err := s.Problem(s.Q1, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, err := p.RCDP(s.T, core.Strong); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E-F2 — Figure 2: the CQ encoding of Boolean formulas.
// ---------------------------------------------------------------------------

func BenchmarkFigure2SATEncoding(b *testing.B) {
	for _, clauses := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("clauses=%d", clauses), func(b *testing.B) {
			br := reduction.NewBoolRels()
			schema := relation.MustDBSchema(br.DataSchemas()...)
			db := relation.NewDatabase(schema)
			br.PopulateDatabase(db)
			f := sat.RandomCNF(6, clauses, 42)
			varNames := make([]string, f.Vars)
			for i := range varNames {
				varNames[i] = fmt.Sprintf("v%d", i+1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				atoms, w, err := reduction.EncodeCNF(br, f, func(v int) query.Term {
					return query.V(varNames[v-1])
				}, "b_")
				if err != nil {
					b.Fatal(err)
				}
				kids := append(br.AssignmentAtoms(varNames), atoms...)
				q := query.MustQuery("Qpsi", []query.Term{query.V(w)}, query.Conj(kids...))
				if _, err := eval.Answers(db, q, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E-T1-CONS / E-T1-EXT — consistency and extensibility on the
// Proposition 3.3 ∀*∃*3SAT family (Σp2): exponential in the ∀ block.
// ---------------------------------------------------------------------------

func BenchmarkConsistency3SAT(b *testing.B) {
	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("forall=%d", n), func(b *testing.B) {
			q := workload.ForallExistsFamily(n, 2, 4, int64(n))
			g, err := reduction.NewConsistencyGadget(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.ConsistencyHolds(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtensibility3SAT(b *testing.B) {
	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("forall=%d", n), func(b *testing.B) {
			q := workload.ForallExistsFamily(n, 2, 4, int64(n))
			g, err := reduction.NewConsistencyGadget(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.ExtensibilityHolds(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E-T1-RCDPs / E-T1-RCDPw / E-T1-RCDPv — RCDP across the three models
// on matched inputs. The weak decider (Πp3) pays for the certain-answer
// intersections; strong (Πp2) and viable (Σp3) bound/witness checks.
// ---------------------------------------------------------------------------

func benchEFEGadget(b *testing.B, nY int, run func(g *reduction.WeakRCDPGadget) error) {
	q := workload.ExistsForallExistsFamily(1, nY, 1, 3, int64(nY))
	g, err := reduction.NewWeakRCDPGadget(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRCDPWeak3SAT(b *testing.B) {
	for _, nY := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("forallY=%d", nY), func(b *testing.B) {
			benchEFEGadget(b, nY, func(g *reduction.WeakRCDPGadget) error {
				_, err := g.WeaklyComplete()
				return err
			})
		})
	}
}

func BenchmarkRCDPViable3SAT(b *testing.B) {
	for _, nX := range []int{1, 2} {
		b.Run(fmt.Sprintf("existsX=%d", nX), func(b *testing.B) {
			q := workload.ExistsForallExistsFamily(nX, 1, 1, 3, int64(nX))
			g, err := reduction.NewExistsForallExistsGadget(q, false)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.RCDPViableHolds(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRCDPStrongPatient(b *testing.B) {
	// Strong RCDP on the growing patient scenario: the Πp2 bound check
	// against the Figure 1-style CC set.
	s := paperex.Reduced()
	for _, extraRows := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("rows=%d", 1+extraRows), func(b *testing.B) {
			ci := s.T.Clone()
			for i := 0; i < extraRows; i++ {
				ci.MustAddRow("MVisit", ctable.Row{Terms: []query.Term{
					query.C(relation.Value(fmt.Sprintf("999-00-%03d", i))),
					query.C(relation.Value(fmt.Sprintf("P%d", i))),
					query.C("LON"), query.C("2000"),
				}})
			}
			p, err := s.Problem(s.Q1, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.RCDP(ci, core.Strong); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E-T1-RCDPwFP — RCDPw(FP) on the SUCCINCT-TAUT circuit gadget
// (coNEXPTIME): exponential in the circuit's input count.
// ---------------------------------------------------------------------------

func BenchmarkRCDPWeakFP(b *testing.B) {
	for _, inputs := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("inputs=%d", inputs), func(b *testing.B) {
			circ := workload.CircuitFamily(inputs, 16, true, int64(inputs))
			g, err := reduction.NewCircuitFPGadget(circ)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := g.WeaklyComplete()
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E-T1-MINPs — MINPs on the Theorem 4.8 family: Πp3 for c-instances
// versus Dp2 for ground instances (the missing-values premium).
// ---------------------------------------------------------------------------

func BenchmarkMINPStrong3SAT(b *testing.B) {
	for _, nX := range []int{1, 2} {
		b.Run(fmt.Sprintf("cinstance/existsX=%d", nX), func(b *testing.B) {
			q := workload.ExistsForallExistsFamily(nX, 1, 1, 3, int64(nX))
			g, err := reduction.NewExistsForallExistsGadget(q, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.MINPStrongHolds(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ground/existsX=%d", nX), func(b *testing.B) {
			q := workload.ExistsForallExistsFamily(nX, 1, 1, 3, int64(nX))
			g, err := reduction.NewExistsForallExistsGadget(q, true)
			if err != nil {
				b.Fatal(err)
			}
			// Ground the c-instance at one model: the Dp2 case.
			db, err := g.Problem.AnyModel(g.T)
			if err != nil || db == nil {
				b.Fatal(db, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Problem.GroundMinimal(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E-T1-MINPw-CQ vs E-T1-MINPw-UCQ — the coDP / Πp4 gap of Theorem 5.6.
// ---------------------------------------------------------------------------

func BenchmarkMINPWeakCQ(b *testing.B) {
	for _, vars := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("vars=%d", vars), func(b *testing.B) {
			inst := workload.SATUNSATFamily(vars, vars+1, int64(vars))
			g, err := reduction.NewWeakMINPGadget(inst)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.MinimalWeaklyComplete(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMINPWeakUCQ(b *testing.B) {
	// Generic weak MINP (2^rows subset checks, each a Πp3 weak check)
	// on a UCQ over the bounded-order scenario.
	s := workload.NewBoundedScenario(3, core.Options{})
	q := query.MustParseQuery("Q(i) := Order(i, '1') | Order(i, '2')")
	p := core.MustProblem(s.Schema, core.CalcQuery(q), s.Dm, s.CCs, core.Options{})
	for _, rows := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			ci := s.Instance(rows, 0, int64(rows))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.MINP(ci, core.Weak); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMINPViable3SAT(b *testing.B) {
	q := workload.ExistsForallExistsFamily(1, 1, 1, 3, 9)
	g, err := reduction.NewExistsForallExistsGadget(q, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MINPViableHolds(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E-T1-RCQPs / E-T1-RCQPw — RCQP: the IND fast path, the bounded
// witness search, and the O(1) weak answer with its constructive
// witness.
// ---------------------------------------------------------------------------

func BenchmarkRCQPStrong(b *testing.B) {
	b.Run("ind_fastpath", func(b *testing.B) {
		s := paperex.Reduced()
		// Projection CC only: πNHS(MVisit) ⊆ πNHS(Patientm).
		ind := query.MustParseQuery("q(n, na) := MVisit(n, na, c, y)")
		right := query.MustParseQuery("p(n, na) := Patientm(n, na, y)")
		c, err := relcompleteParseCC("nhs", ind, right)
		if err != nil {
			b.Fatal(err)
		}
		p := core.MustProblem(s.Data, core.CalcQuery(s.Q1), s.Dm, c, core.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.RCQP(core.Strong); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bounded_search", func(b *testing.B) {
		s := paperex.Reduced()
		p, err := s.Problem(s.Q1, core.Options{RCQPSizeBound: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.RCQP(core.Strong); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRCQPWeakConstruct(b *testing.B) {
	for _, catalogue := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("catalogue=%d", catalogue), func(b *testing.B) {
			s := workload.NewBoundedScenario(catalogue, core.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Problem.ConstructWeaklyComplete(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E-T1-UNDEC — undecidable cells are refused in O(1).
// ---------------------------------------------------------------------------

func BenchmarkUndecidableDispatch(b *testing.B) {
	schema := relation.MustDBSchema(relation.MustSchema("R", relation.Attr("A", nil)))
	p := core.MustProblem(schema,
		core.CalcQuery(query.MustParseQuery("Q(x) := ! R(x)")), nil, nil, core.Options{})
	ci := ctable.NewCInstance(schema)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RCDP(ci, core.Strong); err == nil {
			b.Fatal("must refuse")
		}
	}
}

// ---------------------------------------------------------------------------
// E-S7 — the Section 7 tractable cases: polynomial growth in the
// instance size at fixed (Q, V) and bounded variables.
// ---------------------------------------------------------------------------

func BenchmarkTractableRCDP(b *testing.B) {
	s := workload.NewBoundedScenario(4, core.Options{})
	for _, m := range []core.Model{core.Strong, core.Weak, core.Viable} {
		for _, rows := range []int{4, 8, 16, 32} {
			b.Run(fmt.Sprintf("%v/rows=%d", m, rows), func(b *testing.B) {
				ci := s.Instance(rows, 1, int64(rows))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := tractable.RCDP(s.Problem, ci, m, 2); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTractableRCQPIND(b *testing.B) {
	s := paperex.Reduced()
	ind := query.MustParseQuery("q(n, na) := MVisit(n, na, c, y)")
	right := query.MustParseQuery("p(n, na) := Patientm(n, na, y)")
	ccSet, err := relcompleteParseCC("nhs", ind, right)
	if err != nil {
		b.Fatal(err)
	}
	p := core.MustProblem(s.Data, core.CalcQuery(s.Q1), s.Dm, ccSet, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tractable.RCQP(p, core.Strong); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTractableMINP(b *testing.B) {
	s := workload.NewBoundedScenario(3, core.Options{})
	for _, rows := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			ci := s.Instance(rows, 1, int64(rows))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tractable.MINP(s.Problem, ci, core.Strong, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Parallel search engine — the same deciders at Parallelism 1 (the
// exact sequential path) and N. Verdicts are bit-identical at every
// worker count by construction (see internal/search); only wall-clock
// varies with the host's core count. internal/search's latency-bound
// benchmarks isolate the engine's speed-up; these measure it
// end-to-end on CPU-bound deciders.
// ---------------------------------------------------------------------------

func BenchmarkParallelWorkers(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("rcdp_weak_3sat/workers=%d", workers), func(b *testing.B) {
			q := workload.ExistsForallExistsFamily(1, 2, 1, 3, 2)
			g, err := reduction.NewWeakRCDPGadget(q)
			if err != nil {
				b.Fatal(err)
			}
			g.Problem.Options.Parallelism = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.WeaklyComplete(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rcdp_strong_patient/workers=%d", workers), func(b *testing.B) {
			s := paperex.Reduced()
			p, err := s.Problem(s.Q1, core.Options{Parallelism: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, err := p.RCDP(s.T, core.Strong); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
		b.Run(fmt.Sprintf("consistency_3sat/workers=%d", workers), func(b *testing.B) {
			q := workload.ForallExistsFamily(2, 2, 4, 2)
			g, err := reduction.NewConsistencyGadget(q)
			if err != nil {
				b.Fatal(err)
			}
			g.Problem.Options.Parallelism = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.ConsistencyHolds(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E-P31 — the Proposition 3.1 FD(+IND) gadget.
// ---------------------------------------------------------------------------

func BenchmarkProp31Gadget(b *testing.B) {
	sch := relation.MustSchema("R",
		relation.Attr("A", nil), relation.Attr("B", nil),
		relation.Attr("C", nil), relation.Attr("D", nil))
	theta := []cc.FD{
		{Rel: "R", LHS: []string{"A"}, RHS: []string{"B"}},
		{Rel: "R", LHS: []string{"B"}, RHS: []string{"C"}},
	}
	phi := cc.FD{Rel: "R", LHS: []string{"A"}, RHS: []string{"D"}}
	g, err := reduction.NewProp31Gadget(sch, theta, nil, phi)
	if err != nil {
		b.Fatal(err)
	}
	pool := []relation.Value{"0", "1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		complete, err := g.CompleteUpTo(2, pool)
		if err != nil {
			b.Fatal(err)
		}
		if complete {
			b.Fatal("A→D is not implied; a violation must be found")
		}
	}
}

// relcompleteParseCC wraps two parsed queries into a singleton CC set.
func relcompleteParseCC(name string, left, right *query.Query) (*cc.Set, error) {
	c, err := cc.New(name, left, right)
	if err != nil {
		return nil, err
	}
	return cc.NewSet(c), nil
}
