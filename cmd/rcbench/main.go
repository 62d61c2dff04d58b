// Command rcbench reruns the reproduction experiments of EXPERIMENTS.md
// and prints a Table-I-shaped report: for each (problem, model,
// language) cell of the paper it exercises the decider on a scaling
// input family, cross-checks the verdicts against the brute-force
// logic oracles where a reduction family is used, and reports the
// measured growth. Absolute numbers are machine-specific; the shape —
// who is decidable, what explodes, what stays polynomial — is the
// reproduction target.
//
// Usage:
//
//	rcbench                     # full sweep (~a few minutes)
//	rcbench -quick              # reduced sizes
//	rcbench -run MINP           # only experiments whose id contains "MINP"
//	rcbench -workers 8          # worker count for the candidate searches
//	rcbench -cpuprofile cpu.pb  # write a pprof CPU profile of the sweep
//	rcbench -memprofile mem.pb  # write a pprof heap profile at exit
//	rcbench -trace              # stream the decision trace to stderr
//	rcbench -stats              # print aggregated solver counters after the sweep
//	rcbench -http :8080         # /metrics, /debug/plans, expvar + net/http/pprof while running
//	rcbench -slowlog 250ms      # dump the stalled call's span tree when a decider call stalls
//
// Every experiment decides under the sweep's one root span, whose
// recorder keeps the last 256 finished spans: -trace streams the
// decision events on those spans to stderr, and -slowlog dumps a slow
// call's span tree from the recorder.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"relcomplete/internal/cc"
	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/eval"
	"relcomplete/internal/httpx"
	"relcomplete/internal/obs"
	"relcomplete/internal/paperex"
	"relcomplete/internal/query"
	"relcomplete/internal/reduction"
	"relcomplete/internal/relation"
	"relcomplete/internal/tractable"
	"relcomplete/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rcbench:", err)
		os.Exit(1)
	}
}

type row struct {
	size    string
	verdict string
	agree   string // oracle agreement, "-" when no oracle applies
	elapsed time.Duration
}

type experiment struct {
	id    string
	cell  string // Table I cell / artifact
	runFn func(quick bool) ([]row, error)
}

// workersFlag and slowOpFlag hold the -workers and -slowlog values for
// the current run; every experiment builds its Problem from benchOpts
// so the settings reach the deciders. benchMetrics is always attached
// (it is cheap).
var (
	workersFlag  int
	slowOpFlag   time.Duration
	benchMetrics = obs.NewMetrics()
	// benchProfiles is the sweep-wide plan-profile registry: experiments
	// build transient problems, so the shared registry (via
	// Options.Profiles) is what lets -http's /debug/plans rank plans
	// across the whole sweep.
	benchProfiles = &eval.ProfileRegistry{}

	// benchCtx carries the sweep's root span to every experiment's
	// decider calls; -timeout adds a deadline for the whole sweep.
	benchCtx = context.Background()
)

// benchOpts is the Options value each experiment starts from.
func benchOpts() core.Options {
	return core.Options{
		Parallelism:     workersFlag,
		Obs:             benchMetrics,
		Profiles:        benchProfiles,
		SlowOpThreshold: slowOpFlag,
	}
}

// applyBenchOpts pushes the run-wide flags into a gadget-built Problem.
func applyBenchOpts(o *core.Options) {
	o.Parallelism = workersFlag
	o.Obs = benchMetrics
	o.Profiles = benchProfiles
	o.SlowOpThreshold = slowOpFlag
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rcbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced sizes")
	filter := fs.String("run", "", "only experiments whose id contains this substring")
	workers := fs.Int("workers", 0, "worker count for the parallel candidate searches (0 = GOMAXPROCS, 1 = sequential)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	trace := fs.Bool("trace", false, "stream the decision trace of every experiment to stderr")
	httpAddr := fs.String("http", "", "serve /metrics (Prometheus), /debug/vars and /debug/pprof on this address during the sweep")
	statsOut := fs.Bool("stats", false, "print the aggregated solver counters after the sweep")
	slowlog := fs.Duration("slowlog", 0, "dump the slow call's span tree and the histograms to stderr when a decider call exceeds this duration (0 disables)")
	timeout := fs.Duration("timeout", 0, "abort the whole sweep after this duration (experiments report the deadline error; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	workersFlag = *workers
	slowOpFlag = *slowlog
	rec := obs.NewSpanRecorder(0)
	if *trace {
		rec.StreamEvents(os.Stderr)
	}
	root := rec.Root("rcbench", "")
	defer root.End()
	benchCtx = obs.ContextWithSpan(context.Background(), root)
	if *timeout > 0 {
		var cancel context.CancelFunc
		benchCtx, cancel = context.WithTimeout(benchCtx, *timeout)
		defer cancel()
	}
	relation.SetMetrics(benchMetrics) // index counters live behind a process-global hook
	if *httpAddr != "" {
		ds, err := serveDebug(*httpAddr)
		if err != nil {
			return fmt.Errorf("http: %w", err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "rcbench: debug endpoint on http://%s/metrics, /debug/plans, /debug/vars and /debug/pprof/\n", ds.Addr())
	}
	if *statsOut {
		defer func() {
			st := benchMetrics.Snapshot()
			fmt.Fprintln(out, "solver counters:")
			names := make([]string, 0, len(st.Counters))
			for name := range st.Counters {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(out, "  %-28s %d\n", name, st.Counters[name])
			}
			for _, ph := range st.Phases {
				fmt.Fprintf(out, "  phase %-22s count=%d %0.1fms\n", ph.Name, ph.Count, ph.Ms)
			}
			for _, h := range st.Histograms {
				fmt.Fprintf(out, "  histogram %-18s count=%d\n", h.Name, h.Count)
			}
		}()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rcbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rcbench: memprofile:", err)
			}
		}()
	}

	fmt.Fprintln(out, "relcomplete — empirical reproduction of Table I (Deng, Fan, Geerts; PODS'10/TODS'16)")
	fmt.Fprintln(out, strings.Repeat("=", 96))

	for _, e := range experiments() {
		if *filter != "" && !strings.Contains(e.id, *filter) {
			continue
		}
		fmt.Fprintf(out, "\n%-18s %s\n", e.id, e.cell)
		rows, err := e.runFn(*quick)
		if err != nil {
			fmt.Fprintf(out, "  ERROR: %v\n", err)
			continue
		}
		for _, r := range rows {
			fmt.Fprintf(out, "  %-26s verdict=%-14s oracle=%-6s %12v\n",
				r.size, r.verdict, r.agree, r.elapsed.Round(time.Microsecond))
		}
	}
	fmt.Fprintln(out)
	return nil
}

// serveDebug starts the opt-in introspection endpoint: the metrics
// exposition under /metrics (Prometheus, or OpenMetrics with exemplars
// on request), the solver counters under /debug/vars (expvar), the Go
// profiler under /debug/pprof/ and the sweep-wide top-K slowest plans
// under /debug/plans. Every request is traced and logged as one JSON
// line on stderr (httpx.AccessLog), the same schema rcserved emits. It
// binds eagerly so a bad address fails the run; Close on the returned
// server drains in-flight scrapes (internal/httpx) before the process
// moves on.
func serveDebug(addr string) (*httpx.Server, error) {
	httpx.PublishSnapshot("solver", benchMetrics)
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	mux := httpx.NewDebugMux(benchMetrics)
	httpx.RegisterPlans(mux, func(k int) any { return benchProfiles.Top(k) })
	return httpx.Serve(addr, httpx.AccessLog(logger, mux))
}

func timed(fn func() (string, string, error)) (row, error) {
	start := time.Now()
	verdict, agree, err := fn()
	return row{verdict: verdict, agree: agree, elapsed: time.Since(start)}, err
}

func agreeStr(got, want bool) string {
	if got == want {
		return "OK"
	}
	return "FAIL"
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func experiments() []experiment {
	return []experiment{
		{"E-F1", "Figure 1 / Examples 1.1–2.3 (patient scenario)", runFigure1},
		{"E-T1-CONS", "consistency — Σp2 via ∀*∃*3SAT (Prop. 3.3)", runConsistency},
		{"E-T1-EXT", "extensibility — Σp2 via ∀*∃*3SAT (Prop. 3.3)", runExtensibility},
		{"E-T1-RCDPs", "RCDPs(CQ) — Πp2 (Thm. 4.1), patient family", runRCDPStrong},
		{"E-T1-RCDPw", "RCDPw(CQ) — Πp3 via ∃*∀*∃*3SAT (Thm. 5.1)", runRCDPWeak},
		{"E-T1-RCDPv", "RCDPv(CQ) — Σp3 via ∃*∀*∃*3SAT (Thm. 6.1)", runRCDPViable},
		{"E-T1-RCDPwFP", "RCDPw(FP) — coNEXPTIME via SUCCINCT-TAUT (Thm. 5.1(2))", runRCDPWeakFP},
		{"E-T1-MINPs", "MINPs(CQ) — Πp3 c-instances / Dp2 ground (Thm. 4.8)", runMINPStrong},
		{"E-T1-MINPw-CQ", "MINPw(CQ) — coDP via SAT-UNSAT (Thm. 5.6(4))", runMINPWeakCQ},
		{"E-T1-MINPw-UCQ", "MINPw(UCQ) — Πp4 generic subset algorithm (Thm. 5.6(3))", runMINPWeakUCQ},
		{"E-T1-MINPv", "MINPv(CQ) — Σp3 via ∃*∀*∃*3SAT (Cor. 6.3)", runMINPViable},
		{"E-T1-RCQPs", "RCQPs — NEXPTIME; IND fast path + bounded search (Thm. 4.5)", runRCQPStrong},
		{"E-T1-RCQPw", "RCQPw — O(1) + constructive witness (Thm. 5.4)", runRCQPWeak},
		{"E-T1-UNDEC", "undecidable cells refused (Table I)", runUndecidable},
		{"E-S7-RCDP", "Cor. 7.1 — PTIME data complexity for RCDP", runTractableRCDP},
		{"E-S7-RCQP", "Cor. 7.2 — PTIME RCQP under IND CCs", runTractableRCQP},
		{"E-S7-MINP", "Cor. 7.3 — PTIME data complexity for MINP", runTractableMINP},
		{"E-P31", "Prop. 3.1 — FD(+IND) integrity constraints gadget", runProp31},
	}
}

func runFigure1(quick bool) ([]row, error) {
	var rows []row
	s := paperex.Reduced()
	cases := []struct {
		label string
		fn    func() (bool, error)
		want  bool
	}{
		{"Q1 strongly complete", func() (bool, error) {
			p, _ := s.Problem(s.Q1, benchOpts())
			return p.RCDPCtx(benchCtx, s.T, core.Strong)
		}, true},
		{"Q2 incomplete", func() (bool, error) {
			p, _ := s.Problem(s.Q2, benchOpts())
			return p.RCDPCtx(benchCtx, s.T, core.Strong)
		}, false},
		{"Q4 weakly complete", func() (bool, error) {
			p, _ := s.Problem(s.Q4, benchOpts())
			withVar, err := s.WithRow(ctable.Row{
				Terms: []query.Term{query.C("915-15-336"), query.V("x"), query.C("EDI"), query.V("z")},
			})
			if err != nil {
				return false, err
			}
			return p.RCDPCtx(benchCtx, withVar, core.Weak)
		}, true},
		{"Q4 not strongly complete", func() (bool, error) {
			p, _ := s.Problem(s.Q4, benchOpts())
			withVar, err := s.WithRow(ctable.Row{
				Terms: []query.Term{query.C("915-15-336"), query.V("x"), query.C("EDI"), query.V("z")},
			})
			if err != nil {
				return false, err
			}
			return p.RCDPCtx(benchCtx, withVar, core.Strong)
		}, false},
	}
	for _, c := range cases {
		c := c
		r, err := timed(func() (string, string, error) {
			got, err := c.fn()
			if err != nil {
				return "", "", err
			}
			return boolStr(got), agreeStr(got, c.want), nil
		})
		if err != nil {
			return nil, err
		}
		r.size = c.label
		rows = append(rows, r)
	}
	return rows, nil
}

func consistencySizes(quick bool) []int {
	if quick {
		return []int{1, 2}
	}
	return []int{1, 2, 3, 4}
}

func runConsistency(quick bool) ([]row, error) {
	var rows []row
	for _, n := range consistencySizes(quick) {
		q := workload.ForallExistsFamily(n, 2, 4, int64(n))
		g, err := reduction.NewConsistencyGadget(q)
		if err != nil {
			return nil, err
		}
		applyBenchOpts(&g.Problem.Options)
		want := !q.Eval()
		r, err := timed(func() (string, string, error) {
			got, err := g.ConsistencyHoldsCtx(benchCtx)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), agreeStr(got, want), nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("forall=%d exists=2 cls=4", n)
		rows = append(rows, r)
	}
	return rows, nil
}

func runExtensibility(quick bool) ([]row, error) {
	var rows []row
	for _, n := range consistencySizes(quick) {
		q := workload.ForallExistsFamily(n, 2, 4, int64(n)+50)
		g, err := reduction.NewConsistencyGadget(q)
		if err != nil {
			return nil, err
		}
		applyBenchOpts(&g.Problem.Options)
		want := !q.Eval()
		r, err := timed(func() (string, string, error) {
			got, err := g.ExtensibilityHoldsCtx(benchCtx)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), agreeStr(got, want), nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("forall=%d exists=2 cls=4", n)
		rows = append(rows, r)
	}
	return rows, nil
}

func runRCDPStrong(quick bool) ([]row, error) {
	var rows []row
	s := paperex.Reduced()
	sizes := []int{1, 3, 5}
	if quick {
		sizes = []int{1, 3}
	}
	for _, extra := range sizes {
		ci := s.T.Clone()
		for i := 0; i < extra-1; i++ {
			ci.MustAddRow("MVisit", ctable.Row{Terms: []query.Term{
				query.C(relation.Value(fmt.Sprintf("999-00-%03d", i))),
				query.C(relation.Value(fmt.Sprintf("P%d", i))),
				query.C("LON"), query.C("2000"),
			}})
		}
		p, err := s.Problem(s.Q1, benchOpts())
		if err != nil {
			return nil, err
		}
		r, err := timed(func() (string, string, error) {
			got, err := p.RCDPCtx(benchCtx, ci, core.Strong)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), agreeStr(got, true), nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("rows=%d", extra)
		rows = append(rows, r)
	}
	return rows, nil
}

func efeSizes(quick bool) []int {
	if quick {
		return []int{1, 2}
	}
	return []int{1, 2, 3}
}

func runRCDPWeak(quick bool) ([]row, error) {
	var rows []row
	for _, nY := range efeSizes(quick) {
		q := workload.ExistsForallExistsFamily(1, nY, 1, 3, int64(nY))
		g, err := reduction.NewWeakRCDPGadget(q)
		if err != nil {
			return nil, err
		}
		applyBenchOpts(&g.Problem.Options)
		want := !q.Eval()
		r, err := timed(func() (string, string, error) {
			got, err := g.WeaklyCompleteCtx(benchCtx)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), agreeStr(got, want), nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("forallY=%d", nY)
		rows = append(rows, r)
	}
	return rows, nil
}

func runRCDPViable(quick bool) ([]row, error) {
	var rows []row
	for _, nX := range efeSizes(quick) {
		q := workload.ExistsForallExistsFamily(nX, 1, 1, 3, int64(nX))
		g, err := reduction.NewExistsForallExistsGadget(q, false)
		if err != nil {
			return nil, err
		}
		applyBenchOpts(&g.Problem.Options)
		want := q.Eval()
		r, err := timed(func() (string, string, error) {
			got, err := g.RCDPViableHoldsCtx(benchCtx)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), agreeStr(got, want), nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("existsX=%d", nX)
		rows = append(rows, r)
	}
	return rows, nil
}

func runRCDPWeakFP(quick bool) ([]row, error) {
	var rows []row
	sizes := []int{2, 4, 6}
	if quick {
		sizes = []int{2, 4}
	}
	for _, inputs := range sizes {
		circ := workload.CircuitFamily(inputs, 16, inputs%4 == 2, int64(inputs))
		want, err := circ.Tautology()
		if err != nil {
			return nil, err
		}
		g, err := reduction.NewCircuitFPGadget(circ)
		if err != nil {
			return nil, err
		}
		applyBenchOpts(&g.Problem.Options)
		r, err := timed(func() (string, string, error) {
			got, err := g.WeaklyCompleteCtx(benchCtx)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), agreeStr(got, want), nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("inputs=%d", inputs)
		rows = append(rows, r)
	}
	return rows, nil
}

func runMINPStrong(quick bool) ([]row, error) {
	var rows []row
	for _, nX := range efeSizes(quick) {
		q := workload.ExistsForallExistsFamily(nX, 1, 1, 3, int64(nX))
		g, err := reduction.NewExistsForallExistsGadget(q, true)
		if err != nil {
			return nil, err
		}
		applyBenchOpts(&g.Problem.Options)
		want := !q.Eval()
		r, err := timed(func() (string, string, error) {
			got, err := g.MINPStrongHoldsCtx(benchCtx)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), agreeStr(got, want), nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("cinstance existsX=%d", nX)
		rows = append(rows, r)

		// Ground counterpart (the Dp2 cell).
		db, err := g.Problem.AnyModelCtx(benchCtx, g.T)
		if err != nil || db == nil {
			return nil, fmt.Errorf("no model: %v", err)
		}
		r2, err := timed(func() (string, string, error) {
			got, err := g.Problem.GroundMinimalCtx(benchCtx, db)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), "-", nil
		})
		if err != nil {
			return nil, err
		}
		r2.size = fmt.Sprintf("ground    existsX=%d", nX)
		rows = append(rows, r2)
	}
	return rows, nil
}

func runMINPWeakCQ(quick bool) ([]row, error) {
	var rows []row
	sizes := []int{2, 3, 4}
	if quick {
		sizes = []int{2, 3}
	}
	for _, vars := range sizes {
		inst := workload.SATUNSATFamily(vars, vars+1, int64(vars))
		g, err := reduction.NewWeakMINPGadget(inst)
		if err != nil {
			return nil, err
		}
		applyBenchOpts(&g.Problem.Options)
		want := !inst.Eval()
		r, err := timed(func() (string, string, error) {
			got, err := g.MinimalWeaklyCompleteCtx(benchCtx)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), agreeStr(got, want), nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("vars=%d", vars)
		rows = append(rows, r)
	}
	return rows, nil
}

func runMINPWeakUCQ(quick bool) ([]row, error) {
	var rows []row
	s := workload.NewBoundedScenario(3, benchOpts())
	q := query.MustParseQuery("Q(i) := Order(i, '1') | Order(i, '2')")
	p := core.MustProblem(s.Schema, core.CalcQuery(q), s.Dm, s.CCs, benchOpts())
	sizes := []int{1, 2, 3}
	if quick {
		sizes = []int{1, 2}
	}
	for _, n := range sizes {
		ci := s.Instance(n, 0, int64(n))
		r, err := timed(func() (string, string, error) {
			got, err := p.MINPCtx(benchCtx, ci, core.Weak)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), "-", nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("rows=%d (2^rows subsets)", n)
		rows = append(rows, r)
	}
	return rows, nil
}

func runMINPViable(quick bool) ([]row, error) {
	var rows []row
	for _, nX := range efeSizes(quick) {
		q := workload.ExistsForallExistsFamily(nX, 1, 1, 3, int64(nX)+11)
		g, err := reduction.NewExistsForallExistsGadget(q, false)
		if err != nil {
			return nil, err
		}
		applyBenchOpts(&g.Problem.Options)
		want := q.Eval()
		r, err := timed(func() (string, string, error) {
			got, err := g.MINPViableHoldsCtx(benchCtx)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), agreeStr(got, want), nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("existsX=%d", nX)
		rows = append(rows, r)
	}
	return rows, nil
}

func runRCQPStrong(quick bool) ([]row, error) {
	var rows []row
	s := paperex.Reduced()
	// IND fast path.
	left := query.MustParseQuery("q(n, na) := MVisit(n, na, c, y)")
	right := query.MustParseQuery("p(n, na) := Patientm(n, na, y)")
	ccSet, err := indSet("nhs", left, right)
	if err != nil {
		return nil, err
	}
	pInd := core.MustProblem(s.Data, core.CalcQuery(s.Q1), s.Dm, ccSet, benchOpts())
	r, err := timed(func() (string, string, error) {
		got, err := pInd.RCQPCtx(benchCtx, core.Strong)
		if err != nil {
			return "", "", err
		}
		return boolStr(got), agreeStr(got, true), nil
	})
	if err != nil {
		return nil, err
	}
	r.size = "IND fast path (bounded head)"
	rows = append(rows, r)

	// Bounded witness search with the Figure 1 CC set.
	pSearch, err := s.Problem(s.Q1, core.Options{RCQPSizeBound: 1, Parallelism: workersFlag})
	if err != nil {
		return nil, err
	}
	r2, err := timed(func() (string, string, error) {
		got, err := pSearch.RCQPCtx(benchCtx, core.Strong)
		if err != nil {
			return "", "", err
		}
		return boolStr(got), "-", nil
	})
	if err != nil {
		return nil, err
	}
	r2.size = "bounded search (size ≤ 1)"
	rows = append(rows, r2)
	return rows, nil
}

func runRCQPWeak(quick bool) ([]row, error) {
	var rows []row
	sizes := []int{2, 4, 8}
	if quick {
		sizes = []int{2, 4}
	}
	for _, catalogue := range sizes {
		s := workload.NewBoundedScenario(catalogue, benchOpts())
		r, err := timed(func() (string, string, error) {
			witness, err := s.Problem.ConstructWeaklyCompleteCtx(benchCtx)
			if err != nil {
				return "", "", err
			}
			ok, err := s.Problem.RCDPCtx(benchCtx, ctable.FromDatabase(witness), core.Weak)
			if err != nil {
				return "", "", err
			}
			return fmt.Sprintf("witness size=%d", witness.Size()), agreeStr(ok, true), nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("catalogue=%d", catalogue)
		rows = append(rows, r)
	}
	return rows, nil
}

func runUndecidable(quick bool) ([]row, error) {
	schema := relation.MustDBSchema(relation.MustSchema("R", relation.Attr("A", nil)))
	fo := core.MustProblem(schema,
		core.CalcQuery(query.MustParseQuery("Q(x) := ! R(x)")), nil, nil, benchOpts())
	fp := core.MustProblem(schema,
		core.FPQuery(query.MustParseProgram("p", schema, "r(x) :- R(x). output r.")), nil, nil, benchOpts())
	ci := ctable.NewCInstance(schema)

	var rows []row
	type c struct {
		label string
		fn    func() error
	}
	cases := []c{
		{"RCDPs(FO)", func() error { _, err := fo.RCDPCtx(benchCtx, ci, core.Strong); return err }},
		{"RCDPw(FO)", func() error { _, err := fo.RCDPCtx(benchCtx, ci, core.Weak); return err }},
		{"RCDPs(FP)", func() error { _, err := fp.RCDPCtx(benchCtx, ci, core.Strong); return err }},
		{"RCQPs(FP)", func() error { _, err := fp.RCQPCtx(benchCtx, core.Strong); return err }},
		{"MINPv(FO)", func() error { _, err := fo.MINPCtx(benchCtx, ci, core.Viable); return err }},
		{"RCQPw(FO) c-inst (open)", func() error { _, err := fo.RCQPCtx(benchCtx, core.Weak); return err }},
	}
	for _, cse := range cases {
		cse := cse
		r, err := timed(func() (string, string, error) {
			err := cse.fn()
			if err == nil {
				return "", "", fmt.Errorf("%s: expected refusal", cse.label)
			}
			return "refused", "OK", nil
		})
		if err != nil {
			return nil, err
		}
		r.size = cse.label
		rows = append(rows, r)
	}
	return rows, nil
}

func tractableSizes(quick bool) []int {
	if quick {
		return []int{4, 8}
	}
	return []int{4, 8, 16, 32, 64}
}

func runTractableRCDP(quick bool) ([]row, error) {
	var rows []row
	s := workload.NewBoundedScenario(4, benchOpts())
	for _, n := range tractableSizes(quick) {
		ci := s.Instance(n, 1, int64(n))
		r, err := timed(func() (string, string, error) {
			got, err := tractable.RCDP(s.Problem, ci, core.Strong, 2)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), "-", nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("rows=%d vars=1", n)
		rows = append(rows, r)
	}
	return rows, nil
}

func runTractableRCQP(quick bool) ([]row, error) {
	s := paperex.Reduced()
	left := query.MustParseQuery("q(n, na) := MVisit(n, na, c, y)")
	right := query.MustParseQuery("p(n, na) := Patientm(n, na, y)")
	ccSet, err := indSet("nhs", left, right)
	if err != nil {
		return nil, err
	}
	p := core.MustProblem(s.Data, core.CalcQuery(s.Q1), s.Dm, ccSet, benchOpts())
	r, err := timed(func() (string, string, error) {
		got, err := tractable.RCQP(p, core.Strong)
		if err != nil {
			return "", "", err
		}
		return boolStr(got), agreeStr(got, true), nil
	})
	if err != nil {
		return nil, err
	}
	r.size = "IND CCs, fixed query"
	return []row{r}, nil
}

func runTractableMINP(quick bool) ([]row, error) {
	var rows []row
	s := workload.NewBoundedScenario(3, benchOpts())
	sizes := []int{2, 4, 8}
	if quick {
		sizes = []int{2, 4}
	}
	for _, n := range sizes {
		ci := s.Instance(n, 1, int64(n))
		r, err := timed(func() (string, string, error) {
			got, err := tractable.MINP(s.Problem, ci, core.Strong, 2)
			if err != nil {
				return "", "", err
			}
			return boolStr(got), "-", nil
		})
		if err != nil {
			return nil, err
		}
		r.size = fmt.Sprintf("rows=%d vars=1", n)
		rows = append(rows, r)
	}
	return rows, nil
}

func runProp31(quick bool) ([]row, error) {
	sch := relation.MustSchema("R",
		relation.Attr("A", nil), relation.Attr("B", nil),
		relation.Attr("C", nil), relation.Attr("D", nil))
	var rows []row
	cases := []struct {
		label   string
		theta   []fd
		phi     fd
		implied bool
	}{
		{"A→B,B→C ⊨ A→C", []fd{{"A", "B"}, {"B", "C"}}, fd{"A", "C"}, true},
		{"A→B ⊭ A→C", []fd{{"A", "B"}}, fd{"A", "C"}, false},
	}
	for _, cse := range cases {
		theta := make([]ccFD, len(cse.theta))
		for i, f := range cse.theta {
			theta[i] = ccFD{Rel: "R", LHS: []string{f.l}, RHS: []string{f.r}}
		}
		g, err := reduction.NewProp31Gadget(sch, theta, nil, ccFD{Rel: "R", LHS: []string{cse.phi.l}, RHS: []string{cse.phi.r}})
		if err != nil {
			return nil, err
		}
		cse := cse
		r, err := timed(func() (string, string, error) {
			got, err := g.CompleteUpTo(2, []relation.Value{"0", "1"})
			if err != nil {
				return "", "", err
			}
			return boolStr(got), agreeStr(got, cse.implied), nil
		})
		if err != nil {
			return nil, err
		}
		r.size = cse.label
		rows = append(rows, r)
	}
	return rows, nil
}

type fd struct{ l, r string }

// ccFD aliases the cc package's FD type for compact literals above.
type ccFD = cc.FD

// indSet wraps a projection CC into a singleton set.
func indSet(name string, left, right *query.Query) (*cc.Set, error) {
	c, err := cc.New(name, left, right)
	if err != nil {
		return nil, err
	}
	return cc.NewSet(c), nil
}
