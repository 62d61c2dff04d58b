// Command rcheck decides relative information completeness problems
// described by a JSON document (see internal/probjson for the format).
//
// Usage:
//
//	rcheck -problem <name> [-model strong|weak|viable] [-explain] file.json
//	rcheck -problem consistency file.json
//	rcheck -problem rcdp -json file.json        # machine-readable verdict + stats
//	rcheck -problem rcdp -trace file.json       # decision trace of the search tree
//	cat file.json | rcheck -problem rcdp -model weak -
//
// Problems: consistency, extensibility, rcdp, rcqp, minp, certain
// (certain answers), models (list ModAdom members).
//
// Observability: every run decides under one root span, whose
// recorder keeps the last 256 finished spans, and keeps latency/size
// histograms. -trace streams the decision events on those spans to
// stdout; -metrics-out <file> dumps the final counters and histograms
// in Prometheus text exposition format ("-" for stdout); -slowlog
// <dur> dumps the slow call's span tree and the histogram snapshot to
// stderr whenever one decider call exceeds the duration; -trace-out
// <file> writes the finished span tree as JSONL, one span per line,
// through the async export pipeline.
//
// Deadlines: -timeout <dur> bounds the whole decision with a context
// deadline. An expired deadline exits 3 and, with -json, reports the
// interrupted operation, elapsed time and progress snapshot in the
// "deadline" field — the verdict is unknown, not "no".
//
// Exit codes: 0 success, 3 when -timeout expired, 2 when a search
// budget was exhausted (ErrBudget / ErrInconclusive — the verdict is
// unknown, not "no"), 1 for every other error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"relcomplete/internal/core"
	"relcomplete/internal/obs"
	"relcomplete/internal/probjson"
	"relcomplete/internal/relation"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rcheck:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode distinguishes "the deadline expired" (3) and "the search
// ran out of budget" (2) — both mean the verdict is unknown, retry
// with more time or larger caps — from genuine failures (1). The
// deadline check comes first: a cancelled search may trip a budget on
// the way out, and the deadline is the root cause.
func exitCode(err error) int {
	if errors.Is(err, core.ErrDeadline) {
		return 3
	}
	if errors.Is(err, core.ErrBudget) || errors.Is(err, core.ErrInconclusive) {
		return 2
	}
	return 1
}

// result is the single JSON object -json prints: the verdict (absent
// on error), any problem-specific payload, and the solver stats.
type result struct {
	Problem        string        `json:"problem"`
	Model          string        `json:"model,omitempty"`
	Verdict        *bool         `json:"verdict,omitempty"`
	Counterexample string        `json:"counterexample,omitempty"`
	CertainAnswers []string      `json:"certain_answers,omitempty"`
	Models         []string      `json:"models,omitempty"`
	Error          string        `json:"error,omitempty"`
	Budget         *capInfo      `json:"budget,omitempty"`
	Deadline       *deadlineInfo `json:"deadline,omitempty"`
	Stats          obs.Stats     `json:"stats"`
}

// capInfo mirrors core.BudgetError for the JSON output.
type capInfo struct {
	Op       string `json:"op"`
	Cap      string `json:"cap"`
	Limit    int64  `json:"limit"`
	Consumed int64  `json:"consumed"`
}

// deadlineInfo mirrors core.DeadlineError for the JSON output.
type deadlineInfo struct {
	Op                   string `json:"op"`
	Elapsed              string `json:"elapsed"`
	Partial              string `json:"partial,omitempty"`
	ModelsChecked        int64  `json:"models_checked"`
	ModelsAdmitted       int64  `json:"models_admitted"`
	ModelsPruned         int64  `json:"models_pruned"`
	ValuationsEnumerated int64  `json:"valuations_enumerated"`
	ExtensionsTested     int64  `json:"extensions_tested"`
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rcheck", flag.ContinueOnError)
	problem := fs.String("problem", "rcdp", "consistency | extensibility | rcdp | rcqp | minp | certain | models")
	model := fs.String("model", "strong", "completeness model: strong | weak | viable")
	explain := fs.Bool("explain", false, "print a counterexample when RCDP fails")
	jsonOut := fs.Bool("json", false, "print one JSON object (verdict + solver stats) instead of text")
	trace := fs.Bool("trace", false, "stream the decision trace (candidate models, CC violations, counterexamples)")
	maxModels := fs.Int("max-models", 10, "cap for -problem models")
	workers := fs.Int("workers", 0, "worker count for the parallel searches (0 = keep the document's options.parallelism, or GOMAXPROCS; -trace defaults to 1)")
	metricsOut := fs.String("metrics-out", "", "write the final metrics in Prometheus text format to this file (- for stdout)")
	traceOut := fs.String("trace-out", "", "write the decision's finished span tree to this file as JSONL (one span per line)")
	slowlog := fs.Duration("slowlog", 0, "dump the slow call's span tree and the histograms to stderr when a decider call exceeds this duration (0 disables)")
	timeout := fs.Duration("timeout", 0, "abort the decision after this duration (exit 3; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one input file (or - for stdin)")
	}
	var data []byte
	var err error
	if fs.Arg(0) == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		return err
	}
	p, ci, err := probjson.Decode(data)
	if err != nil {
		return err
	}
	if *workers != 0 {
		p.Options.Parallelism = *workers
	}
	m, err := parseModel(*model)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The whole decision runs under one root span. Its recorder is the
	// flight recorder -slowlog dumps from, streams the decision events
	// under -trace, and is exported to -trace-out: the same JSONL shape
	// rcserved -trace-export produces, so one jq recipe reads both.
	rec := obs.NewSpanRecorder(0)
	if *trace {
		rec.StreamEvents(stdout)
		if *workers == 0 && p.Options.Parallelism == 0 {
			// A sequential search keeps the trace's tree shape intact;
			// -workers overrides for tracing parallel schedules.
			p.Options.Parallelism = 1
		}
	}
	root := rec.Root("rcheck "+*problem, "")
	ctx = obs.ContextWithSpan(ctx, root)
	var exporter *obs.SpanExporter
	if *traceOut != "" {
		sink, err := obs.OpenJSONLFile(*traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		exporter = obs.NewSpanExporter(sink, obs.ExporterConfig{})
	}
	defer func() {
		root.End()
		exporter.Enqueue(rec.Spans())
		if cerr := exporter.Close(); cerr != nil {
			fmt.Fprintln(stderr, "rcheck: trace-out:", cerr)
		}
	}()

	metrics := obs.NewMetrics()
	p.Options.Obs = metrics
	relation.SetMetrics(metrics) // index counters live behind a process-global hook

	if *slowlog > 0 {
		p.Options.SlowOpThreshold = *slowlog
		p.Options.SlowOpSink = stderr
	}
	if *metricsOut != "" {
		// Deferred so a budget error still leaves a scrape-able dump.
		defer func() {
			if werr := writeMetrics(*metricsOut, metrics, stdout); werr != nil {
				fmt.Fprintln(stderr, "rcheck: metrics-out:", werr)
			}
		}()
	}

	res := result{Problem: *problem, Model: *model}
	report := func(question string, answer bool) {
		res.Verdict = &answer
		if *jsonOut {
			return
		}
		verdict := "NO"
		if answer {
			verdict = "YES"
		}
		fmt.Fprintf(stdout, "%s: %s\n", question, verdict)
	}

	emit := func(runErr error) error {
		if runErr != nil {
			runErr = describe(runErr)
		}
		if !*jsonOut {
			return runErr
		}
		if runErr != nil {
			res.Error = runErr.Error()
			var be *core.BudgetError
			if errors.As(runErr, &be) {
				res.Budget = &capInfo{Op: be.Op, Cap: be.Cap, Limit: be.Limit, Consumed: be.Consumed}
			}
			var de *core.DeadlineError
			if errors.As(runErr, &de) {
				res.Deadline = &deadlineInfo{
					Op:                   de.Op,
					Elapsed:              de.Elapsed.String(),
					Partial:              de.Partial,
					ModelsChecked:        de.Progress.ModelsChecked,
					ModelsAdmitted:       de.Progress.ModelsAdmitted,
					ModelsPruned:         de.Progress.ModelsPruned,
					ValuationsEnumerated: de.Progress.ValuationsEnumerated,
					ExtensionsTested:     de.Progress.ExtensionsTested,
				}
			}
		}
		res.Stats = metrics.Snapshot()
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
		return runErr
	}

	switch *problem {
	case "consistency":
		res.Model = ""
		ok, err := p.ConsistentCtx(ctx, ci)
		if err != nil {
			return emit(err)
		}
		report("Mod(T, Dm, V) non-empty", ok)
	case "extensibility":
		res.Model = ""
		db, err := p.AnyModelCtx(ctx, ci)
		if err != nil {
			return emit(err)
		}
		if db == nil {
			return emit(core.ErrInconsistent)
		}
		ok, err := p.ExtensibleCtx(ctx, db)
		if err != nil {
			return emit(err)
		}
		report("Ext(I, Dm, V) non-empty (on one model of T)", ok)
	case "rcdp":
		ok, cex, err := p.RCDPExplainCtx(ctx, ci, m)
		if err != nil {
			return emit(err)
		}
		report(fmt.Sprintf("T ∈ RCQ%s(Q, Dm, V)", modelSuffix(m)), ok)
		if !ok && cex != nil {
			res.Counterexample = cex.String()
			if *explain && !*jsonOut {
				fmt.Fprintf(stdout, "counterexample: %s\n", cex)
			}
		}
	case "rcqp":
		ok, err := p.RCQPCtx(ctx, m)
		if err != nil {
			return emit(err)
		}
		report(fmt.Sprintf("RCQ%s(Q, Dm, V) non-empty", modelSuffix(m)), ok)
	case "minp":
		ok, err := p.MINPCtx(ctx, ci, m)
		if err != nil {
			return emit(err)
		}
		report(fmt.Sprintf("T minimal in RCQ%s(Q, Dm, V)", modelSuffix(m)), ok)
	case "certain":
		res.Model = ""
		ans, err := p.CertainAnswersCtx(ctx, ci)
		if err != nil {
			return emit(err)
		}
		res.CertainAnswers = []string{}
		for _, t := range ans {
			res.CertainAnswers = append(res.CertainAnswers, t.String())
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "certain answers (%d):\n", len(ans))
			for _, t := range ans {
				fmt.Fprintf(stdout, "  %s\n", t)
			}
		}
	case "models":
		res.Model = ""
		models, err := p.ModelsCtx(ctx, ci, *maxModels)
		if err != nil {
			return emit(err)
		}
		res.Models = []string{}
		for _, db := range models {
			res.Models = append(res.Models, db.String())
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "models (showing up to %d):\n", *maxModels)
			for _, db := range models {
				fmt.Fprintf(stdout, "  %s\n", db)
			}
		}
	default:
		return fmt.Errorf("unknown problem %q", *problem)
	}
	return emit(nil)
}

// writeMetrics renders m's Prometheus text exposition to path
// ("-" meaning stdout).
func writeMetrics(path string, m *obs.Metrics, stdout io.Writer) error {
	if path == "-" {
		return m.WritePrometheus(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseModel(s string) (core.Model, error) {
	switch s {
	case "strong":
		return core.Strong, nil
	case "weak":
		return core.Weak, nil
	case "viable":
		return core.Viable, nil
	}
	return 0, fmt.Errorf("unknown model %q", s)
}

func modelSuffix(m core.Model) string {
	switch m {
	case core.Strong:
		return "s"
	case core.Weak:
		return "w"
	default:
		return "v"
	}
}

// describe annotates the sentinel errors with actionable context.
func describe(err error) error {
	var be *core.BudgetError
	switch {
	case errors.Is(err, core.ErrUndecidable):
		return fmt.Errorf("%w\n(the paper's Table I proves this cell undecidable; restrict the query language)", err)
	case errors.Is(err, core.ErrOpen):
		return fmt.Errorf("%w\n(the paper leaves this cell open)", err)
	case errors.Is(err, core.ErrDeadline):
		return fmt.Errorf("%w\n(the -timeout deadline expired; the verdict is unknown — raise -timeout)", err)
	case errors.Is(err, core.ErrInconsistent):
		return fmt.Errorf("%w\n(run -problem consistency to inspect)", err)
	case errors.As(err, &be) && errors.Is(err, core.ErrInconclusive):
		return fmt.Errorf("%w\n(raise options.rcqp_size_bound in the input document; consumed %d candidates)", err, be.Consumed)
	case errors.Is(err, core.ErrInconclusive):
		return fmt.Errorf("%w\n(raise options.rcqp_size_bound in the input document)", err)
	case errors.As(err, &be):
		return fmt.Errorf("%w\n(raise the %s option in the input document)", err, be.Cap)
	}
	return err
}
