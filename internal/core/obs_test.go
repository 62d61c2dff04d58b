package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"relcomplete/internal/obs"
)

// TestObsCountersRCDP checks that a strong RCDP run populates the
// solver counters and phase timings through Options.Obs.
func TestObsCountersRCDP(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	m := obs.NewMetrics()
	s.p.Options.Obs = m
	ok, err := s.p.RCDP(s.ground("1"), Strong)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("{(1)} is not strongly complete")
	}
	st := m.Snapshot()
	for _, c := range []string{
		"valuations_enumerated", "models_checked", "models_admitted",
		"cc_checks", "extensions_tested", "counterexamples_found",
	} {
		if st.Counters[c] == 0 {
			t.Errorf("counter %s = 0, want > 0 (%v)", c, st.Counters)
		}
	}
	found := false
	for _, ph := range st.Phases {
		if ph.Name == "rcdp_strong" && ph.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("phase rcdp_strong missing: %v", st.Phases)
	}
}

// TestObsNilMetricsSafe runs a decider with no Obs attached and no
// span on its context — the nil receivers must be inert, not panic.
func TestObsNilMetricsSafe(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	if s.p.Options.Obs != nil {
		t.Fatal("scenario should start uninstrumented")
	}
	if _, err := s.p.RCDP(s.withVar("x"), Viable); err != nil {
		t.Fatal(err)
	}
}

// streamingCtx returns a context whose root span's recorder streams
// the decision events to buf.
func streamingCtx(buf *strings.Builder) context.Context {
	root := obs.NewSpanRecorder(0).StreamEvents(buf).Root("test", "")
	return obs.ContextWithSpan(context.Background(), root)
}

// streamedKinds returns the kind of each streamed event line.
func streamedKinds(out string) []string {
	var kinds []string
	for _, line := range strings.Split(out, "\n") {
		if _, rest, ok := strings.Cut(line, "] "); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kinds = append(kinds, f[0])
			}
		}
	}
	return kinds
}

// TestObsTraceEvents checks the decision trace of a failing strong
// RCDP run: it must record the decide/verdict bracket, the admitted
// model, and the counterexample extension.
func TestObsTraceEvents(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	var buf strings.Builder
	s.p.Options.Parallelism = 1
	ok, cex, err := s.p.RCDPExplainCtx(streamingCtx(&buf), s.ground("1"), Strong)
	if err != nil {
		t.Fatal(err)
	}
	if ok || cex == nil {
		t.Fatalf("ok=%v cex=%v, want failing run with counterexample", ok, cex)
	}
	kinds := streamedKinds(buf.String())
	has := func(k string) bool {
		for _, got := range kinds {
			if got == k {
				return true
			}
		}
		return false
	}
	for _, k := range []string{"decide", "model", "counterexample", "verdict"} {
		if !has(k) {
			t.Errorf("trace missing %q event: %v", k, kinds)
		}
	}
}

// TestObsTraceCCViolation checks that pruned models name the violated
// constraint in the trace.
func TestObsTraceCCViolation(t *testing.T) {
	s := newBoundedScenario(t, "1") // master admits only (1)
	var buf strings.Builder
	s.p.Options.Parallelism = 1
	// {(2)} forces a candidate model outside the master bound → pruned.
	ok, err := s.p.ConsistentCtx(streamingCtx(&buf), s.ground("2"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("{(2)} with master {1} should be inconsistent")
	}
	var pruned, violation bool
	for _, k := range streamedKinds(buf.String()) {
		switch k {
		case "model_pruned":
			pruned = true
		case "cc_violation":
			violation = true
		}
	}
	if !pruned || !violation {
		t.Errorf("kinds = %v, want model_pruned and cc_violation", streamedKinds(buf.String()))
	}
}

// TestObsHistogramsRCDP checks that the decider span feeds the
// distribution layer: one RCDP call must land in the decider wall-time
// histogram and the per-call admitted/pruned histograms.
func TestObsHistogramsRCDP(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	m := obs.NewMetrics()
	s.p.Options.Obs = m
	if _, err := s.p.RCDP(s.ground("1"), Strong); err != nil {
		t.Fatal(err)
	}
	if got := m.HistoCount(obs.DeciderWallNs); got == 0 {
		t.Error("decider wall-time histogram empty")
	}
	if got := m.HistoCount(obs.ModelsAdmittedPerCall); got == 0 {
		t.Error("models-admitted-per-call histogram empty")
	}
	if m.HistoCount(obs.ModelsAdmittedPerCall) != m.HistoCount(obs.ModelsPrunedPerCall) {
		t.Error("admitted and pruned per-call histograms should record together")
	}
}

// TestObsFlightRecorderAndSlowOp runs a decider under a root span
// whose recorder has no writer — the flight recorder — with a slow-op
// threshold of 1ns: the call must trip the slow-op log, and the dump
// must list the call's own phase span under the trace's id.
func TestObsFlightRecorderAndSlowOp(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	m := obs.NewMetrics()
	rec := obs.NewSpanRecorder(32)
	root := rec.Root("request", "")
	var slow strings.Builder
	s.p.Options.Obs = m
	s.p.Options.SlowOpThreshold = time.Nanosecond
	s.p.Options.SlowOpSink = &slow
	s.p.Options.Parallelism = 1

	if _, err := s.p.RCDPCtx(obs.ContextWithSpan(context.Background(), root), s.ground("1"), Strong); err != nil {
		t.Fatal(err)
	}
	if spans := rec.Spans(); len(spans) == 0 || spans[len(spans)-1].Name != "rcdp_strong" {
		t.Fatalf("flight recorder did not keep the rcdp_strong span last: %+v", spans)
	}
	dump := slow.String()
	if !strings.Contains(dump, "=== SLOW OP op=rcdp_strong") ||
		!strings.Contains(dump, "=== END SLOW OP op=rcdp_strong ===") {
		t.Fatalf("slow-op markers missing:\n%s", dump)
	}
	if !strings.Contains(dump, " trace_id="+root.Trace().String()+" ===") {
		t.Fatalf("slow-op dump lost the trace id:\n%s", dump)
	}
	if !strings.Contains(dump, "\nspans: ") || !strings.Contains(dump, "\n  rcdp_strong ") ||
		!strings.Contains(dump, " models_checked=") {
		t.Fatalf("slow-op dump does not list the call's span:\n%s", dump)
	}
	if !strings.Contains(dump, "decider_wall_seconds") {
		t.Fatalf("slow-op dump missing histogram snapshot:\n%s", dump)
	}
}

// TestSlowOpElapsedIsSpanDuration: the call bracket hands its two clock
// readings to the call's span, so the slow-op dump's header, the call's
// recorded span and the span line of the dump report one duration.
func TestSlowOpElapsedIsSpanDuration(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	rec := obs.NewSpanRecorder(32)
	root := rec.Root("request", "")
	var slow strings.Builder
	s.p.Options.SlowOpThreshold = time.Nanosecond
	s.p.Options.SlowOpSink = &slow
	s.p.Options.Parallelism = 1
	if _, err := s.p.RCDPCtx(obs.ContextWithSpan(context.Background(), root), s.ground("1"), Strong); err != nil {
		t.Fatal(err)
	}
	dump := slow.String()
	_, rest, ok := strings.Cut(dump, "=== SLOW OP op=rcdp_strong elapsed=")
	field, _, _ := strings.Cut(rest, " ")
	elapsed, err := time.ParseDuration(field)
	if !ok || err != nil {
		t.Fatalf("no rcdp_strong header elapsed in the dump (%v):\n%s", err, dump)
	}
	ms := float64(elapsed.Nanoseconds()) / 1e6
	var spanMS float64
	for _, d := range rec.Spans() {
		if d.Name == "rcdp_strong" {
			spanMS = d.DurationMS
		}
	}
	if spanMS != ms {
		t.Errorf("rcdp_strong span lasted %v ms, the dump header says %v (%v ms)", spanMS, elapsed, ms)
	}
	if line := fmt.Sprintf("\n  rcdp_strong %.3fms", ms); !strings.Contains(dump, line) {
		t.Errorf("dump lacks the span line %q for its header's elapsed=%v:\n%s", line, elapsed, dump)
	}
}

// TestObsFlightTracerSkipsDiagnosis: a decide under a recorder with no
// writer streams nothing, so it skips the per-constraint cc_violation
// re-derivation that only a streaming decide pays for — its counters
// read as an untraced decide's, while the streaming decide's re-checks
// show in the plan counters.
func TestObsFlightTracerSkipsDiagnosis(t *testing.T) {
	decide := func(ctx context.Context) map[string]int64 {
		s := newBoundedScenario(t, "1")
		m := obs.NewMetrics()
		s.p.Options.Obs = m
		s.p.Options.Parallelism = 1
		ok, err := s.p.ConsistentCtx(ctx, s.ground("2"))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("{(2)} with master {1} should be inconsistent")
		}
		return m.Snapshot().Counters
	}
	untraced := decide(context.Background())
	flight := decide(obs.ContextWithSpan(context.Background(), obs.NewSpanRecorder(0).Root("flight", "")))
	var buf strings.Builder
	streamed := decide(streamingCtx(&buf))
	if !reflect.DeepEqual(flight, untraced) {
		t.Errorf("flight-recorded counters %v, want the untraced %v", flight, untraced)
	}
	if streamed["plan_runs"] <= untraced["plan_runs"] {
		t.Errorf("streamed plan_runs %d, want more than the untraced %d (the diagnosis)",
			streamed["plan_runs"], untraced["plan_runs"])
	}
}

// TestBudgetErrorDetail checks the BudgetError chain: errors.Is keeps
// matching the sentinel, errors.As surfaces the cap detail.
func TestBudgetErrorDetail(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	s.p.Options.MaxValuations = 1
	m := obs.NewMetrics()
	s.p.Options.Obs = m
	_, err := s.p.RCDP(s.withVar("x", "y"), Strong)
	if err == nil {
		t.Fatal("expected a budget error under MaxValuations=1")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("errors.Is(err, ErrBudget) = false for %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("errors.As BudgetError = false for %v", err)
	}
	if be.Cap != "MaxValuations" || be.Limit != 1 || be.Op == "" {
		t.Fatalf("BudgetError = %+v", be)
	}
	if m.Snapshot().Counters["budget_errors"] == 0 {
		t.Error("budget_errors counter not incremented")
	}
}

// TestBudgetErrorsCountOncePerDecide: budget_errors counts aborted
// decides, not cap hits. A parallel strong RCDP whose every admitted
// model runs into the cap in its bounded check (the lattice exceeds
// the budget, and failed enumerations are not memoised) hits the cap
// once per probe, and the enumeration hits it too; the decide returns
// one BudgetError and counts one.
func TestBudgetErrorsCountOncePerDecide(t *testing.T) {
	multi := false
	for attempt := 0; attempt < 20 && !multi; attempt++ {
		s := newBoundedScenario(t, "1", "2", "3", "4", "5", "6")
		m := obs.NewMetrics()
		s.p.Options.Obs = m
		s.p.Options.MaxValuations = 4
		s.p.Options.Parallelism = 4
		_, err := s.p.RCDP(s.withVar("x"), Strong)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want a budget error", err)
		}
		st := m.Snapshot().Counters
		if st["budget_errors"] != 1 {
			t.Fatalf("budget_errors = %d after one aborted decide (models admitted %d)",
				st["budget_errors"], st["models_admitted"])
		}
		// Every admitted model's probe hit the cap.
		multi = st["models_admitted"] >= 2
	}
	if !multi {
		t.Fatal("no run had two probes hit the cap: the test checks nothing")
	}
}
