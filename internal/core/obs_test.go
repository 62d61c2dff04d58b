package core

import (
	"errors"
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

// TestObsNilMetricsSafe runs a decider with no Obs/Trace attached —
// the nil receivers must be inert, not panic.
func TestObsNilMetricsSafe(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	if s.p.Options.Obs != nil || s.p.Options.Trace != nil {
		t.Fatal("scenario should start uninstrumented")
	}
	if _, err := s.p.RCDP(s.withVar("x"), Viable); err != nil {
		t.Fatal(err)
	}
}

// TestObsTraceEvents checks the decision trace of a failing strong
// RCDP run: it must record the decide/verdict bracket, the admitted
// model, and the counterexample extension.
func TestObsTraceEvents(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	sink := &obs.CollectSink{}
	s.p.Options.Trace = obs.NewTracer(sink)
	s.p.Options.Parallelism = 1
	ok, cex, err := s.p.RCDPExplain(s.ground("1"), Strong)
	if err != nil {
		t.Fatal(err)
	}
	if ok || cex == nil {
		t.Fatalf("ok=%v cex=%v, want failing run with counterexample", ok, cex)
	}
	kinds := sink.Kinds()
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
	sink := &obs.CollectSink{}
	s.p.Options.Trace = obs.NewTracer(sink)
	s.p.Options.Parallelism = 1
	// {(2)} forces a candidate model outside the master bound → pruned.
	ok, err := s.p.Consistent(s.ground("2"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("{(2)} with master {1} should be inconsistent")
	}
	var pruned, violation bool
	for _, k := range sink.Kinds() {
		switch k {
		case "model_pruned":
			pruned = true
		case "cc_violation":
			violation = true
		}
	}
	if !pruned || !violation {
		t.Errorf("kinds = %v, want model_pruned and cc_violation", sink.Kinds())
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

// TestObsFlightRecorderAndSlowOp runs a decider with the always-on
// flight recorder and a threshold of 1ns: the call must trip the
// slow-op log, and the dump must carry the ring's retained events.
func TestObsFlightRecorderAndSlowOp(t *testing.T) {
	s := newBoundedScenario(t, "1", "2")
	m := obs.NewMetrics()
	ring := obs.NewRingSink(32)
	var slow strings.Builder
	s.p.Options.Obs = m
	s.p.Options.Trace = obs.NewFlightTracer(ring)
	s.p.Options.FlightRecorder = ring
	s.p.Options.SlowOpThreshold = time.Nanosecond
	s.p.Options.SlowOpSink = &slow
	s.p.Options.Parallelism = 1

	if _, err := s.p.RCDP(s.ground("1"), Strong); err != nil {
		t.Fatal(err)
	}
	if ring.Len() == 0 {
		t.Fatal("flight recorder retained no events")
	}
	dump := slow.String()
	if !strings.Contains(dump, "=== SLOW OP op=rcdp_strong") ||
		!strings.Contains(dump, "=== END SLOW OP op=rcdp_strong ===") {
		t.Fatalf("slow-op markers missing:\n%s", dump)
	}
	if !strings.Contains(dump, "flight recorder:") || !strings.Contains(dump, "decide") {
		t.Fatalf("slow-op dump missing ring events:\n%s", dump)
	}
	if !strings.Contains(dump, "decider_wall_seconds") {
		t.Fatalf("slow-op dump missing histogram snapshot:\n%s", dump)
	}
}

// TestObsFlightTracerSkipsDiagnosis: the non-verbose flight tracer
// must record prune events but skip the per-constraint cc_violation
// re-derivation that only verbose tracers pay for.
func TestObsFlightTracerSkipsDiagnosis(t *testing.T) {
	s := newBoundedScenario(t, "1")
	sink := &obs.CollectSink{}
	s.p.Options.Trace = obs.NewFlightTracer(sink)
	s.p.Options.Parallelism = 1
	ok, err := s.p.Consistent(s.ground("2"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("{(2)} with master {1} should be inconsistent")
	}
	var pruned, violation bool
	for _, k := range sink.Kinds() {
		switch k {
		case "model_pruned":
			pruned = true
		case "cc_violation":
			violation = true
		}
	}
	if !pruned {
		t.Errorf("flight tracer missed model_pruned: %v", sink.Kinds())
	}
	if violation {
		t.Errorf("flight tracer paid for cc_violation diagnosis: %v", sink.Kinds())
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
