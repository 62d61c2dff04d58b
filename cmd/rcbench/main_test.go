package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"relcomplete/internal/obs"
	"relcomplete/internal/promcheck"
)

// The experiment driver end to end on the fastest experiments: every
// executed row must carry an OK (or not-applicable) oracle column.
func TestRunQuickFiltered(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-run", "E-T1-CONS"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "E-T1-CONS") {
		t.Fatalf("missing experiment header:\n%s", s)
	}
	if strings.Contains(s, "FAIL") || strings.Contains(s, "ERROR") {
		t.Fatalf("experiment failed:\n%s", s)
	}
	if !strings.Contains(s, "oracle=OK") {
		t.Fatalf("no oracle-checked rows:\n%s", s)
	}
	// The filter must exclude everything else.
	if strings.Contains(s, "E-T1-MINP") {
		t.Fatalf("filter leaked other experiments:\n%s", s)
	}
}

func TestRunUndecidableExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "E-T1-UNDEC"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"RCDPs(FO)", "RCQPs(FP)", "refused"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	if strings.Contains(s, "FAIL") {
		t.Fatalf("refusal check failed:\n%s", s)
	}
}

func TestRunProp31Experiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "E-P31"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "oracle=OK") {
		t.Fatalf("Prop 3.1 rows missing:\n%s", out.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatal("unknown flag should fail")
	}
}

func TestHelpers(t *testing.T) {
	if boolStr(true) != "yes" || boolStr(false) != "no" {
		t.Fatal("boolStr wrong")
	}
	if agreeStr(true, true) != "OK" || agreeStr(true, false) != "FAIL" {
		t.Fatal("agreeStr wrong")
	}
}

// TestServeDebug hits the opt-in introspection endpoint: /debug/vars
// must expose the solver counters as JSON, /metrics must pass the
// in-repo Prometheus grammar check, /debug/pprof/ must answer, and
// Close must shut the server down for good.
func TestServeDebug(t *testing.T) {
	ds, err := serveDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ds.Addr().String()
	benchMetrics.Inc(obs.ModelsChecked)
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Solver struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"solver"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Solver.Counters["models_checked"] == 0 {
		t.Fatalf("solver counters missing from expvar: %+v", vars)
	}

	respM, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if got := respM.Header.Get("Content-Type"); got != obs.ContentTypePrometheus {
		t.Fatalf("Content-Type = %q", got)
	}
	body, err := io.ReadAll(respM.Body)
	respM.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := promcheck.ValidatePrometheusText(body); err != nil {
		t.Fatalf("/metrics failed the exposition grammar: %v", err)
	}
	if !strings.Contains(string(body), "relcomplete_models_checked_total") {
		t.Fatalf("/metrics missing counter family:\n%s", body)
	}

	resp2, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp2.StatusCode)
	}

	if err := ds.Close(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still answering after Close")
	}
}

// TestServeDebugBindFailure covers the error path: a second bind on an
// already-taken address must fail the run rather than silently serve
// nothing.
func TestServeDebugBindFailure(t *testing.T) {
	ds, err := serveDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := serveDebug(ds.Addr().String()); err == nil {
		t.Fatal("bind on a taken address should fail")
	}
	var out strings.Builder
	if err := run([]string{"-quick", "-run", "E-F1", "-http", ds.Addr().String()}, &out); err == nil {
		t.Fatal("run with an unbindable -http address should fail")
	}
}

// TestRunTraceAndStats drives a quick filtered sweep with tracing and
// the counter dump enabled.
func TestRunTraceAndStats(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-run", "E-F1", "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "solver counters:") || !strings.Contains(s, "models_checked") {
		t.Fatalf("counter dump missing:\n%s", s)
	}
	if !strings.Contains(s, "phase rcdp_strong") {
		t.Fatalf("phase timings missing:\n%s", s)
	}
}

func TestRunTimeoutExpired(t *testing.T) {
	// A 1ns sweep deadline has fired before the first decider call; the
	// experiment reports the deadline error and the driver keeps going.
	var out strings.Builder
	if err := run([]string{"-quick", "-run", "E-T1-CONS", "-timeout", "1ns"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "ERROR") || !strings.Contains(s, "deadline") {
		t.Fatalf("want a deadline error row:\n%s", s)
	}
}
