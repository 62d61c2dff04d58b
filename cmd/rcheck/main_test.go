package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relcomplete/internal/core"
	"relcomplete/internal/obs"
)

const sampleDoc = `{
  "schema": {"relations": [
    {"name": "Order", "attrs": [{"name": "item"}, {"name": "qty"}]}]},
  "master": {
    "relations": [{"name": "Catalog", "attrs": [{"name": "item"}]}],
    "rows": {"Catalog": [["widget"]]}},
  "ccs": [{"name": "item_bound",
           "left":  "q(i) := Order(i, q)",
           "right": "p(i) := Catalog(i)"}],
  "query": {"calc": "Q(q) := Order('widget', q)"},
  "cinstance": {"rows": [
    {"rel": "Order", "terms": ["widget", "5"]}]}
}`

func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "problem.json")
	if err := os.WriteFile(path, []byte(sampleDoc), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCheck(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, _, err := runCheck2(t, args...)
	return out, err
}

// runCheck2 additionally returns what the command wrote to stderr
// (the slow-op log's destination).
func runCheck2(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errOut strings.Builder
	err := run(args, strings.NewReader(""), &out, &errOut)
	return out.String(), errOut.String(), err
}

func TestRCheckConsistency(t *testing.T) {
	out, err := runCheck(t, "-problem", "consistency", writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "YES") {
		t.Fatalf("output = %q", out)
	}
}

func TestRCheckRCDPModels(t *testing.T) {
	path := writeSample(t)
	out, err := runCheck(t, "-problem", "rcdp", "-model", "weak", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "RCQw") {
		t.Fatalf("output = %q", out)
	}
	// Strong: open-world quantities, incomplete; -explain shows why.
	out, err = runCheck(t, "-problem", "rcdp", "-model", "strong", "-explain", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NO") || !strings.Contains(out, "counterexample") {
		t.Fatalf("output = %q", out)
	}
}

func TestRCheckCertainAndModels(t *testing.T) {
	path := writeSample(t)
	out, err := runCheck(t, "-problem", "certain", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(5)") {
		t.Fatalf("output = %q", out)
	}
	out, err = runCheck(t, "-problem", "models", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Order{") {
		t.Fatalf("output = %q", out)
	}
}

func TestRCheckExtensibility(t *testing.T) {
	out, err := runCheck(t, "-problem", "extensibility", writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "YES") { // quantities open-world
		t.Fatalf("output = %q", out)
	}
}

func TestRCheckStdinAndErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-problem", "consistency", "-"},
		strings.NewReader(sampleDoc), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if _, err := runCheck(t, "-problem", "nope", writeSample(t)); err == nil {
		t.Fatal("unknown problem should fail")
	}
	if _, err := runCheck(t, "-model", "nope", writeSample(t)); err == nil {
		t.Fatal("unknown model should fail")
	}
	if _, err := runCheck(t); err == nil {
		t.Fatal("missing file should fail")
	}
	if _, err := runCheck(t, "/does/not/exist.json"); err == nil {
		t.Fatal("unreadable file should fail")
	}
}

func TestRCheckUndecidableIsDescribed(t *testing.T) {
	doc := strings.Replace(sampleDoc,
		`"calc": "Q(q) := Order('widget', q)"`,
		`"calc": "Q(q) := ! Order('widget', q)"`, 1)
	path := filepath.Join(t.TempDir(), "fo.json")
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := runCheck(t, "-problem", "rcdp", path)
	if err == nil || !strings.Contains(err.Error(), "undecidable") {
		t.Fatalf("err = %v", err)
	}
}

func TestRCheckMINPAndRCQP(t *testing.T) {
	path := writeSample(t)
	out, err := runCheck(t, "-problem", "minp", "-model", "weak", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "minimal") {
		t.Fatalf("output = %q", out)
	}
	// RCQP weak is trivially YES for CQ.
	out, err = runCheck(t, "-problem", "rcqp", "-model", "weak", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "YES") {
		t.Fatalf("output = %q", out)
	}
}

func TestRCheckInconsistentInstance(t *testing.T) {
	doc := strings.Replace(sampleDoc, `"terms": ["widget", "5"]`, `"terms": ["unknown-item", "5"]`, 1)
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := runCheck(t, "-problem", "rcdp", "-model", "weak", path)
	if err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("err = %v", err)
	}
	// Extensibility on an inconsistent instance is also refused.
	if _, err := runCheck(t, "-problem", "extensibility", path); err == nil {
		t.Fatal("extensibility on inconsistent instance should fail")
	}
}

func TestRCheckJSONOutput(t *testing.T) {
	path := writeSample(t)
	out, err := runCheck(t, "-problem", "rcdp", "-model", "strong", "-json", path)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("output is not one JSON object: %v\n%s", err, out)
	}
	if res.Problem != "rcdp" || res.Model != "strong" {
		t.Fatalf("res = %+v", res)
	}
	if res.Verdict == nil || *res.Verdict {
		t.Fatalf("verdict = %v, want false", res.Verdict)
	}
	if res.Counterexample == "" {
		t.Fatal("counterexample missing from JSON output")
	}
	if res.Stats.Counters["models_checked"] == 0 {
		t.Fatalf("stats missing models_checked: %v", res.Stats.Counters)
	}
	if res.Stats.Counters["cc_checks"] == 0 {
		t.Fatalf("stats missing cc_checks: %v", res.Stats.Counters)
	}
	if len(res.Stats.Phases) == 0 {
		t.Fatal("stats missing phase timings")
	}
	// The JSON object must round-trip.
	re, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var res2 result
	if err := json.Unmarshal(re, &res2); err != nil {
		t.Fatal(err)
	}
	if *res2.Verdict != *res.Verdict || res2.Stats.Counters["models_checked"] != res.Stats.Counters["models_checked"] {
		t.Fatalf("round trip changed the result: %+v vs %+v", res, res2)
	}
}

func TestRCheckTrace(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "orders_rcdp.json")
	out, err := runCheck(t, "-problem", "rcdp", "-model", "strong", "-trace", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"decide", "model", "counterexample", "extension=", "gained=", "verdict"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "NO") {
		t.Errorf("verdict line missing:\n%s", out)
	}
}

func TestRCheckBudgetExitCode(t *testing.T) {
	doc := strings.Replace(sampleDoc, `"cinstance"`,
		`"options": {"max_valuations": 1}, "cinstance"`, 1)
	doc = strings.Replace(doc, `["widget", "5"]`, `["widget", "?q"]`, 1)
	path := filepath.Join(t.TempDir(), "budget.json")
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := runCheck(t, "-problem", "rcdp", "-model", "strong", path)
	if err == nil {
		t.Fatal("expected a budget error")
	}
	if got := exitCode(err); got != 2 {
		t.Fatalf("exitCode(%v) = %d, want 2", err, got)
	}
	var be *core.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err %v does not carry a BudgetError", err)
	}
	if be.Cap != "MaxValuations" || be.Limit != 1 {
		t.Fatalf("BudgetError = %+v", be)
	}
	// -json still emits the object (with the error embedded).
	out, jerr := runCheck(t, "-problem", "rcdp", "-model", "strong", "-json", path)
	if jerr == nil {
		t.Fatal("expected a budget error with -json too")
	}
	var res result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("JSON error output invalid: %v\n%s", err, out)
	}
	if res.Error == "" || res.Budget == nil || res.Budget.Cap != "MaxValuations" {
		t.Fatalf("res = %+v", res)
	}
}

// reachDoc is the reach program over three edges, with a fixpoint cap
// of one derived fact.
const reachDoc = `{
  "schema": {"relations": [{"name": "E", "attrs": [{"name": "a"}, {"name": "b"}]}]},
  "master": {"relations": [], "rows": {}},
  "ccs": [],
  "query": {"fp": "reach(x, y) :- E(x, y). reach(x, z) :- reach(x, y), E(y, z). output reach."},
  "options": {"max_derived": 1},
  "cinstance": {"rows": [
    {"rel": "E", "terms": ["1", "2"]}, {"rel": "E", "terms": ["2", "3"]}, {"rel": "E", "terms": ["3", "4"]}]}
}`

// TestRCheckExitCodeMapping: both budget sentinels exit 2, other errors
// exit 1, and a fixpoint past max_derived is a budget failure like any
// other cap: its certain answers exit 2, and -json reports the cap.
func TestRCheckExitCodeMapping(t *testing.T) {
	if got := exitCode(core.ErrBudget); got != 2 {
		t.Fatalf("exitCode(ErrBudget) = %d", got)
	}
	if got := exitCode(core.ErrInconclusive); got != 2 {
		t.Fatalf("exitCode(ErrInconclusive) = %d", got)
	}
	if got := exitCode(core.ErrUndecidable); got != 1 {
		t.Fatalf("exitCode(ErrUndecidable) = %d", got)
	}
	path := filepath.Join(t.TempDir(), "reach.json")
	if err := os.WriteFile(path, []byte(reachDoc), 0o600); err != nil {
		t.Fatal(err)
	}
	out, err := runCheck(t, "-problem", "certain", "-json", path)
	if got := exitCode(err); err == nil || got != 2 {
		t.Fatalf("exitCode(%v) = %d, want 2", err, got)
	}
	var res result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("JSON error output invalid: %v\n%s", err, out)
	}
	if res.Budget == nil || res.Budget.Cap != "MaxDerived" {
		t.Fatalf("budget = %+v, want cap MaxDerived", res.Budget)
	}
}

// TestRCheckMetricsOut dumps the final metrics in Prometheus text
// format and validates them against the in-repo exposition grammar.
func TestRCheckMetricsOut(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "metrics.prom")
	if _, err := runCheck(t, "-problem", "rcdp", "-metrics-out", mpath, writeSample(t)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheusText(data); err != nil {
		t.Fatalf("metrics-out fails the exposition grammar: %v\n%s", err, data)
	}
	for _, want := range []string{
		"relcomplete_models_checked_total",
		`relcomplete_decider_wall_seconds_bucket{le="+Inf"} 1`,
		`relcomplete_phase_calls_total{phase="rcdp_strong"} 1`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics-out missing %q", want)
		}
	}

	// "-" writes the exposition to stdout after the verdict.
	out, err := runCheck(t, "-problem", "rcdp", "-metrics-out", "-", writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "relcomplete_models_checked_total") {
		t.Fatalf("stdout exposition missing:\n%s", out)
	}
}

// TestRCheckMetricsOutOnBudgetError: the deferred dump must still fire
// when the run dies on a budget error, so the failed run is scrapeable.
func TestRCheckMetricsOutOnBudgetError(t *testing.T) {
	doc := strings.Replace(sampleDoc, `"cinstance"`,
		`"options": {"max_valuations": 1}, "cinstance"`, 1)
	doc = strings.Replace(doc, `["widget", "5"]`, `["widget", "?q"]`, 1)
	path := filepath.Join(t.TempDir(), "budget.json")
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(t.TempDir(), "metrics.prom")
	if _, err := runCheck(t, "-problem", "rcdp", "-metrics-out", mpath, path); err == nil {
		t.Fatal("expected a budget error")
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheusText(data); err != nil {
		t.Fatalf("metrics after budget error invalid: %v", err)
	}
	if !strings.Contains(string(data), "relcomplete_budget_errors_total 1") {
		t.Fatalf("budget error not visible in the exposition:\n%s", data)
	}
}

// TestRCheckSlowlog exercises the slow-op path on the orders example
// with a 1ns threshold: every decider call is "slow", so the stderr
// stream must carry the dump even though -trace is off, listing the
// call's own rcdp_strong span under the run's trace id (the one
// -trace-out exports).
func TestRCheckSlowlog(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "orders_rcdp.json")
	traceFile := filepath.Join(t.TempDir(), "spans.jsonl")
	out, errOut, err := runCheck2(t, "-problem", "rcdp", "-model", "strong", "-slowlog", "1ns", "-trace-out", traceFile, path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NO") {
		t.Fatalf("verdict missing:\n%s", out)
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var sp obs.SpanData
	if err := json.Unmarshal([]byte(strings.SplitN(string(raw), "\n", 2)[0]), &sp); err != nil || sp.TraceID == "" {
		t.Fatalf("no exported span to take the trace id from: %v\n%s", err, raw)
	}
	for _, want := range []string{
		"=== SLOW OP op=rcdp_strong",
		"threshold=1ns trace_id=" + sp.TraceID + " ===",
		"\nspans: ",
		"\n  rcdp_strong ",
		"histograms:",
		"decider_wall_seconds",
		"=== END SLOW OP op=rcdp_strong ===",
	} {
		if !strings.Contains(errOut, want) {
			t.Errorf("slow-op dump missing %q:\n%s", want, errOut)
		}
	}
	if strings.Contains(out, "=== SLOW OP") {
		t.Error("slow-op dump leaked to stdout")
	}
}

func TestRCheckTimeoutExpired(t *testing.T) {
	// A 1ns deadline has fired before the decider starts: deterministic
	// deadline error, exit code 3, "deadline" detail in -json.
	path := writeSample(t)
	out, err := runCheck(t, "-problem", "rcdp", "-model", "weak", "-timeout", "1ns", "-json", path)
	if err == nil {
		t.Fatal("want a deadline error, got nil")
	}
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if got := exitCode(err); got != 3 {
		t.Fatalf("exit code = %d, want 3", got)
	}
	var res result
	if jerr := json.Unmarshal([]byte(out), &res); jerr != nil {
		t.Fatalf("bad JSON: %v\n%s", jerr, out)
	}
	if res.Deadline == nil {
		t.Fatalf("no deadline detail in %s", out)
	}
	if res.Deadline.Op == "" || res.Deadline.Elapsed == "" {
		t.Fatalf("incomplete deadline detail: %+v", res.Deadline)
	}
	if res.Verdict != nil {
		t.Fatalf("verdict must be absent on deadline, got %v", *res.Verdict)
	}
}

func TestRCheckTimeoutGenerous(t *testing.T) {
	// A generous deadline changes nothing: same verdict, no deadline
	// detail, exit path clean.
	path := writeSample(t)
	out, err := runCheck(t, "-problem", "rcdp", "-model", "weak", "-timeout", "1h", "-json", path)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if jerr := json.Unmarshal([]byte(out), &res); jerr != nil {
		t.Fatalf("bad JSON: %v\n%s", jerr, out)
	}
	if res.Deadline != nil {
		t.Fatalf("unexpected deadline detail: %+v", res.Deadline)
	}
	if res.Verdict == nil || !*res.Verdict {
		t.Fatalf("want verdict true, got %v", res.Verdict)
	}
}

func TestRCheckTraceOut(t *testing.T) {
	path := writeSample(t)
	traceFile := filepath.Join(t.TempDir(), "spans.jsonl")
	out, err := runCheck(t, "-problem", "rcdp", "-model", "weak", "-trace-out", traceFile, path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "YES") {
		t.Fatalf("output = %q", out)
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("trace-out wrote no file: %v", err)
	}
	var spans []obs.SpanData
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var sp obs.SpanData
		if jerr := json.Unmarshal([]byte(line), &sp); jerr != nil {
			t.Fatalf("trace-out line is not a JSON span: %v\n%s", jerr, line)
		}
		spans = append(spans, sp)
	}
	if len(spans) < 2 {
		t.Fatalf("trace-out holds %d spans, want the root plus decider phases", len(spans))
	}
	// One trace throughout, ending with the root span.
	trace := spans[0].TraceID
	if trace == "" {
		t.Fatal("exported span has no trace id")
	}
	var names []string
	for _, sp := range spans {
		if sp.TraceID != trace {
			t.Fatalf("span %q carries trace %q, want %q", sp.Name, sp.TraceID, trace)
		}
		names = append(names, sp.Name)
	}
	if names[len(names)-1] != "rcheck rcdp" {
		t.Fatalf("last exported span = %q, want the root 'rcheck rcdp' (all names: %v)", names[len(names)-1], names)
	}
}
