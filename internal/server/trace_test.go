package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"relcomplete/internal/httpx"
	"relcomplete/internal/obs"

	"log/slog"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the slog handler and the
// slow-op sink write from request goroutines while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls cond until it holds or the deadline lapses (the access
// log line is written after the handler returns, so it can trail the
// client's view of the response by a scheduler beat).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// logLines decodes every JSON log line with the given msg value.
func logLines(t *testing.T, raw, msg string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(raw, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] == msg {
			out = append(out, rec)
		}
	}
	return out
}

// The end-to-end correlation contract of DESIGN §5.9: one decide with a
// client-supplied traceparent, and the same trace id must surface in
// the JSON access log, the decision log, the /debug/requests record,
// the ?trace=1 response body and the slow-op dump.
func TestTraceCorrelationEndToEnd(t *testing.T) {
	const (
		clientTP = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
		wantID   = "4bf92f3577b34da6a3ce929d0e0e4736"
	)
	var logs, slowops syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logs, nil))
	s := New(Config{
		Logger:          logger,
		SlowOpThreshold: time.Nanosecond, // every decider call "slow"
		SlowOpSink:      &slowops,
	})
	ts := httptest.NewServer(httpx.AccessLog(logger, s))
	defer ts.Close()

	putOrders(t, ts.URL, "orders")
	slowops.mu.Lock()
	slowops.b.Reset() // drop dumps from the PUT's validation decide, if any
	slowops.mu.Unlock()

	body, _ := json.Marshal(DecideRequest{Property: "rcdp", Model: "strong"})
	req, err := http.NewRequest(http.MethodPost,
		ts.URL+"/v1/problems/orders/decide?trace=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", clientTP)
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var dr DecideResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("decide status = %d", httpResp.StatusCode)
	}

	// 0. The response itself: echoed traceparent header and trace_id.
	if tp := httpResp.Header.Get("traceparent"); !strings.Contains(tp, wantID) {
		t.Errorf("response traceparent = %q, want trace %s", tp, wantID)
	}
	if dr.TraceID != wantID {
		t.Errorf("response trace_id = %q, want %s", dr.TraceID, wantID)
	}

	// 1. The ?trace=1 span tree: same trace, with the decider phase span.
	if dr.Trace == nil || dr.Trace.TraceID != wantID {
		t.Fatalf("trace block = %+v, want trace %s", dr.Trace, wantID)
	}
	var sawPhase bool
	for _, sp := range dr.Trace.Spans {
		if sp.TraceID != wantID {
			t.Errorf("span %s carries trace %s", sp.Name, sp.TraceID)
		}
		if sp.Name == "rcdp_strong" {
			sawPhase = true
			if sp.DurationMS < 0 {
				t.Errorf("phase span has negative duration: %+v", sp)
			}
		}
	}
	if !sawPhase {
		t.Errorf("no rcdp_strong phase span in %+v", dr.Trace.Spans)
	}

	// 2. The decision log line.
	waitFor(t, "decision log line", func() bool {
		return len(logLines(t, logs.String(), "decide")) > 0
	})
	dec := logLines(t, logs.String(), "decide")[0]
	if dec["trace_id"] != wantID {
		t.Errorf("decision log trace_id = %v", dec["trace_id"])
	}
	if dec["problem"] != "orders" || dec["decider"] != "rcdp_strong" {
		t.Errorf("decision log attribution: %v", dec)
	}
	if dec["verdict"] != "false" || dec["outcome"] != "ok" {
		t.Errorf("decision log verdict/outcome: %v", dec)
	}
	if _, ok := dec["wall_ms"].(float64); !ok {
		t.Errorf("decision log wall_ms missing: %v", dec)
	}

	// 3. The access log line for the decide POST.
	waitFor(t, "access log line", func() bool {
		for _, al := range logLines(t, logs.String(), "access") {
			if al["trace_id"] == wantID {
				return true
			}
		}
		return false
	})
	var access map[string]any
	for _, al := range logLines(t, logs.String(), "access") {
		if al["trace_id"] == wantID {
			access = al
		}
	}
	if access["method"] != "POST" || access["path"] != "/v1/problems/orders/decide" {
		t.Errorf("access log line: %v", access)
	}
	if st, _ := access["status"].(float64); int(st) != http.StatusOK {
		t.Errorf("access log status = %v", access["status"])
	}

	// 4. The /debug/requests record.
	var dbg DebugRequestsResponse
	if resp := doJSON(t, http.MethodGet, ts.URL+"/debug/requests", nil, &dbg); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests status = %d", resp.StatusCode)
	}
	if dbg.Total < 1 || len(dbg.Requests) < 1 {
		t.Fatalf("/debug/requests empty: %+v", dbg)
	}
	rec := dbg.Requests[0] // most recent first
	if rec.TraceID != wantID || rec.Problem != "orders" || rec.Decider != "rcdp_strong" {
		t.Errorf("ring record: %+v", rec)
	}
	if rec.Status != http.StatusOK || rec.Verdict == nil || *rec.Verdict {
		t.Errorf("ring record outcome: %+v", rec)
	}
	if len(rec.Spans) == 0 {
		t.Errorf("ring record kept no spans: %+v", rec)
	}

	// 5. The slow-op dump (threshold 1ns: the decide must have tripped it).
	waitFor(t, "slow-op dump", func() bool {
		return strings.Contains(slowops.String(), "=== SLOW OP ")
	})
	dump := slowops.String()
	if !strings.Contains(dump, "trace_id="+wantID) {
		t.Errorf("slow-op dump lost the trace id:\n%s", dump)
	}
	if !strings.Contains(dump, "op=rcdp_strong") {
		t.Errorf("slow-op dump names no rcdp_strong op:\n%s", dump)
	}
	// The request's span recorder is the flight recorder: the dump lists
	// the slow call's own phase span, under the request's trace id.
	if !strings.Contains(dump, "\nspans: ") || !strings.Contains(dump, "\n  rcdp_strong ") {
		t.Errorf("slow-op dump does not list the rcdp_strong span:\n%s", dump)
	}
	if !strings.Contains(dump, " with observations\n") {
		t.Errorf("slow-op dump carries no histograms:\n%s", dump)
	}

	// 6. Per-tenant labelled metrics, through the exposition validator.
	text := s.Metrics().PrometheusText()
	if err := obs.ValidatePrometheusText([]byte(text)); err != nil {
		t.Fatalf("/metrics invalid: %v", err)
	}
	if !strings.Contains(text,
		`relcomplete_server_decides_total{problem="orders",decider="rcdp_strong",outcome="ok"} 1`) {
		t.Errorf("labelled decide counter missing:\n%s", grepLines(text, "server_decides"))
	}
	if !strings.Contains(text, `relcomplete_decider_wall_seconds_count{problem="orders"} 1`) {
		t.Errorf("labelled wall histogram missing:\n%s", grepLines(text, "decider_wall"))
	}
}

// grepLines filters text to lines containing sub, for focused failure
// output.
func grepLines(text, sub string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// A bare Server (no AccessLog middleware) still opens a root span:
// it adopts the client's traceparent and echoes one back.
func TestServerMintsRootSpanWithoutMiddleware(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putOrders(t, ts.URL, "orders")

	const clientTP = "00-aaaabbbbccccddddeeeeffff00001111-1234567812345678-01"
	body, _ := json.Marshal(DecideRequest{Property: "consistency"})
	req, err := http.NewRequest(http.MethodPost,
		ts.URL+"/v1/problems/orders/decide", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", clientTP)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var dr DecideResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dr.TraceID != "aaaabbbbccccddddeeeeffff00001111" {
		t.Errorf("trace_id = %q, client traceparent not adopted", dr.TraceID)
	}
	if tp := resp.Header.Get("traceparent"); !strings.HasPrefix(tp, "00-aaaabbbbccccddddeeeeffff00001111-") {
		t.Errorf("response traceparent = %q", tp)
	}

	// Without a traceparent the server mints a fresh trace.
	resp2, dr2 := decide(t, ts.URL, "orders", DecideRequest{Property: "consistency"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
	if dr2.TraceID == "" || dr2.TraceID == dr.TraceID {
		t.Errorf("minted trace_id = %q (previous %q)", dr2.TraceID, dr.TraceID)
	}
}

// Failed decides are recorded too: the ring and the labelled counter
// attribute errors to the tenant and outcome kind.
func TestTraceRecordsFailures(t *testing.T) {
	var logs syncBuffer
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	ts := httptest.NewServer(s)
	defer ts.Close()
	putOrders(t, ts.URL, "orders")

	resp, dr := decide(t, ts.URL, "orders", DecideRequest{Property: "nonsense"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if dr.TraceID == "" {
		t.Error("error response carries no trace_id")
	}

	var dbg DebugRequestsResponse
	doJSON(t, http.MethodGet, ts.URL+"/debug/requests", nil, &dbg)
	if len(dbg.Requests) == 0 {
		t.Fatal("failed decide not recorded")
	}
	rec := dbg.Requests[0]
	if rec.Kind != KindBadRequest || rec.Status != http.StatusBadRequest || rec.Verdict != nil {
		t.Errorf("failure record: %+v", rec)
	}
	if got := s.decideVec.Get("orders", "nonsense", KindBadRequest); got != 1 {
		t.Errorf("labelled failure counter = %d, want 1", got)
	}

	decs := logLines(t, logs.String(), "decide")
	if len(decs) != 1 || decs[0]["outcome"] != KindBadRequest || decs[0]["verdict"] != "unknown" {
		t.Errorf("decision log for failure: %v", decs)
	}
}

// The request ring caps retention and keeps counting.
func TestRequestRingBounds(t *testing.T) {
	r := NewRequestRing(3)
	for i := 0; i < 5; i++ {
		r.Add(RequestRecord{Status: 200 + i})
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("Len=%d Total=%d", r.Len(), r.Total())
	}
	snap := r.Snapshot()
	if snap[0].Status != 204 || snap[1].Status != 203 || snap[2].Status != 202 {
		t.Errorf("snapshot order: %+v", snap)
	}
	var nilRing *RequestRing
	nilRing.Add(RequestRecord{})
	if nilRing.Len() != 0 || nilRing.Total() != 0 || nilRing.Snapshot() != nil {
		t.Error("nil ring not inert")
	}
}
