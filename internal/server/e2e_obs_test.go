package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"relcomplete/internal/httpx"
	"relcomplete/internal/obs"
	"relcomplete/internal/promcheck"
)

// The full observability identity contract of one decide: a client
// traceparent must surface, under the same trace id, in (1) the span
// file the export pipeline writes, (2) a histogram exemplar in the
// OpenMetrics exposition, and (3) the pprof label set of the goroutines
// doing the work while the request is in flight.
func TestObsIdentityEndToEnd(t *testing.T) {
	const (
		clientTP = "00-feedfacecafebeeffeedfacecafebeef-00f067aa0ba902b7-01"
		wantID   = "feedfacecafebeeffeedfacecafebeef"
	)

	spanFile := filepath.Join(t.TempDir(), "spans.jsonl")
	sink, err := obs.OpenJSONLFile(spanFile)
	if err != nil {
		t.Fatal(err)
	}
	exporter := obs.NewSpanExporter(sink, obs.ExporterConfig{})

	// Every decider call is "slow", and the slow-op sink holds the
	// decide, still inside its pprof label scope, until the
	// goroutine-profile poller below has seen the trace id (at most
	// 10 s), so the poller cannot miss a short decide.
	seen := make(chan struct{})
	hold := writerFunc(func(p []byte) (int, error) {
		select {
		case <-seen:
		case <-time.After(10 * time.Second):
		}
		return len(p), nil
	})
	metrics := obs.NewMetrics()
	s := New(Config{Metrics: metrics, SlowOpThreshold: time.Nanosecond, SlowOpSink: hold})
	ts := httptest.NewServer(httpx.AccessLogExport(nil, exporter, s))
	defer ts.Close()
	putOrders(t, ts.URL, "orders")

	// Poll the runtime's goroutine profile (debug=1 renders each stack's
	// pprof labels) for the decide's trace id while the request runs.
	stop := make(chan struct{})
	labelLine := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			for _, line := range strings.Split(buf.String(), "\n") {
				if strings.Contains(line, wantID) {
					labelLine <- line
					close(seen)
					return
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	body, _ := json.Marshal(DecideRequest{Property: "rcdp", Model: "strong"})
	req, err := http.NewRequest(http.MethodPost,
		ts.URL+"/v1/problems/orders/decide", bytes.NewReader(body))
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
	close(stop)
	if httpResp.StatusCode != http.StatusOK || dr.TraceID != wantID {
		t.Fatalf("decide status=%d trace_id=%q", httpResp.StatusCode, dr.TraceID)
	}

	// (3) pprof labels: the sampled goroutine must carry the request's
	// full identity — problem, decider and trace id.
	select {
	case line := <-labelLine:
		for _, want := range []string{
			`"problem":"orders"`, `"decider":"rcdp"`, `"trace_id":"` + wantID + `"`,
		} {
			if !strings.Contains(line, want) {
				t.Errorf("goroutine label set %q missing %s", line, want)
			}
		}
	default:
		t.Error("goroutine profile never showed the decide's pprof labels")
	}

	// (1) The exported span file: the middleware enqueues the tree when
	// the root ends, the worker drains it, Close flushes. The PUT's own
	// trace is in the file too — only the decide's spans matter here.
	waitFor(t, "span export", func() bool {
		raw, _ := os.ReadFile(spanFile)
		return bytes.Contains(raw, []byte(wantID))
	})
	if err := exporter.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(spanFile)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var sp obs.SpanData
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("span file line is not JSON: %v\n%s", err, sc.Text())
		}
		if sp.TraceID == wantID {
			names = append(names, sp.Name)
		}
	}
	if len(names) < 2 {
		t.Fatalf("span file holds %d spans of trace %s (%v), want the request tree", len(names), wantID, names)
	}
	if !strings.Contains(strings.Join(names, " "), "POST /v1/problems/orders/decide") {
		t.Errorf("span file %v missing the request root span", names)
	}

	// (2) The histogram exemplar: the decide's wall-time observation
	// attached the trace id to its bucket, and the OpenMetrics
	// exposition renders it — on the plain histogram and the per-tenant
	// labelled series.
	om := metrics.OpenMetricsText()
	if err := promcheck.ValidateOpenMetricsText([]byte(om)); err != nil {
		t.Fatalf("OpenMetrics exposition invalid: %v", err)
	}
	if !strings.Contains(om, `# {trace_id="`+wantID+`"}`) {
		t.Error("OpenMetrics exposition has no exemplar with the request's trace id")
	}
	idx := strings.Index(om, `problem="orders"`)
	if idx < 0 || !strings.Contains(om[idx:], `# {trace_id="`+wantID+`"}`) {
		t.Error("per-tenant wall-time series missing the request's exemplar")
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// /debug/plans serves the sampled plan profiles of resident problems,
// tagged with the tenant name and ranked by estimated wall time.
func TestDebugPlansEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putOrders(t, ts.URL, "orders")
	if resp, _ := decide(t, ts.URL, "orders", DecideRequest{Property: "rcdp", Model: "strong"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide status = %d", resp.StatusCode)
	}

	var out struct {
		Plans []struct {
			Problem   string  `json:"problem"`
			Query     string  `json:"query"`
			Runs      int64   `json:"runs"`
			Sampled   int64   `json:"sampled"`
			EstWallMS float64 `json:"est_wall_ms"`
			Explain   string  `json:"explain"`
		} `json:"plans"`
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/debug/plans", nil, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/plans status = %d", resp.StatusCode)
	}
	if len(out.Plans) == 0 {
		t.Fatal("no plan profiles after a decide")
	}
	top := out.Plans[0]
	if top.Problem != "orders" {
		t.Errorf("top plan attributed to %q, want orders", top.Problem)
	}
	if top.Runs < 1 || top.Sampled < 1 {
		t.Errorf("top plan runs=%d sampled=%d, want the first run sampled", top.Runs, top.Sampled)
	}
	if !strings.Contains(top.Explain, "execs=") {
		t.Errorf("plan explain missing node stats:\n%s", top.Explain)
	}
	for i := 1; i < len(out.Plans); i++ {
		if out.Plans[i].EstWallMS > out.Plans[i-1].EstWallMS {
			t.Errorf("plans not ranked by est_wall_ms: %v before %v",
				out.Plans[i-1].EstWallMS, out.Plans[i].EstWallMS)
		}
	}

	// Bounded and validated k.
	if resp := doJSON(t, http.MethodGet, ts.URL+"/debug/plans?k=1", nil, &out); resp.StatusCode != http.StatusOK || len(out.Plans) > 1 {
		t.Fatalf("/debug/plans?k=1 status=%d plans=%d", resp.StatusCode, len(out.Plans))
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/debug/plans?k=bad", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k answered %d, want 400", resp.StatusCode)
	}
}
