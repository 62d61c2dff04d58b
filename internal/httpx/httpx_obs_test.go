package httpx

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"relcomplete/internal/obs"
	"relcomplete/internal/promcheck"
)

// The /metrics route negotiates the OpenMetrics exposition: an Accept
// header or ?format=openmetrics selects it (with exemplars and the
// # EOF terminator), anything else keeps the classic Prometheus text.
func TestMetricsOpenMetricsNegotiation(t *testing.T) {
	m := obs.NewMetrics()
	m.ObserveExemplar(obs.DeciderWallNs, 5e6, "aaaabbbbccccddddaaaabbbbccccdddd")
	s, err := Serve("127.0.0.1:0", NewDebugMux(m))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr().String()

	get := func(url, accept string) (string, string) {
		t.Helper()
		req, err := http.NewRequest("GET", url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get(base+"/metrics", "application/openmetrics-text; version=1.0.0")
	if ctype != obs.ContentTypeOpenMetrics {
		t.Fatalf("Accept negotiation Content-Type = %q", ctype)
	}
	if err := promcheck.ValidateOpenMetricsText([]byte(body)); err != nil {
		t.Fatalf("negotiated OpenMetrics body invalid: %v", err)
	}
	if !strings.Contains(body, `# {trace_id="aaaabbbbccccddddaaaabbbbccccdddd"}`) {
		t.Fatal("OpenMetrics body missing the recorded exemplar")
	}

	body, ctype = get(base+"/metrics?format=openmetrics", "")
	if ctype != obs.ContentTypeOpenMetrics || !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("?format=openmetrics served Content-Type %q", ctype)
	}

	body, ctype = get(base+"/metrics", "")
	if ctype != obs.ContentTypePrometheus {
		t.Fatalf("default Content-Type = %q", ctype)
	}
	if err := promcheck.ValidatePrometheusText([]byte(body)); err != nil {
		t.Fatalf("default body failed the Prometheus grammar: %v", err)
	}
	if strings.Contains(body, "# {") {
		t.Fatal("exemplar syntax leaked into the Prometheus exposition")
	}
}

func TestRegisterPlans(t *testing.T) {
	mux := http.NewServeMux()
	var gotK int
	RegisterPlans(mux, func(k int) any {
		gotK = k
		return []map[string]any{{"query": "Q", "runs": 7}}
	})
	s, err := Serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr().String()

	resp, err := http.Get(base + "/debug/plans")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Plans []struct {
			Query string `json:"query"`
		} `json:"plans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if gotK != 10 {
		t.Fatalf("default k = %d, want 10", gotK)
	}
	if len(out.Plans) != 1 || out.Plans[0].Query != "Q" {
		t.Fatalf("plans payload = %+v", out)
	}

	if resp, err = http.Get(base + "/debug/plans?k=3"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gotK != 3 {
		t.Fatalf("k=3 parsed as %d", gotK)
	}

	if resp, err = http.Get(base + "/debug/plans?k=zero"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k answered %d, want 400", resp.StatusCode)
	}
}

// captureSink retains every exported span for assertions.
type captureSink struct {
	mu    sync.Mutex
	spans []obs.SpanData
}

func (s *captureSink) Export(batch []obs.SpanData) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, batch...)
	return nil
}

func (s *captureSink) Close() error { return nil }

func TestAccessLogExport(t *testing.T) {
	sink := &captureSink{}
	exporter := obs.NewSpanExporter(sink, obs.ExporterConfig{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A handler-side child proves the whole tree is exported, not
		// just the root.
		child := obs.SpanFromContext(r.Context()).StartChild("decide", time.Now())
		child.End()
		w.WriteHeader(http.StatusOK)
	})
	s, err := Serve("127.0.0.1:0", AccessLogExport(nil, exporter, inner))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const parent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, err := http.NewRequest("GET", "http://"+s.Addr().String()+"/v1/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	echoed := resp.Header.Get("traceparent")
	if !strings.Contains(echoed, "0123456789abcdef0123456789abcdef") {
		t.Fatalf("response traceparent %q does not carry the client's trace id", echoed)
	}

	// Close drains the queue, so after it the sink holds the tree.
	if err := exporter.Close(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.spans) != 2 {
		t.Fatalf("exported %d spans, want child + root", len(sink.spans))
	}
	names := map[string]bool{}
	for _, sp := range sink.spans {
		if sp.TraceID != "0123456789abcdef0123456789abcdef" {
			t.Fatalf("span %q exported under trace %q, want the client's", sp.Name, sp.TraceID)
		}
		names[sp.Name] = true
	}
	if !names["decide"] || !names["GET /v1/x"] {
		t.Fatalf("exported span names = %v", names)
	}
}

// AccessLog without an exporter is byte-for-byte the old middleware: a
// nil exporter drops nothing and exports nothing.
func TestAccessLogNilExporter(t *testing.T) {
	h := AccessLogExport(nil, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	s, err := Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr().String() + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent || resp.Header.Get("traceparent") == "" {
		t.Fatalf("status=%d traceparent=%q", resp.StatusCode, resp.Header.Get("traceparent"))
	}
}
