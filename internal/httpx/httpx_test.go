package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"relcomplete/internal/obs"
	"relcomplete/internal/promcheck"
)

// The debug mux end to end: /metrics must pass the in-repo Prometheus
// grammar check, /debug/vars must expose the published snapshot as
// encoding/json writes it, and /debug/pprof/ must answer.
func TestDebugMux(t *testing.T) {
	m := obs.NewMetrics()
	m.Inc(obs.ModelsChecked)
	PublishSnapshot("httpx_test_solver", m)
	s, err := Serve("127.0.0.1:0", NewDebugMux(m))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr().String()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.ContentTypePrometheus {
		t.Fatalf("Content-Type = %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := promcheck.ValidatePrometheusText(body); err != nil {
		t.Fatalf("/metrics failed the exposition grammar: %v", err)
	}
	if !strings.Contains(string(body), "relcomplete_models_checked_total") {
		t.Fatalf("/metrics missing counter family:\n%s", body)
	}

	respV, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	err = json.NewDecoder(respV.Body).Decode(&vars)
	respV.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := vars["httpx_test_solver"]
	if !ok {
		t.Fatalf("published snapshot missing from expvar: %v", vars)
	}
	if want, _ := json.Marshal(m.Snapshot()); string(got) != string(want) {
		t.Fatalf("published snapshot %s, want encoding/json's %s", got, want)
	}

	respP, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	respP.Body.Close()
	if respP.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", respP.StatusCode)
	}
}

// A second bind on a taken address must fail eagerly.
func TestBindFailure(t *testing.T) {
	s, err := Serve("127.0.0.1:0", http.NewServeMux())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Serve(s.Addr().String(), http.NewServeMux()); err == nil {
		t.Fatal("bind on a taken address should succeed for exactly one server")
	}
}

// Close must be idempotent: a double (and concurrent) shutdown shares
// one result, and the listener answers nothing afterwards.
func TestDoubleShutdown(t *testing.T) {
	s, err := Serve("127.0.0.1:0", http.NewServeMux())
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Close #%d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/"); err == nil {
		t.Fatal("server still answering after Close")
	}
}

// Drain must let an in-flight request finish, and report the context
// error when the deadline cuts one short.
func TestDrainWaitsForInflight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	s, err := Serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr().String() + "/slow")
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- string(body)
	}()
	<-entered
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain with room to finish: %v", err)
	}
	if body := <-got; body != "done" {
		t.Fatalf("in-flight request cut short: %q", body)
	}
}

func TestDrainDeadlineExpired(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	entered := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	s, err := Serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	go http.Get("http://" + s.Addr().String() + "/stuck")
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain past its deadline should report the context error")
	}
}

func TestPublishSnapshotIdempotent(t *testing.T) {
	m := obs.NewMetrics()
	PublishSnapshot("httpx_test_dup", m)
	PublishSnapshot("httpx_test_dup", m) // must not panic
}

// AccessLog: root-span management (traceparent adoption and echo), the
// status/byte capture, and the JSON access-log line itself.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), nil))

	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if obs.SpanFromContext(r.Context()) == nil {
			t.Error("no span on the handler context")
		}
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "short and stout")
	})
	srv, err := Serve("127.0.0.1:0", AccessLog(logger, inner))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req, _ := http.NewRequest(http.MethodGet, "http://"+srv.Addr().String()+"/brew", nil)
	req.Header.Set("traceparent", tp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("traceparent"); !strings.HasPrefix(got, "00-0af7651916cd43dd8448eb211c80319c-") {
		t.Errorf("response traceparent = %q, client trace not adopted", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	var rec map[string]any
	for {
		mu.Lock()
		raw := buf.String()
		mu.Unlock()
		if line := strings.TrimSpace(raw); line != "" {
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("access line not JSON: %v (%q)", err, line)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no access log line")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rec["msg"] != "access" || rec["trace_id"] != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("access line: %v", rec)
	}
	if rec["method"] != "GET" || rec["path"] != "/brew" {
		t.Errorf("access line: %v", rec)
	}
	if st, _ := rec["status"].(float64); int(st) != http.StatusTeapot {
		t.Errorf("status = %v", rec["status"])
	}
	if n, _ := rec["bytes"].(float64); int(n) != len("short and stout") {
		t.Errorf("bytes = %v", rec["bytes"])
	}
	if _, ok := rec["duration_ms"].(float64); !ok {
		t.Errorf("duration_ms missing: %v", rec)
	}
}

// A nil logger keeps the tracing (traceparent echo) without logging;
// a handler that never calls WriteHeader logs status 200.
func TestAccessLogNilLogger(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	srv, err := Serve("127.0.0.1:0", AccessLog(nil, inner))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if tp := resp.Header.Get("traceparent"); len(tp) != 55 {
		t.Errorf("traceparent = %q, want a minted 55-char header", tp)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
