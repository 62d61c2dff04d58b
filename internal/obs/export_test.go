package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memSink is an in-memory SpanSink with a programmable failure budget:
// the first failN Export calls error, later ones succeed.
type memSink struct {
	mu     sync.Mutex
	spans  []SpanData
	calls  int
	failN  int
	closed bool
}

func (s *memSink) Export(batch []SpanData) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.calls <= s.failN {
		return errors.New("transient sink failure")
	}
	s.spans = append(s.spans, batch...)
	return nil
}

func (s *memSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *memSink) snapshot() []SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpanData, len(s.spans))
	copy(out, s.spans)
	return out
}

// blockingSink parks every Export on a channel so tests can wedge the
// worker and fill the queue deterministically.
type blockingSink struct {
	release chan struct{}
	entered chan struct{}
}

func (s *blockingSink) Export(batch []SpanData) error {
	s.entered <- struct{}{}
	<-s.release
	return nil
}

func (s *blockingSink) Close() error { return nil }

func batchOf(n int, trace string) []SpanData {
	out := make([]SpanData, n)
	for i := range out {
		out[i] = SpanData{TraceID: trace, SpanID: fmt.Sprintf("%016x", i+1), Name: "op"}
	}
	return out
}

func TestExporterCloseFlushes(t *testing.T) {
	sink := &memSink{}
	e := NewSpanExporter(sink, ExporterConfig{QueueSize: 8})
	for i := 0; i < 5; i++ {
		if !e.Enqueue(batchOf(2, "aa")) {
			t.Fatalf("Enqueue %d rejected with a free queue", i)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := len(sink.snapshot()); got != 10 {
		t.Fatalf("exported %d spans, want 10", got)
	}
	if e.Exported() != 10 || e.Enqueued() != 10 || e.Dropped() != 0 {
		t.Fatalf("counters exported=%d enqueued=%d dropped=%d, want 10/10/0",
			e.Exported(), e.Enqueued(), e.Dropped())
	}
	if !sink.closed {
		t.Fatal("Close did not close the sink")
	}
	// Idempotent close, and enqueues after close are counted drops.
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if e.Enqueue(batchOf(3, "bb")) {
		t.Fatal("Enqueue accepted after Close")
	}
	if e.Dropped() != 3 {
		t.Fatalf("post-close Dropped = %d, want 3", e.Dropped())
	}
}

func TestExporterBackpressureNeverBlocks(t *testing.T) {
	sink := &blockingSink{release: make(chan struct{}), entered: make(chan struct{}, 16)}
	e := NewSpanExporter(sink, ExporterConfig{QueueSize: 2})

	// First batch is taken by the worker and parks inside Export; two
	// more fill the queue.
	if !e.Enqueue(batchOf(1, "aa")) {
		t.Fatal("first Enqueue rejected")
	}
	<-sink.entered
	for i := 0; i < 2; i++ {
		if !e.Enqueue(batchOf(1, "aa")) {
			t.Fatalf("Enqueue %d rejected with queue space left", i)
		}
	}

	// The queue is full and the worker is wedged: Enqueue must return
	// false promptly instead of waiting for the sink.
	done := make(chan bool, 1)
	go func() { done <- e.Enqueue(batchOf(4, "bb")) }()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Enqueue accepted a batch past the queue bound")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Enqueue blocked on a full queue")
	}
	if e.Dropped() != 4 {
		t.Fatalf("Dropped = %d, want 4 (the rejected batch)", e.Dropped())
	}

	close(sink.release)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if e.Exported() != 3 {
		t.Fatalf("Exported = %d, want the 3 accepted spans", e.Exported())
	}
}

func TestExporterRetryBackoff(t *testing.T) {
	sink := &memSink{failN: 2}
	e := NewSpanExporter(sink, ExporterConfig{MaxRetries: 3, RetryBackoff: 10 * time.Millisecond})
	var mu sync.Mutex
	var slept []time.Duration
	e.sleep = func(d time.Duration) {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
	}
	e.Enqueue(batchOf(1, "aa"))
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if e.Exported() != 1 || e.Dropped() != 0 {
		t.Fatalf("exported=%d dropped=%d, want 1/0", e.Exported(), e.Dropped())
	}
	if e.Retried() != 2 {
		t.Fatalf("Retried = %d, want 2", e.Retried())
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("backoff sleeps = %v, want doubling %v", slept, want)
	}
}

func TestExporterDropsAfterRetryBudget(t *testing.T) {
	sink := &memSink{failN: 1 << 30}
	e := NewSpanExporter(sink, ExporterConfig{MaxRetries: 2, RetryBackoff: time.Nanosecond})
	e.sleep = func(time.Duration) {}
	e.Enqueue(batchOf(5, "aa"))
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if e.Exported() != 0 {
		t.Fatalf("Exported = %d from an always-failing sink", e.Exported())
	}
	if e.Dropped() != 5 {
		t.Fatalf("Dropped = %d, want the whole batch (5)", e.Dropped())
	}
	if e.Retried() != 2 {
		t.Fatalf("Retried = %d, want the retry budget (2)", e.Retried())
	}
}

func TestExporterNilIsInert(t *testing.T) {
	var e *SpanExporter
	if e.Enqueue(batchOf(1, "aa")) {
		t.Fatal("nil exporter accepted a batch")
	}
	if e.Enqueued() != 0 || e.Exported() != 0 || e.Dropped() != 0 || e.Retried() != 0 {
		t.Fatal("nil exporter reported nonzero counters")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestExporterConcurrentEnqueue(t *testing.T) {
	sink := &memSink{}
	e := NewSpanExporter(sink, ExporterConfig{QueueSize: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e.Enqueue(batchOf(1, "aa"))
			}
		}()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Every span is accounted for exactly once: exported or dropped.
	if e.Exported()+e.Dropped() != 400 {
		t.Fatalf("exported %d + dropped %d != 400 enqueue attempts", e.Exported(), e.Dropped())
	}
	if int64(len(sink.snapshot())) != e.Exported() {
		t.Fatalf("sink holds %d spans, exporter counted %d", len(sink.snapshot()), e.Exported())
	}
}

func TestJSONLSinkShape(t *testing.T) {
	var buf strings.Builder
	rec := NewSpanRecorder(0)
	root := rec.Root("GET /v1/decide", "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	child := root.StartChild("decide", time.Now())
	child.SetAttr("problem", "orders")
	child.End()
	root.End()

	e := NewSpanExporter(NewJSONLSink(&buf), ExporterConfig{})
	e.Enqueue(rec.Spans())
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	var lines []SpanData
	for sc.Scan() {
		var d SpanData
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %d is not a JSON span: %v\n%s", len(lines)+1, err, sc.Text())
		}
		lines = append(lines, d)
	}
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2 (child, root)", len(lines))
	}
	for _, d := range lines {
		if d.TraceID != "0123456789abcdef0123456789abcdef" {
			t.Fatalf("span %q exported trace %q, want the client's traceparent id", d.Name, d.TraceID)
		}
	}
	if lines[0].Name != "decide" || lines[0].Attrs["problem"] != "orders" {
		t.Fatalf("child span exported as %+v", lines[0])
	}
	if lines[1].ParentID != "" && lines[1].ParentID != "00f067aa0ba902b7" {
		t.Fatalf("root parent = %q, want the remote parent", lines[1].ParentID)
	}
}

func TestOTLPSinkPostsAndRetriesNon2xx(t *testing.T) {
	var calls atomic.Int64
	var gotBody atomic.Pointer[[]byte]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		body := make([]byte, r.ContentLength)
		r.Body.Read(body)
		gotBody.Store(&body)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	e := NewSpanExporter(NewOTLPSink(srv.URL, "rcserved", srv.Client()), ExporterConfig{RetryBackoff: time.Nanosecond})
	e.sleep = func(time.Duration) {}
	batch := batchOf(2, "0123456789abcdef0123456789abcdef")
	batch[0].Status = "ok"
	batch[1].Status = "deadline"
	e.Enqueue(batch)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if e.Exported() != 2 || e.Retried() != 1 {
		t.Fatalf("exported=%d retried=%d, want 2 spans after one 503 retry", e.Exported(), e.Retried())
	}

	var payload struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID string `json:"traceId"`
					Status  *struct {
						Code int `json:"code"`
					} `json:"status"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(*gotBody.Load(), &payload); err != nil {
		t.Fatalf("POSTed body is not OTLP JSON: %v", err)
	}
	if len(payload.ResourceSpans) != 1 {
		t.Fatalf("resourceSpans = %d, want 1", len(payload.ResourceSpans))
	}
	rs := payload.ResourceSpans[0]
	if rs.Resource.Attributes[0].Key != "service.name" || rs.Resource.Attributes[0].Value.StringValue != "rcserved" {
		t.Fatalf("resource attributes = %+v, want service.name=rcserved", rs.Resource.Attributes)
	}
	spans := rs.ScopeSpans[0].Spans
	if len(spans) != 2 || spans[0].TraceID != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("exported spans = %+v", spans)
	}
	if spans[0].Status.Code != 1 || spans[1].Status.Code != 2 {
		t.Fatalf("status codes = %d,%d, want ok=1 error=2", spans[0].Status.Code, spans[1].Status.Code)
	}
}

// TestExporterEnqueueRacesClose races Enqueue against Close: a batch
// that arrives while the exporter closes must be dropped and counted,
// never sent on the closed queue. rcserved meets this race when a
// drain deadline cuts a request short and the exporter closes before
// that request's access log enqueues its spans.
func TestExporterEnqueueRacesClose(t *testing.T) {
	const goroutines, batches = 8, 200
	iterations := 2000
	if testing.Short() {
		iterations = 200
	}
	batch := batchOf(1, "aa")
	for it := 0; it < iterations; it++ {
		e := NewSpanExporter(&memSink{}, ExporterConfig{})
		var start, wg sync.WaitGroup
		start.Add(1)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				for i := 0; i < batches; i++ {
					e.Enqueue(batch)
				}
			}()
		}
		start.Done()
		if err := e.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
		if got := e.Exported() + e.Dropped(); got != goroutines*batches {
			t.Fatalf("exported %d + dropped %d = %d, want %d enqueue attempts",
				e.Exported(), e.Dropped(), got, goroutines*batches)
		}
	}
}
