package obs

// This file is the span export pipeline: finished request traces leave
// the process through an asynchronous, bounded SpanExporter instead of
// dying in the SpanRecorder ring. The design constraint is the same one
// the rest of the package lives under — the decide hot path must never
// block on telemetry. Enqueue is a non-blocking channel send: when the
// queue is full the batch is dropped and counted, never waited on. One
// background goroutine drains the queue into a SpanSink, retrying
// transient sink failures with exponential backoff before counting the
// batch as dropped.
//
// Two sinks cover the operational cases: JSONLSink writes one span per
// line (rcheck -trace-out, rcserved -trace-export <file>), and
// OTLPSink POSTs OTLP/HTTP-shaped JSON trace batches to a collector
// endpoint (rcserved -trace-export http://collector:4318/v1/traces).
//
// A nil *SpanExporter is fully inert, matching the package invariant:
// instrumented code enqueues unconditionally and pays one pointer test
// when exporting is off.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// SpanSink receives exported span batches. Export is called from the
// exporter's single worker goroutine, so sinks need no internal
// synchronisation against the exporter itself (only against other
// writers they may share an io.Writer with). An error return is treated
// as transient and retried; a batch still failing after the retry
// budget is dropped and counted.
type SpanSink interface {
	Export(batch []SpanData) error
	Close() error
}

// ExporterConfig tunes a SpanExporter. The zero value takes the
// documented defaults.
type ExporterConfig struct {
	// QueueSize bounds the number of in-flight batches (default 64).
	// Enqueue past the bound drops the batch and increments Dropped.
	QueueSize int
	// MaxRetries is how many times a failed Export is retried before
	// the batch is dropped (default 3).
	MaxRetries int
	// RetryBackoff is the initial retry delay, doubled per attempt
	// (default 50ms).
	RetryBackoff time.Duration
}

func (c *ExporterConfig) fill() {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
}

// SpanExporter drains span batches to a sink on a background goroutine.
// All methods are safe for concurrent use; a nil *SpanExporter is
// inert.
type SpanExporter struct {
	sink    SpanSink
	queue   chan []SpanData
	done    chan struct{} // closed when the worker exits
	retries int
	backoff time.Duration

	// mu makes Enqueue's closed check and send atomic with Close's
	// close(queue): Enqueue holds it shared, Close exclusively.
	mu        sync.RWMutex
	closed    bool
	closeOnce sync.Once

	enqueued atomic.Int64
	exported atomic.Int64
	dropped  atomic.Int64
	retried  atomic.Int64

	// sleep is swapped by tests to avoid real backoff waits.
	sleep func(time.Duration)
}

// NewSpanExporter starts the exporter's worker goroutine. Call Close to
// flush and stop it.
func NewSpanExporter(sink SpanSink, cfg ExporterConfig) *SpanExporter {
	cfg.fill()
	e := &SpanExporter{
		sink:    sink,
		queue:   make(chan []SpanData, cfg.QueueSize),
		done:    make(chan struct{}),
		retries: cfg.MaxRetries,
		backoff: cfg.RetryBackoff,
		sleep:   time.Sleep,
	}
	go e.run()
	return e
}

// Enqueue hands a batch of finished spans to the exporter without
// blocking: a full queue (or a closed exporter) drops the batch,
// increments Dropped and returns false. The exporter takes ownership of
// the slice; callers must not mutate it afterwards (SpanRecorder.Spans
// already returns a fresh copy). Empty batches are ignored. No-op
// (returning false) on a nil receiver.
func (e *SpanExporter) Enqueue(batch []SpanData) bool {
	if e == nil || len(batch) == 0 {
		return false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if !e.closed {
		select {
		case e.queue <- batch:
			e.enqueued.Add(int64(len(batch)))
			return true
		default:
		}
	}
	e.dropped.Add(int64(len(batch)))
	return false
}

// Enqueued returns how many spans were accepted into the queue.
func (e *SpanExporter) Enqueued() int64 {
	if e == nil {
		return 0
	}
	return e.enqueued.Load()
}

// Exported returns how many spans the sink accepted.
func (e *SpanExporter) Exported() int64 {
	if e == nil {
		return 0
	}
	return e.exported.Load()
}

// Dropped returns how many spans were discarded: queue-full drops plus
// batches abandoned after the retry budget.
func (e *SpanExporter) Dropped() int64 {
	if e == nil {
		return 0
	}
	return e.dropped.Load()
}

// Retried returns how many Export retry attempts were made.
func (e *SpanExporter) Retried() int64 {
	if e == nil {
		return 0
	}
	return e.retried.Load()
}

// run is the worker loop: it drains the queue until Close.
func (e *SpanExporter) run() {
	defer close(e.done)
	for batch := range e.queue {
		e.export(batch)
	}
}

// export pushes one batch through the sink with retry/backoff; a batch
// still failing after the budget is counted dropped.
func (e *SpanExporter) export(batch []SpanData) {
	err := e.sink.Export(batch)
	for attempt := 0; err != nil && attempt < e.retries; attempt++ {
		e.retried.Add(1)
		e.sleep(e.backoff << attempt)
		err = e.sink.Export(batch)
	}
	if err != nil {
		e.dropped.Add(int64(len(batch)))
		return
	}
	e.exported.Add(int64(len(batch)))
}

// Close stops accepting new batches, drains the already-queued ones,
// and closes the sink. Idempotent; no-op on a nil receiver.
func (e *SpanExporter) Close() error {
	if e == nil {
		return nil
	}
	var err error
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		close(e.queue)
		e.mu.Unlock()
		<-e.done
		err = e.sink.Close()
	})
	return err
}

// ---------------------------------------------------------------------------
// JSONL sink.
// ---------------------------------------------------------------------------

// JSONLSink writes each exported span as one JSON object per line — the
// grep/jq-friendly shape used by rcheck -trace-out and rcserved
// -trace-export when given a file path.
type JSONLSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewJSONLSink wraps w. Close closes w when it is an io.Closer.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// OpenJSONLFile creates (truncating) a JSONL sink on path.
func OpenJSONLFile(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewJSONLSink(f), nil
}

// Export writes the batch, one span per line.
func (s *JSONLSink) Export(batch []SpanData) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range batch {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.w.Write(buf.Bytes())
	return err
}

// Close closes the underlying writer when it supports it.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// OTLP/HTTP sink.
// ---------------------------------------------------------------------------

// OTLPSink POSTs span batches as OTLP/HTTP JSON (the
// opentelemetry-collector's /v1/traces shape) so exported traces land
// in any OTLP-compatible backend without a client library. Only the
// fields the span model carries are emitted; ids are the W3C hex forms
// OTLP JSON expects.
type OTLPSink struct {
	url     string
	service string
	client  *http.Client
}

// NewOTLPSink builds a sink POSTing to url (e.g.
// http://collector:4318/v1/traces), attributing spans to the named
// service. A nil client uses a 5s-timeout default.
func NewOTLPSink(url, service string, client *http.Client) *OTLPSink {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	return &OTLPSink{url: url, service: service, client: client}
}

// otlp* mirror the OTLP JSON wire shape, local to this file: the
// exporter speaks the protocol, it does not adopt its object model.
type otlpKV struct {
	Key   string `json:"key"`
	Value struct {
		StringValue string `json:"stringValue"`
	} `json:"value"`
}

func otlpAttr(k, v string) otlpKV {
	kv := otlpKV{Key: k}
	kv.Value.StringValue = v
	return kv
}

type otlpStatus struct {
	Message string `json:"message,omitempty"`
	Code    int    `json:"code"`
}

type otlpSpan struct {
	TraceID      string      `json:"traceId"`
	SpanID       string      `json:"spanId"`
	ParentSpanID string      `json:"parentSpanId,omitempty"`
	Name         string      `json:"name"`
	StartTime    string      `json:"startTimeUnixNano"`
	EndTime      string      `json:"endTimeUnixNano"`
	Attributes   []otlpKV    `json:"attributes,omitempty"`
	Status       *otlpStatus `json:"status,omitempty"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpResource struct {
	Attributes []otlpKV `json:"attributes"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpPayload struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

// Export POSTs the batch; any non-2xx status is an error (and so
// retried by the exporter).
func (s *OTLPSink) Export(batch []SpanData) error {
	spans := make([]otlpSpan, 0, len(batch))
	for _, sp := range batch {
		start := sp.Start.UnixNano()
		end := start + int64(sp.DurationMS*1e6)
		o := otlpSpan{
			TraceID:      sp.TraceID,
			SpanID:       sp.SpanID,
			ParentSpanID: sp.ParentID,
			Name:         sp.Name,
			StartTime:    fmt.Sprintf("%d", start),
			EndTime:      fmt.Sprintf("%d", end),
		}
		for k, v := range sp.Attrs {
			o.Attributes = append(o.Attributes, otlpAttr(k, v))
		}
		if sp.Status != "" {
			code := 1 // STATUS_CODE_OK
			if sp.Status != "ok" {
				code = 2 // STATUS_CODE_ERROR
			}
			o.Status = &otlpStatus{Message: sp.Status, Code: code}
		}
		spans = append(spans, o)
	}
	payload := otlpPayload{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpKV{otlpAttr("service.name", s.service)}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "relcomplete/internal/obs"},
			Spans: spans,
		}},
	}}}

	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("obs: OTLP export: %s returned %s", s.url, resp.Status)
	}
	return nil
}

// Close is a no-op; the HTTP client owns no resources to release.
func (s *OTLPSink) Close() error { return nil }
