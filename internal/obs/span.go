package obs

// This file is the request-scoped tracing layer: a context-carried
// span model (trace_id / span_id / parent links, attributes, status)
// with W3C traceparent ingestion and emission. Spans attribute wall
// time to one request: rcserved starts a root span per HTTP request,
// rcheck and rcbench one per run, the core deciders hang their phase
// spans off it (see core.Problem.enter), and the search/eval layers add
// sub-spans, so a slow decide yields a tree saying where its time went.
// The deciders' decision events (candidate models, CC violations,
// counterexamples, verdicts) are events on the active span: a recorder
// given a writer streams them as text lines, one without drops them
// unbuilt.
//
// The same inertness invariant as Metrics applies: a nil *Span is
// valid and every method nil-checks its receiver, so instrumented code
// calls span methods unconditionally and pays one pointer test when no
// request trace is active. Finished spans land in a bounded
// SpanRecorder that keeps the most recent ones and counts the
// overwritten, so a pathological decide cannot turn the recorder into
// a memory leak, and the recorder doubles as the flight recorder the
// slow-op dump reads.

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TraceID is the 16-byte W3C trace identifier shared by every span of
// one request.
type TraceID [16]byte

// SpanID is the 8-byte identifier of one span.
type SpanID [8]byte

// IsZero reports whether the trace id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the trace id as 32 lowercase hex digits, in one
// allocation.
func (t TraceID) String() string {
	var b [2 * len(TraceID{})]byte
	hex.Encode(b[:], t[:])
	return string(b[:])
}

// IsZero reports whether the span id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the span id as 16 lowercase hex digits, in one
// allocation.
func (s SpanID) String() string {
	var b [2 * len(SpanID{})]byte
	hex.Encode(b[:], s[:])
	return string(b[:])
}

// randTraceID and randSpanID draw process-unique identifiers. The ids
// carry no security weight (they correlate log lines, they do not
// authenticate), so the shared math/rand/v2 generator is enough and
// stays cheap on the per-request path.
func randTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(a >> (8 * i))
			t[8+i] = byte(b >> (8 * i))
		}
	}
	return t
}

func randSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			s[i] = byte(v >> (8 * i))
		}
	}
	return s
}

// ParseTraceparent parses a W3C trace-context traceparent header
// (version "00": version-traceid-parentid-flags). sampled reflects bit
// 0 of the flags. Every field must be lower-case hex, and the all-zero
// trace and parent ids and version ff are invalid: the spec has a
// receiver ignore such a header and start a new trace.
func ParseTraceparent(h string) (t TraceID, parent SpanID, sampled bool, err error) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return t, parent, false, fmt.Errorf("traceparent: want version-traceid-parentid-flags, got %q", h)
	}
	var version, flags [1]byte
	for _, f := range []struct {
		name string
		dst  []byte
		src  string
	}{{"version", version[:], h[:2]}, {"trace id", t[:], h[3:35]}, {"parent id", parent[:], h[36:52]}, {"flags", flags[:], h[53:]}} {
		if err := decodeLowerHex(f.dst, f.src); err != nil {
			return TraceID{}, SpanID{}, false, fmt.Errorf("traceparent: bad %s: %w", f.name, err)
		}
	}
	if version[0] == 0xff {
		return TraceID{}, SpanID{}, false, fmt.Errorf("traceparent: invalid version %q", h[:2])
	}
	if t.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false, fmt.Errorf("traceparent: all-zero trace or parent id")
	}
	return t, parent, flags[0]&1 == 1, nil
}

// decodeLowerHex decodes src into dst, accepting lower-case hex only.
func decodeLowerHex(dst []byte, src string) error {
	for i := 0; i < len(src); i++ {
		if c := src[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("%q is not lower-case hex", src)
		}
	}
	_, err := hex.Decode(dst, []byte(src))
	return err
}

// FormatTraceparent renders a version-00 traceparent header.
func FormatTraceparent(t TraceID, s SpanID, sampled bool) string {
	return formatTraceparent(t.String(), s, sampled)
}

// formatTraceparent is FormatTraceparent with the trace id already in
// hex.
func formatTraceparent(traceHex string, s SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + traceHex + "-" + s.String() + "-" + flags
}

// SpanData is one finished span, shaped for encoding/json (the
// ?trace=1 decide response and the /debug/requests ring).
type SpanData struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_span_id,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Status     string            `json:"status,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// DefaultSpanCap bounds a zero-configured SpanRecorder. One span per
// decider phase plus one per search/eval sub-step is tens of spans for
// a normal decide; the cap exists for pathological ones (an FP query
// evaluated on thousands of candidate models), whose oldest spans are
// overwritten and counted instead of kept.
const DefaultSpanCap = 256

// SpanRecorder collects the finished spans of one trace, keeping the
// most recent cap of them. All methods are safe for concurrent use —
// search workers end spans and emit events from many goroutines.
type SpanRecorder struct {
	traceID  TraceID
	traceHex string // traceID in hex, formatted once by Root
	sampled  bool
	cap      int
	events   io.Writer  // decision events stream here; nil drops them
	start    time.Time  // the root's start, from which event times count
	evMu     sync.Mutex // serialises writes to events, so lines stay whole

	mu      sync.Mutex
	spans   []SpanData // grows to cap, then next is the oldest
	next    int
	dropped int64
}

// NewSpanRecorder returns a recorder retaining the last capN finished
// spans (capN <= 0 → DefaultSpanCap).
func NewSpanRecorder(capN int) *SpanRecorder {
	if capN <= 0 {
		capN = DefaultSpanCap
	}
	return &SpanRecorder{cap: capN}
}

// StreamEvents makes the recorder write every decision event of its
// trace to w, one line each (see Span.Event), and returns r. Call it
// before Root.
func (r *SpanRecorder) StreamEvents(w io.Writer) *SpanRecorder {
	r.events = w
	return r
}

// Root starts the trace's root span, adopting the trace id (and remote
// parent link) of traceparent when it parses, and fresh random ids
// when it is absent or malformed — a client error must never fail the
// request it decorates. Call Root once per recorder.
func (r *SpanRecorder) Root(name, traceparent string) *Span {
	t, parent, sampled, err := ParseTraceparent(traceparent)
	if err != nil {
		t, parent, sampled = randTraceID(), SpanID{}, true
	}
	r.traceID, r.traceHex, r.sampled, r.start = t, t.String(), sampled, time.Now()
	return &Span{
		rec:    r,
		id:     randSpanID(),
		parent: parent,
		name:   name,
		start:  r.start,
	}
}

// TraceID returns the recorder's trace id (zero before Root).
func (r *SpanRecorder) TraceID() TraceID { return r.traceID }

// Cap returns the recorder's span capacity.
func (r *SpanRecorder) Cap() int { return r.cap }

// Spans returns the retained finished spans in end order, oldest
// first.
func (r *SpanRecorder) Spans() []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanData, 0, len(r.spans))
	return append(append(out, r.spans[r.next:]...), r.spans[:r.next]...)
}

// Dropped returns how many finished spans were overwritten by newer
// ones.
func (r *SpanRecorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

func (r *SpanRecorder) record(d SpanData) {
	r.mu.Lock()
	if len(r.spans) < r.cap {
		r.spans = append(r.spans, d)
	} else {
		r.spans[r.next] = d
		r.next = (r.next + 1) % r.cap
		r.dropped++
	}
	r.mu.Unlock()
}

// Span is one in-flight operation of a request trace. A nil *Span is
// inert: every method nil-checks its receiver and StartChild of nil is
// nil, so an instrumented call path with no active trace costs pointer
// tests only.
type Span struct {
	rec    *SpanRecorder
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	depth  int // 0 for the root; event lines indent by it

	mu     sync.Mutex
	attrs  []Field
	status string
	ended  bool
}

// StartChild starts a sub-span of s at start, the caller's clock
// reading, so a caller that times the same work itself reports one
// duration. On a nil receiver it returns nil.
func (s *Span) StartChild(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	return &Span{rec: s.rec, id: randSpanID(), parent: s.id, name: name, start: start, depth: s.depth + 1}
}

// Streaming reports whether events on s reach a writer (false on a nil
// receiver). Guard event payloads that cost something to build:
//
//	if sp.Streaming() {
//	    sp.Event("model", obs.F("db", db))
//	}
func (s *Span) Streaming() bool { return s != nil && s.rec.events != nil }

// Event streams one decision event on s as a line on the recorder's
// writer: the time since the root started, two spaces per span depth,
// the kind and the fields, a value holding white space quoted:
//
//	[    12.3ms]     cc_violation cc=onlyStocked
//
// The event is not kept in the span's SpanData. No-op unless s is
// Streaming.
func (s *Span) Event(kind string, fields ...Field) {
	if !s.Streaming() {
		return
	}
	b := fmt.Appendf(nil, "[%8.1fms] ", float64(time.Since(s.rec.start).Microseconds())/1000)
	b = append(b, strings.Repeat("  ", s.depth)...)
	b = append(b, kind...)
	for _, f := range fields {
		b = append(b, ' ')
		b = append(b, f.Key...)
		b = append(b, '=')
		if strings.ContainsAny(f.Value, " \t\n") {
			b = strconv.AppendQuote(b, f.Value)
		} else {
			b = append(b, f.Value...)
		}
	}
	b = append(b, '\n')
	s.rec.evMu.Lock()
	s.rec.events.Write(b)
	s.rec.evMu.Unlock()
}

// Recorder returns the SpanRecorder the span reports into (nil on a
// nil receiver). Handlers use it to read back the finished span tree
// of the request they own.
func (s *Span) Recorder() *SpanRecorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// ID returns the span's id (zero on a nil receiver).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Trace returns the trace id the span belongs to (zero on nil).
func (s *Span) Trace() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.rec.traceID
}

// TraceHex returns the span's trace id as 32 lowercase hex digits,
// formatted once per recorder ("" on a nil receiver).
func (s *Span) TraceHex() string {
	if s == nil {
		return ""
	}
	return s.rec.traceHex
}

// Traceparent renders the outbound traceparent header naming s as the
// parent ("" on a nil receiver).
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return formatTraceparent(s.rec.traceHex, s.id, s.rec.sampled)
}

// SetAttr attaches one key/value attribute (formatted with %v) to the
// span. No-op on a nil receiver.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, F(key, value))
	s.mu.Unlock()
}

// SetStatus sets the span's status slug ("ok", "deadline", ...).
// No-op on a nil receiver.
func (s *Span) SetStatus(status string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.status = status
	s.mu.Unlock()
}

// End finishes the span now; see EndAt.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt finishes the span at end, the caller's clock reading, and
// records it into the trace's recorder. Idempotent; no-op on a nil
// receiver.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	d := SpanData{
		TraceID:    s.rec.traceHex,
		SpanID:     s.id.String(),
		Name:       s.name,
		Start:      s.start,
		DurationMS: float64(end.Sub(s.start).Nanoseconds()) / 1e6,
		Status:     s.status,
	}
	if !s.parent.IsZero() {
		d.ParentID = s.parent.String()
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for _, f := range s.attrs {
			d.Attrs[f.Key] = f.Value
		}
	}
	s.mu.Unlock()
	s.rec.record(d)
}

// Field is one key/value pair of a span attribute or event.
type Field struct {
	Key   string
	Value string
}

// F builds a Field, formatting the value with %v.
func F(key string, value any) Field {
	return Field{Key: key, Value: fmt.Sprint(value)}
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp as the active span. A nil sp
// returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the active span of ctx, or nil when the
// request is untraced (including a nil ctx).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}
