package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

const sampleTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

func TestParseTraceparent(t *testing.T) {
	tr, parent, sampled, err := ParseTraceparent(sampleTraceparent)
	if err != nil {
		t.Fatal(err)
	}
	if tr.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s", tr)
	}
	if parent.String() != "00f067aa0ba902b7" {
		t.Errorf("parent id = %s", parent)
	}
	if !sampled {
		t.Error("sampled flag lost")
	}
	if got := FormatTraceparent(tr, parent, sampled); got != sampleTraceparent {
		t.Errorf("round trip = %q", got)
	}
}

// rejectedTraceparents are headers ParseTraceparent must refuse.
var rejectedTraceparents = []struct {
	name string
	h    string
}{
	{"empty", ""},
	{"short", "00-abc-def-01"},
	{"bad separators", strings.ReplaceAll(sampleTraceparent, "-", "_")},
	{"version ff", "ff" + sampleTraceparent[2:]},
	{"bad hex in trace id", "00-zzzz2f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
	{"bad hex in parent id", "00-4bf92f3577b34da6a3ce929d0e0e4736-zzf067aa0ba902b7-01"},
	{"bad flags", sampleTraceparent[:53] + "zz"},
	{"zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
	{"zero parent id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"},
	{"upper-case ids", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01"},
}

func TestParseTraceparentRejects(t *testing.T) {
	for _, c := range rejectedTraceparents {
		if _, _, _, err := ParseTraceparent(c.h); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.h)
		}
	}
}

// FuzzParseTraceparent feeds arbitrary headers to ParseTraceparent: it
// must not panic, and a header it accepts must re-format to one that
// parses to the same ids and sampled bit.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(sampleTraceparent)
	for _, c := range rejectedTraceparents {
		f.Add(c.h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tr, parent, sampled, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		again := FormatTraceparent(tr, parent, sampled)
		tr2, parent2, sampled2, err := ParseTraceparent(again)
		if err != nil || tr2 != tr || parent2 != parent || sampled2 != sampled {
			t.Fatalf("%q re-formats to %q, which parses to %v %v %v %v", h, again, tr2, parent2, sampled2, err)
		}
	})
}

func TestSpanTree(t *testing.T) {
	rec := NewSpanRecorder(0)
	root := rec.Root("POST /decide", sampleTraceparent)
	if rec.TraceID().String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("recorder did not adopt the client trace id: %s", rec.TraceID())
	}
	phase := root.StartChild("rcdp_strong", time.Now())
	phase.SetAttr("models_checked", 7)
	phase.SetStatus("ok")
	inner := phase.StartChild("search.first_hit", time.Now())
	inner.End()
	phase.End()
	phase.End() // idempotent
	root.End()

	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("span %s carries trace id %s", s.Name, s.TraceID)
		}
	}
	if byName["search.first_hit"].ParentID != byName["rcdp_strong"].SpanID {
		t.Error("inner span not parented to the phase span")
	}
	if byName["rcdp_strong"].ParentID != byName["POST /decide"].SpanID {
		t.Error("phase span not parented to the root")
	}
	// The root's parent is the remote span from the traceparent header.
	if byName["POST /decide"].ParentID != "00f067aa0ba902b7" {
		t.Errorf("root parent = %q, want the remote parent", byName["POST /decide"].ParentID)
	}
	if byName["rcdp_strong"].Attrs["models_checked"] != "7" {
		t.Errorf("attrs = %v", byName["rcdp_strong"].Attrs)
	}
	if byName["rcdp_strong"].Status != "ok" {
		t.Errorf("status = %q", byName["rcdp_strong"].Status)
	}
}

func TestSpanRootWithoutTraceparent(t *testing.T) {
	rec := NewSpanRecorder(0)
	root := rec.Root("op", "")
	if rec.TraceID().IsZero() {
		t.Fatal("no trace id minted")
	}
	if got := root.Traceparent(); len(got) != 55 || !strings.HasPrefix(got, "00-") {
		t.Errorf("traceparent = %q", got)
	}
	root.End()
	if spans := rec.Spans(); len(spans) != 1 || spans[0].ParentID != "" {
		t.Errorf("spans = %+v", spans)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var sp *Span
	if c := sp.StartChild("x", time.Now()); c != nil {
		t.Error("StartChild of nil != nil")
	}
	sp.SetAttr("k", "v")
	sp.SetStatus("ok")
	sp.End()
	if sp.Traceparent() != "" {
		t.Error("nil Traceparent not empty")
	}
	if !sp.Trace().IsZero() || !sp.ID().IsZero() {
		t.Error("nil ids not zero")
	}
	if sp.Recorder() != nil {
		t.Error("nil Recorder not nil")
	}
	ctx := context.Background()
	if ContextWithSpan(ctx, nil) != ctx {
		t.Error("nil span changed the context")
	}
	if SpanFromContext(ctx) != nil {
		t.Error("empty context yields a span")
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	rec := NewSpanRecorder(0)
	root := rec.Root("op", "")
	ctx := ContextWithSpan(context.Background(), root)
	if got := SpanFromContext(ctx); got != root {
		t.Fatalf("got %v", got)
	}
}

func TestSpanRecorderCapAndConcurrency(t *testing.T) {
	rec := NewSpanRecorder(8)
	root := rec.Root("op", "")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				root.StartChild("child", time.Now()).End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := len(rec.Spans()); got != 8 {
		t.Errorf("retained %d spans, want cap 8", got)
	}
	// 41 spans ended (40 children + root), 8 retained.
	if got := rec.Dropped(); got != 33 {
		t.Errorf("dropped = %d, want 33", got)
	}
}

func TestSpanRecorderCap(t *testing.T) {
	if got := NewSpanRecorder(0).Cap(); got != DefaultSpanCap {
		t.Errorf("default cap = %d, want %d", got, DefaultSpanCap)
	}
	if got := NewSpanRecorder(7).Cap(); got != 7 {
		t.Errorf("cap = %d, want 7", got)
	}
}

// Ending a child span allocates two strings, its own id and its
// parent's, one allocation each: the trace id is formatted once per
// recorder, by Root, and every span reads it.
func TestEndChildSpanAllocs(t *testing.T) {
	rec := NewSpanRecorder(1)
	root := rec.Root("root", "")
	now := time.Now()
	root.StartChild("warm", now).EndAt(now) // the recorder is at its cap
	start := testing.AllocsPerRun(200, func() { root.StartChild("child", now) })
	both := testing.AllocsPerRun(200, func() { root.StartChild("child", now).EndAt(now) })
	if end := both - start; end != 2 {
		t.Fatalf("ending a child span allocates %v objects, want 2", end)
	}
	if got, want := rec.Spans()[0].TraceID, rec.TraceID().String(); got != want {
		t.Fatalf("span trace id %q, want %q", got, want)
	}
	if got, want := root.TraceHex(), rec.TraceID().String(); got != want {
		t.Fatalf("TraceHex %q, want %q", got, want)
	}
	if got, want := root.Traceparent(), FormatTraceparent(rec.TraceID(), root.ID(), true); got != want {
		t.Fatalf("Traceparent %q, want %q", got, want)
	}
}
