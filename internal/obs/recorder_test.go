package obs

// Tests of the span recorder as the flight recorder, and of the
// decision events a span streams. Several keep the names of the tests
// of the event ring, text sink and tracer that these replaced.

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// spanNames joins the names of spans, in order.
func spanNames(spans []SpanData) string {
	names := make([]string, len(spans))
	for i, d := range spans {
		names[i] = d.Name
	}
	return strings.Join(names, " ")
}

// TestRingSinkOverwritesOldest: once full, the recorder overwrites its
// oldest span and counts it in Dropped, and Spans lists the survivors
// in end order, oldest first.
func TestRingSinkOverwritesOldest(t *testing.T) {
	rec := NewSpanRecorder(4)
	root := rec.Root("root", "")
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		root.StartChild(name, time.Now()).End()
	}
	if got := spanNames(rec.Spans()); got != "c d e f" {
		t.Fatalf("retained %q, want c d e f", got)
	}
	if got := rec.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	root.End()
	if got := spanNames(rec.Spans()); got != "d e f root" {
		t.Fatalf("retained %q after the root ended, want d e f root", got)
	}
	if got := rec.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
}

// TestRingSinkDefaultSize: a zero-configured recorder keeps the last
// DefaultSpanCap spans.
func TestRingSinkDefaultSize(t *testing.T) {
	rec := NewSpanRecorder(0)
	root := rec.Root("root", "")
	for i := 0; i < DefaultSpanCap+10; i++ {
		sp := root.StartChild("child", time.Now())
		sp.SetAttr("i", i)
		sp.End()
	}
	spans := rec.Spans()
	if len(spans) != DefaultSpanCap || rec.Dropped() != 10 {
		t.Fatalf("retained %d, dropped %d; want %d and 10", len(spans), rec.Dropped(), DefaultSpanCap)
	}
	if first, last := spans[0].Attrs["i"], spans[len(spans)-1].Attrs["i"]; first != "10" || last != strconv.Itoa(DefaultSpanCap+9) {
		t.Fatalf("retained spans %s..%s, want 10..%d", first, last, DefaultSpanCap+9)
	}
}

// TestRingSinkConcurrent ends spans from many goroutines into a small
// recorder: every span is retained or counted in Dropped, and the
// retained spans keep end order, so each goroutine's survivors are its
// newest spans, in the order it ended them.
func TestRingSinkConcurrent(t *testing.T) {
	const goroutines, each, capN = 8, 200, 16
	rec := NewSpanRecorder(capN)
	root := rec.Root("root", "")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := root.StartChild(fmt.Sprint("g", g), time.Now())
				sp.SetAttr("i", i)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	spans := rec.Spans()
	if len(spans) != capN || rec.Dropped() != goroutines*each-capN {
		t.Fatalf("retained %d, dropped %d; want %d and %d", len(spans), rec.Dropped(), capN, goroutines*each-capN)
	}
	kept := map[string][]int{}
	for _, d := range spans {
		i, err := strconv.Atoi(d.Attrs["i"])
		if err != nil {
			t.Fatalf("span %s: attr i = %q", d.Name, d.Attrs["i"])
		}
		kept[d.Name] = append(kept[d.Name], i)
	}
	for name, is := range kept {
		for k, i := range is {
			if want := each - len(is) + k; i != want {
				t.Fatalf("%s kept spans %v, want its newest %d in end order", name, is, len(is))
			}
		}
	}
}

// TestTee: one recorder feeds what the CLIs used to tee to a text sink
// and a ring: it streams the events to its writer and keeps the
// finished spans, which carry no events.
func TestTee(t *testing.T) {
	var buf strings.Builder
	rec := NewSpanRecorder(0).StreamEvents(&buf)
	root := rec.Root("rcheck rcdp", "")
	phase := root.StartChild("rcdp_strong", time.Now())
	phase.Event("model", F("db", "{R(1)}"))
	phase.End()
	root.End()
	if !strings.HasSuffix(buf.String(), "]   model db={R(1)}\n") {
		t.Errorf("streamed %q", buf.String())
	}
	spans := rec.Spans()
	if got := spanNames(spans); got != "rcdp_strong rcheck rcdp" {
		t.Fatalf("retained %q", got)
	}
	if len(spans[0].Attrs) != 0 {
		t.Errorf("the event was kept in the span: %v", spans[0].Attrs)
	}
}

// TestCollectSinkCap: events cost the recorder no memory. Thousands of
// them, on more spans than the cap, all reach the writer, and the
// recorder holds its cap of spans and nothing of the events.
func TestCollectSinkCap(t *testing.T) {
	var buf strings.Builder
	rec := NewSpanRecorder(8).StreamEvents(&buf)
	root := rec.Root("root", "")
	for i := 0; i < 100; i++ {
		sp := root.StartChild("child", time.Now())
		for j := 0; j < 50; j++ {
			sp.Event("model", F("j", j))
		}
		sp.End()
	}
	if got := strings.Count(buf.String(), "\n"); got != 5000 {
		t.Fatalf("streamed %d lines, want 5000", got)
	}
	spans := rec.Spans()
	if len(spans) != 8 || rec.Dropped() != 92 {
		t.Fatalf("retained %d, dropped %d; want 8 and 92", len(spans), rec.Dropped())
	}
	for _, d := range spans {
		if len(d.Attrs) != 0 {
			t.Fatalf("span kept event data: %v", d.Attrs)
		}
	}
}

// TestFlightTracerVerbosity: only a recorder given a writer streams.
// One without (the flight recorder rcserved gives every request) keeps
// spans but drops events unbuilt, so Streaming is false and the
// deciders skip their payloads and the CC-violation diagnosis.
func TestFlightTracerVerbosity(t *testing.T) {
	flight := NewSpanRecorder(8).Root("root", "")
	if flight.Streaming() || flight.StartChild("phase", time.Now()).Streaming() {
		t.Fatal("a recorder without a writer streams")
	}
	var buf strings.Builder
	verbose := NewSpanRecorder(8).StreamEvents(&buf).Root("root", "")
	if !verbose.Streaming() || !verbose.StartChild("phase", time.Now()).Streaming() {
		t.Fatal("a recorder with a writer does not stream, or its children do not")
	}
	flight.Event("model", F("n", 1))
	verbose.Event("model", F("n", 1))
	if strings.Count(buf.String(), "model n=1") != 1 {
		t.Fatalf("streamed %q, want the one event of the streaming recorder", buf.String())
	}
}

// TestNilTracerInert: a nil span does not stream and drops events.
func TestNilTracerInert(t *testing.T) {
	var sp *Span
	if sp.Streaming() {
		t.Fatal("nil span reports streaming")
	}
	sp.Event("x", F("k", 1))
}

// TestTextSinkRendering pins an event line: the time since the root
// started, two spaces per span depth, the kind, and the fields, a
// value holding white space quoted.
func TestTextSinkRendering(t *testing.T) {
	var buf strings.Builder
	root := NewSpanRecorder(0).StreamEvents(&buf).Root("root", "")
	root.Event("decide", F("problem", "rcdp"))
	phase := root.StartChild("rcdp_strong", time.Now())
	phase.StartChild("search", time.Now()).Event("cc_violation", F("cc", "onlyStocked"), F("gained", "a b"))
	root.Event("verdict", F("complete", false))

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	want := []string{
		`decide problem=rcdp`,
		`    cc_violation cc=onlyStocked gained="a b"`,
		`verdict complete=false`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	stamp := regexp.MustCompile(`^\[ *\d+\.\dms\] `)
	for i, line := range lines {
		if !stamp.MatchString(line) || stamp.ReplaceAllString(line, "") != want[i] {
			t.Errorf("line %d = %q, want [time] %q", i, line, want[i])
		}
	}
}

// TestTracerConcurrent: events from many goroutines arrive as whole
// lines.
func TestTracerConcurrent(t *testing.T) {
	var buf strings.Builder
	root := NewSpanRecorder(0).StreamEvents(&buf).Root("root", "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := root.StartChild("worker", time.Now())
			for j := 0; j < 200; j++ {
				sp.Event("e", F("i", j))
			}
			sp.End()
		}()
	}
	wg.Wait()
	line := regexp.MustCompile(`^\[ *\d+\.\dms\]   e i=\d+$`)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1600 {
		t.Fatalf("events = %d, want 1600", len(lines))
	}
	for _, l := range lines {
		if !line.MatchString(l) {
			t.Fatalf("torn line %q", l)
		}
	}
}
