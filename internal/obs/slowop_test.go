package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// The slow-op dump is an operator-facing format that gets grepped out
// of service logs, so its exact rendering is pinned by a golden file.
// The recorder holds a span of an earlier call, overwritten, and the
// slow call's tree, whose children list in start order.
func TestWriteSlowOpGolden(t *testing.T) {
	rec := NewSpanRecorder(4)
	rec.traceID, _, _, _ = ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	const rootID, slowID, searchID = "00000000000000a0", "00000000000000b1", "00000000000000b2"
	for _, d := range []SpanData{
		{SpanID: "00000000000000a1", ParentID: rootID, Name: "consistency", Start: at(0), DurationMS: 0.5},
		{SpanID: "00000000000000b4", ParentID: slowID, Name: "search.models", Start: at(2), DurationMS: 12.5, Attrs: map[string]string{"workers": "1"}},
		{SpanID: "00000000000000b3", ParentID: searchID, Name: "eval.fp", Start: at(20), DurationMS: 1.25},
		{SpanID: searchID, ParentID: slowID, Name: "search.counterexample", Start: at(15), DurationMS: 1500, Attrs: map[string]string{"workers": "1"}},
		{SpanID: slowID, ParentID: rootID, Name: "rcdp_strong", Start: at(1), DurationMS: 2000, Status: "ok", Attrs: map[string]string{"models_checked": "3"}},
	} {
		rec.record(d)
	}
	slow := &Span{rec: rec, id: SpanID{7: 0xb1}}

	m := NewMetrics()
	m.ObserveDuration(DeciderWallNs, 250*time.Millisecond)
	m.ObserveDuration(DeciderWallNs, 2*time.Second)
	m.Observe(ModelsAdmittedPerCall, 3)

	var b strings.Builder
	WriteSlowOp(&b, "rcdp_strong", 2*time.Second, 100*time.Millisecond, slow, m)
	got := b.String()

	path := filepath.Join("testdata", "slowop.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("slow-op dump drifted from golden (rerun with -update):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// The trace id in the header is what lets an operator jump from a
// slow-op dump to the access/decision log lines of the same request:
// the exact id must round-trip, and an untraced call must still render
// the field (as "-") so greps for "trace_id=" always hit.
func TestWriteSlowOpTraceID(t *testing.T) {
	const id = "4bf92f3577b34da6a3ce929d0e0e4736"
	root := NewSpanRecorder(0).Root("rcqp", "00-"+id+"-00f067aa0ba902b7-01")
	var b strings.Builder
	WriteSlowOp(&b, "rcqp", time.Second, time.Millisecond, root, nil)
	if !strings.Contains(b.String(), " trace_id="+id+" ===") {
		t.Errorf("trace id did not round-trip:\n%s", b.String())
	}
	b.Reset()
	WriteSlowOp(&b, "rcqp", time.Second, time.Millisecond, nil, nil)
	if !strings.Contains(b.String(), " trace_id=- ===") {
		t.Errorf("untraced dump lost the trace_id field:\n%s", b.String())
	}
}

// TestWriteSlowOpDisabled: an untraced call without metrics still
// dumps its header, with both sections marked disabled.
func TestWriteSlowOpDisabled(t *testing.T) {
	var b strings.Builder
	WriteSlowOp(&b, "rcdp_strong", 2*time.Second, time.Second, nil, nil)
	out := b.String()
	for _, want := range []string{
		"=== SLOW OP op=rcdp_strong elapsed=2s threshold=1s trace_id=- ===",
		"spans: disabled",
		"histograms: disabled",
		"=== END SLOW OP op=rcdp_strong ===",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestWriteSlowOpEmptyRing: a dump for a span the recorder does not
// hold (not yet ended) must render an empty span section, not panic or
// pretend the recorder is disabled.
func TestWriteSlowOpEmptyRing(t *testing.T) {
	var b strings.Builder
	root := NewSpanRecorder(4).Root("rcdp_weak", "")
	WriteSlowOp(&b, "rcdp_weak", time.Second, time.Millisecond, root, NewMetrics())
	out := b.String()
	if !strings.Contains(out, "spans: 0 in the call's tree, 0 overwritten") {
		t.Errorf("empty tree not rendered:\n%s", out)
	}
	if !strings.Contains(out, "histograms: 0 with observations") {
		t.Errorf("empty metrics not rendered:\n%s", out)
	}
	if strings.Contains(out, "disabled") {
		t.Errorf("enabled-but-empty instruments rendered as disabled:\n%s", out)
	}
}

// Concurrent dumps into one shared sink (the rcserved stderr case:
// several decide calls crossing the threshold at once) must not race
// on the recorder or the metrics, and each lists its own span.
// Interleaving between writers is acceptable; data races are not (this
// test runs under -race in CI).
func TestWriteSlowOpConcurrent(t *testing.T) {
	root := NewSpanRecorder(0).Root("root", "") // room for every span
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				sp := root.StartChild("rcdp_strong", time.Now())
				sp.StartChild("search", time.Now()).End()
				sp.End()
				m.ObserveDuration(DeciderWallNs, time.Millisecond)
				var b strings.Builder
				WriteSlowOp(&b, "rcdp_strong", time.Second, time.Millisecond, sp, m)
				if !strings.HasPrefix(b.String(), "=== SLOW OP op=rcdp_strong ") {
					t.Errorf("writer %d: malformed dump header", i)
				}
				if !strings.Contains(b.String(), "\n  rcdp_strong ") {
					t.Errorf("writer %d: dump lost its own span:\n%s", i, b.String())
				}
			}
		}(i)
	}
	wg.Wait()
}

// lockedWriter serialises its Writes, as an *os.File does, and yields
// after each one so that concurrent writers run in between.
type lockedWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	n, err := w.buf.Write(p)
	w.mu.Unlock()
	runtime.Gosched()
	return n, err
}

// TestWriteSlowOpSharedSinkWhole: rcserved gives every problem the
// same slow-op sink (stderr by default) and runs several decides at
// once, so concurrent dumps into one sink must each arrive whole, with
// no header of one dump inside another.
func TestWriteSlowOpSharedSinkWhole(t *testing.T) {
	const writers, dumps = 4, 50
	root := NewSpanRecorder(0).Root("root", "")
	m := NewMetrics()
	m.ObserveDuration(DeciderWallNs, time.Millisecond)
	var sink lockedWriter
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < dumps; j++ {
				sp := root.StartChild("rcdp_strong", time.Now())
				sp.End()
				WriteSlowOp(&sink, "rcdp_strong", time.Second, time.Millisecond, sp, m)
			}
		}()
	}
	wg.Wait()
	open, whole := false, 0
	for i, line := range strings.Split(sink.buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "=== SLOW OP "):
			if open {
				t.Fatalf("line %d: a dump starts inside another dump", i+1)
			}
			open = true
		case strings.HasPrefix(line, "=== END SLOW OP "):
			if !open {
				t.Fatalf("line %d: a dump ends outside any dump", i+1)
			}
			open = false
			whole++
		}
	}
	if whole != writers*dumps {
		t.Errorf("%d whole dumps, want %d", whole, writers*dumps)
	}
}
