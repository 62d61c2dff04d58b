package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestExemplarRecordAndReplace(t *testing.T) {
	m := NewMetrics()

	// Untraced observations never record an exemplar.
	m.ObserveExemplar(DeciderWallNs, int64(5*time.Millisecond), "")
	if _, ok := m.BucketExemplar(DeciderWallNs, int64(5*time.Millisecond)); ok {
		t.Fatal("exemplar recorded for an empty trace id")
	}

	// A traced observation lands in its value's bucket, scaled to the
	// exposed unit (seconds for duration histograms).
	m.ObserveExemplar(DeciderWallNs, int64(5*time.Millisecond), "aaaabbbbccccddddaaaabbbbccccdddd")
	ex, ok := m.BucketExemplar(DeciderWallNs, int64(5*time.Millisecond))
	if !ok {
		t.Fatal("no exemplar after a traced observation")
	}
	if ex.TraceID != "aaaabbbbccccddddaaaabbbbccccdddd" {
		t.Fatalf("exemplar trace = %q", ex.TraceID)
	}
	if ex.Value != 0.005 {
		t.Fatalf("exemplar value = %v, want 0.005 (seconds)", ex.Value)
	}
	if ex.Time.IsZero() {
		t.Fatal("exemplar timestamp not stamped")
	}

	// Latest traced observation in the same bucket wins.
	m.ObserveExemplar(DeciderWallNs, int64(7*time.Millisecond), "eeeeffff00001111eeeeffff00001111")
	ex, _ = m.BucketExemplar(DeciderWallNs, int64(6*time.Millisecond))
	if ex.TraceID != "eeeeffff00001111eeeeffff00001111" {
		t.Fatalf("exemplar not replaced: trace = %q", ex.TraceID)
	}

	// A different bucket keeps its own exemplar.
	m.ObserveExemplar(DeciderWallNs, int64(2*time.Second), "9999888877776666999988887777AAAA")
	ex, _ = m.BucketExemplar(DeciderWallNs, int64(6*time.Millisecond))
	if ex.TraceID != "eeeeffff00001111eeeeffff00001111" {
		t.Fatal("observation in another bucket clobbered this bucket's exemplar")
	}

	// The plain Observe path and nil receivers stay exemplar-free.
	var nilM *Metrics
	nilM.ObserveExemplar(DeciderWallNs, 1, "abc")
	if _, ok := nilM.BucketExemplar(DeciderWallNs, 1); ok {
		t.Fatal("nil Metrics produced an exemplar")
	}
}

func TestExemplarSurvivesMerge(t *testing.T) {
	src := NewMetrics()
	src.ObserveExemplar(DeciderWallNs, int64(3*time.Millisecond), "aaaabbbbccccddddaaaabbbbccccdddd")
	dst := NewMetrics()
	dst.Merge(src)
	ex, ok := dst.BucketExemplar(DeciderWallNs, int64(3*time.Millisecond))
	if !ok || ex.TraceID != "aaaabbbbccccddddaaaabbbbccccdddd" {
		t.Fatalf("exemplar lost in Merge: ok=%v trace=%q", ok, ex.TraceID)
	}
}

func TestExemplarConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			trace := strings.Repeat("ab", 16)
			for i := 0; i < 200; i++ {
				m.ObserveExemplar(DeciderWallNs, int64(i%10)*int64(time.Millisecond), trace)
				m.BucketExemplar(DeciderWallNs, int64(i%10)*int64(time.Millisecond))
			}
		}(g)
	}
	wg.Wait()
	if _, ok := m.BucketExemplar(DeciderWallNs, int64(5*time.Millisecond)); !ok {
		t.Fatal("no exemplar after concurrent traced observations")
	}
}

func TestOpenMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.Inc(ValuationsEnumerated)
	m.ObservePhase("decide", time.Millisecond)
	m.ObserveExemplar(DeciderWallNs, int64(5*time.Millisecond), "aaaabbbbccccddddaaaabbbbccccdddd")
	m.LabeledHisto(DeciderWallNs, "problem").ObserveExemplar(
		int64(5*time.Millisecond), "aaaabbbbccccddddaaaabbbbccccdddd", "orders")

	text := m.OpenMetricsText()
	if err := ValidateOpenMetricsText([]byte(text)); err != nil {
		t.Fatalf("own OpenMetrics exposition rejected: %v\n%s", err, text)
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatal("exposition does not end with # EOF")
	}
	// Counters: family declared bare, sample suffixed _total.
	if !strings.Contains(text, "# TYPE relcomplete_valuations_enumerated counter\n") {
		t.Fatal("counter TYPE line is not the bare family name")
	}
	if !strings.Contains(text, "relcomplete_valuations_enumerated_total 1\n") {
		t.Fatal("counter sample is not _total-suffixed")
	}
	if strings.Contains(text, "relcomplete_valuations_enumerated 1\n") {
		t.Fatal("bare counter sample leaked into the OpenMetrics exposition")
	}
	// The traced bucket carries its exemplar, on the plain histogram and
	// on the labelled series.
	if !strings.Contains(text, `# {trace_id="aaaabbbbccccddddaaaabbbbccccdddd"} 0.005`) {
		t.Fatalf("bucket exemplar missing:\n%s", text)
	}
	if !strings.Contains(text, `problem="orders"`) {
		t.Fatal("labelled histogram series missing")
	}
	idx := strings.Index(text, `problem="orders"`)
	if !strings.Contains(text[idx:], `# {trace_id="aaaabbbbccccddddaaaabbbbccccdddd"}`) {
		t.Fatal("labelled bucket exemplar missing")
	}

	// The classic exposition is unchanged by exemplars: still valid
	// 0.0.4, no exemplar syntax.
	prom := m.PrometheusText()
	if err := ValidatePrometheusText([]byte(prom)); err != nil {
		t.Fatalf("Prometheus exposition rejected: %v", err)
	}
	if strings.Contains(prom, "# {") {
		t.Fatal("exemplar syntax leaked into the Prometheus 0.0.4 exposition")
	}
}

func TestOpenMetricsNilMetrics(t *testing.T) {
	var m *Metrics
	text := m.OpenMetricsText()
	if err := ValidateOpenMetricsText([]byte(text)); err != nil {
		t.Fatalf("nil-Metrics OpenMetrics exposition rejected: %v", err)
	}
	if !strings.Contains(text, "relcomplete_valuations_enumerated_total 0\n") {
		t.Fatal("nil exposition missing the all-zero counter inventory")
	}
}

func TestWantsOpenMetrics(t *testing.T) {
	cases := []struct {
		accept, format string
		want           bool
	}{
		{"", "", false},
		{"text/plain", "", false},
		{"application/openmetrics-text", "", true},
		{"application/openmetrics-text; version=1.0.0; charset=utf-8", "", true},
		{"text/plain;q=0.5, application/openmetrics-text;q=0.9", "", true},
		{"", "openmetrics", true},
		{"", "prometheus", false},
	}
	for _, c := range cases {
		if got := WantsOpenMetrics(c.accept, c.format); got != c.want {
			t.Errorf("WantsOpenMetrics(%q, %q) = %v, want %v", c.accept, c.format, got, c.want)
		}
	}
}

func TestOpenMetricsValidatorRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{
			"missing EOF",
			"# TYPE relcomplete_x counter\nrelcomplete_x_total 1\n",
			"# EOF",
		},
		{
			"content after EOF",
			"# EOF\nrelcomplete_x_total 1\n",
			"after # EOF",
		},
		{
			"bare counter sample",
			"# TYPE relcomplete_x counter\nrelcomplete_x 1\n# EOF\n",
			"_total",
		},
		{
			"exemplar on a gauge",
			"# TYPE relcomplete_g gauge\nrelcomplete_g 1 # {trace_id=\"ab\"} 1\n# EOF\n",
			"exemplar",
		},
		{
			"exemplar on _sum",
			"# TYPE relcomplete_h histogram\nrelcomplete_h_bucket{le=\"+Inf\"} 1\nrelcomplete_h_sum 1 # {trace_id=\"ab\"} 1\nrelcomplete_h_count 1\n# EOF\n",
			"exemplar",
		},
		{
			"oversized exemplar label set",
			"# TYPE relcomplete_h histogram\nrelcomplete_h_bucket{le=\"+Inf\"} 1 # {trace_id=\"" +
				strings.Repeat("a", 130) + "\"} 1\nrelcomplete_h_sum 1\nrelcomplete_h_count 1\n# EOF\n",
			"128",
		},
		{
			"malformed exemplar labels",
			"# TYPE relcomplete_h histogram\nrelcomplete_h_bucket{le=\"+Inf\"} 1 # {trace_id=} 1\n# EOF\n",
			"exemplar",
		},
	}
	for _, c := range cases {
		err := ValidateOpenMetricsText([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: validator accepted\n%s", c.name, c.doc)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}

	// The Prometheus validator must reject exemplar syntax outright —
	// the 0.0.4 format has none.
	err := ValidatePrometheusText([]byte(
		"# TYPE relcomplete_h histogram\nrelcomplete_h_bucket{le=\"+Inf\"} 1 # {trace_id=\"ab\"} 1\n"))
	if err == nil {
		t.Error("Prometheus validator accepted exemplar syntax")
	}
}

func TestSpanRecorderConcurrentDrops(t *testing.T) {
	rec := NewSpanRecorder(8)
	root := rec.Root("root", "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				root.StartChild("child").End()
			}
		}()
	}
	wg.Wait()
	root.End()
	// 201 finished spans against a cap of 8: every span is either
	// retained or counted dropped, with no loss to races.
	if got := int64(len(rec.Spans())) + rec.Dropped(); got != 201 {
		t.Fatalf("retained+dropped = %d, want 201", got)
	}
	if rec.Dropped() != 201-8 {
		t.Fatalf("Dropped = %d, want %d", rec.Dropped(), 201-8)
	}
}
