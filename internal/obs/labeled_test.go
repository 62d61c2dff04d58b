package obs

import (
	"strings"
	"sync"
	"testing"

	"relcomplete/internal/promcheck"
)

func TestCounterVecBasics(t *testing.T) {
	m := NewMetrics()
	v := m.LabeledCounter(ServerDecides, "problem", "decider", "outcome")
	if v == nil {
		t.Fatal("nil vec from live metrics")
	}
	if again := m.LabeledCounter(ServerDecides, "problem", "decider", "outcome"); again != v {
		t.Error("re-registration returned a different vec")
	}
	v.Inc("orders", "rcdp_strong", "ok")
	v.Add(2, "orders", "rcdp_strong", "ok")
	v.Inc("orders", "rcdp_strong", "deadline")
	if got := v.Get("orders", "rcdp_strong", "ok"); got != 3 {
		t.Errorf("Get = %d, want 3", got)
	}
	if got := v.Get("inventory", "rcdp_strong", "ok"); got != 0 {
		t.Errorf("Get on absent series = %d, want 0 without creating it", got)
	}
	if got := v.Series(); got != 2 {
		t.Errorf("Series = %d, want 2", got)
	}
}

func TestCounterVecArityPanics(t *testing.T) {
	m := NewMetrics()
	v := m.LabeledCounter(ServerDecides, "problem", "decider", "outcome")
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	v.Inc("orders")
}

func TestLabeledReRegistrationMismatchPanics(t *testing.T) {
	m := NewMetrics()
	m.LabeledCounter(ServerDecides, "problem")
	defer func() {
		if recover() == nil {
			t.Error("label-name mismatch did not panic")
		}
	}()
	m.LabeledCounter(ServerDecides, "tenant")
}

func TestInvalidLabelNamePanics(t *testing.T) {
	m := NewMetrics()
	defer func() {
		if recover() == nil {
			t.Error("invalid label name did not panic")
		}
	}()
	m.LabeledCounter(ServerDecides, "bad-label")
}

func TestCounterVecOverflow(t *testing.T) {
	m := NewMetrics()
	v := m.LabeledCounter(ServerDecides, "problem").SetMaxSeries(2)
	v.Inc("a")
	v.Inc("b")
	v.Inc("c") // past the cap: folds into the overflow series
	v.Inc("d")
	v.Inc("a") // existing series stay addressable past the cap
	if got := v.Series(); got != 3 {
		t.Errorf("Series = %d, want 2 named + 1 overflow", got)
	}
	if got := v.Get(OverflowLabelValue); got != 2 {
		t.Errorf("overflow series = %d, want 2", got)
	}
	if got := v.Get("a"); got != 2 {
		t.Errorf("pre-cap series = %d, want 2", got)
	}
	if got := v.Get("c"); got != 0 {
		t.Errorf("folded series got its own count: %d", got)
	}
}

func TestCounterVecConcurrent(t *testing.T) {
	m := NewMetrics()
	v := m.LabeledCounter(ServerDecides, "problem")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v.Inc("orders")
			}
		}()
	}
	wg.Wait()
	if got := v.Get("orders"); got != 800 {
		t.Errorf("Get = %d, want 800", got)
	}
}

func TestHistogramVecObserve(t *testing.T) {
	m := NewMetrics()
	v := m.LabeledHisto(DeciderWallNs, "problem")
	v.Observe(5e5, "orders") // 0.5ms
	v.Observe(2e9, "orders") // 2s
	v.Observe(1e6, "inventory")
	if got := v.SeriesCount("orders"); got != 2 {
		t.Errorf("SeriesCount(orders) = %d, want 2", got)
	}
	if got := v.SeriesCount("absent"); got != 0 {
		t.Errorf("SeriesCount(absent) = %d, want 0", got)
	}
	if got := v.Series(); got != 2 {
		t.Errorf("Series = %d, want 2", got)
	}
}

func TestNilMetricsLabeledInert(t *testing.T) {
	var m *Metrics
	cv := m.LabeledCounter(ServerDecides, "problem")
	if cv != nil {
		t.Fatal("nil metrics yielded a live counter vec")
	}
	cv.Inc("x")
	cv.Add(5, "x")
	cv.SetMaxSeries(1)
	if cv.Get("x") != 0 || cv.Series() != 0 {
		t.Error("nil counter vec not inert")
	}
	hv := m.LabeledHisto(DeciderWallNs, "problem")
	if hv != nil {
		t.Fatal("nil metrics yielded a live histogram vec")
	}
	hv.Observe(1, "x")
	hv.SetMaxSeries(1)
	if hv.SeriesCount("x") != 0 || hv.Series() != 0 {
		t.Error("nil histogram vec not inert")
	}
}

func TestLabeledExpositionValidates(t *testing.T) {
	m := NewMetrics()
	cv := m.LabeledCounter(ServerDecides, "problem", "decider", "outcome")
	cv.Inc("orders", "rcdp_strong", "ok")
	cv.Inc("orders", "rcdp_strong", "ok")
	cv.Inc(`we"ird\pro`+"\n"+`blem`, "rcqp", "budget")
	hv := m.LabeledHisto(DeciderWallNs, "problem")
	hv.Observe(5e5, "orders")
	m.Inc(ServerDecides)

	text := m.PrometheusText()
	if err := promcheck.ValidatePrometheusText([]byte(text)); err != nil {
		t.Fatalf("labelled exposition rejected: %v\n%s", err, text)
	}
	wantLines := []string{
		`relcomplete_server_decides_total 1`,
		`relcomplete_server_decides_total{problem="orders",decider="rcdp_strong",outcome="ok"} 2`,
		`relcomplete_server_decides_total{problem="we\"ird\\pro\nblem",decider="rcqp",outcome="budget"} 1`,
		`relcomplete_decider_wall_seconds_bucket{problem="orders",le="+Inf"} 1`,
		`relcomplete_decider_wall_seconds_count{problem="orders"} 1`,
		`relcomplete_decider_wall_seconds_sum{problem="orders"} 0.0005`,
	}
	for _, want := range wantLines {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Labelled series share the family block: the unlabelled total and
	// its attribution samples must be contiguous under one TYPE line.
	idx := strings.Index(text, "# TYPE relcomplete_server_decides_total counter")
	if idx < 0 {
		t.Fatal("family TYPE line missing")
	}
	if n := strings.Count(text, "# TYPE relcomplete_server_decides_total counter"); n != 1 {
		t.Errorf("family declared %d times, want 1", n)
	}
}

func TestRuntimeGaugesExposed(t *testing.T) {
	m := NewMetrics()
	text := m.PrometheusText()
	if err := promcheck.ValidatePrometheusText([]byte(text)); err != nil {
		t.Fatalf("exposition with runtime gauges rejected: %v", err)
	}
	for _, fam := range []string{
		"relcomplete_go_goroutines",
		"relcomplete_go_heap_objects_bytes",
		"relcomplete_go_gc_pause_seconds_total",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" gauge\n") {
			t.Errorf("missing gauge TYPE for %s", fam)
		}
		if !strings.Contains(text, "\n"+fam+" ") {
			t.Errorf("missing sample for %s", fam)
		}
	}
}

func TestHistogramVecOverflow(t *testing.T) {
	m := NewMetrics()
	v := m.LabeledHisto(DeciderWallNs, "problem").SetMaxSeries(1)
	v.Observe(1e6, "a")
	v.Observe(1e6, "b") // folds into "other"
	v.Observe(1e6, "c")
	if got := v.Series(); got != 2 {
		t.Errorf("Series = %d, want 1 named + 1 overflow", got)
	}
	if got := v.SeriesCount(OverflowLabelValue); got != 2 {
		t.Errorf("overflow series count = %d, want 2", got)
	}
	if got := v.SeriesCount("a"); got != 1 {
		t.Errorf("pre-cap series count = %d, want 1", got)
	}
}
