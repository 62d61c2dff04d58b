package obs

import (
	"strings"
	"testing"
	"time"

	"relcomplete/internal/promcheck"
)

func TestPrometheusTextValidates(t *testing.T) {
	m := NewMetrics()
	m.Add(ModelsChecked, 17)
	m.Inc(CCViolations)
	m.ObservePhase("rcdp_strong", time.Millisecond)
	m.ObserveDuration(DeciderWallNs, 42*time.Millisecond)
	m.Observe(ModelsAdmittedPerCall, 3)

	text := m.PrometheusText()
	if err := promcheck.ValidatePrometheusText([]byte(text)); err != nil {
		t.Fatalf("exposition fails own grammar: %v\n%s", err, text)
	}
	for _, want := range []string{
		"# TYPE relcomplete_models_checked_total counter",
		"relcomplete_models_checked_total 17",
		"relcomplete_cc_violations_total 1",
		`relcomplete_phase_calls_total{phase="rcdp_strong"} 1`,
		"# TYPE relcomplete_decider_wall_seconds histogram",
		`relcomplete_decider_wall_seconds_bucket{le="+Inf"} 1`,
		"relcomplete_decider_wall_seconds_sum 0.042",
		"relcomplete_decider_wall_seconds_count 1",
		`relcomplete_models_admitted_per_call_bucket{le="4"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// A nil *Metrics still renders the complete all-zero inventory, so a
// scrape endpoint is well-formed before any solving happens.
func TestPrometheusNilMetrics(t *testing.T) {
	var m *Metrics
	text := m.PrometheusText()
	if err := promcheck.ValidatePrometheusText([]byte(text)); err != nil {
		t.Fatalf("nil exposition invalid: %v", err)
	}
	for c := Counter(0); c < numCounters; c++ {
		if !strings.Contains(text, MetricPrefix+c.String()+"_total 0") {
			t.Errorf("missing zero counter for %s", c)
		}
	}
	for h := Histo(0); h < numHistos; h++ {
		if !strings.Contains(text, MetricPrefix+h.String()+"_count 0") {
			t.Errorf("missing empty histogram %s", h)
		}
	}
}

// Every counter must carry HELP text: the exposition writes it
// unconditionally, so an empty entry would render "# HELP name " —
// caught here rather than by a human reading a dashboard.
func TestCounterHelpComplete(t *testing.T) {
	for c := Counter(0); c < numCounters; c++ {
		if counterHelp[c] == "" {
			t.Errorf("counter %s has no HELP text", c)
		}
	}
}
