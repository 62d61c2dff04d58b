package obs

import (
	"strings"
	"testing"
	"time"
)

func TestPrometheusTextValidates(t *testing.T) {
	m := NewMetrics()
	m.Add(ModelsChecked, 17)
	m.Inc(CCViolations)
	m.ObservePhase("rcdp_strong", time.Millisecond)
	m.ObserveDuration(DeciderWallNs, 42*time.Millisecond)
	m.Observe(ModelsAdmittedPerCall, 3)

	text := m.PrometheusText()
	if err := ValidatePrometheusText([]byte(text)); err != nil {
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
	if err := ValidatePrometheusText([]byte(text)); err != nil {
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

func TestValidatorAcceptsRealWorldShapes(t *testing.T) {
	good := strings.Join([]string{
		"# HELP x_total a counter",
		"# TYPE x_total counter",
		"x_total 3",
		"# TYPE h histogram",
		`h_bucket{le="1"} 1`,
		`h_bucket{le="+Inf"} 2`,
		"h_sum 2.5",
		"h_count 2",
		`lab{a="b",c="d e"} 1 1712345678`,
		"bare_untyped NaN",
		// A labelled histogram family: one independent bucket sequence
		// per label-set, all inside one family block. The bound sequence
		// restarting at le="0.5" for tenant b must not trip the
		// "not increasing" check that applies within a single set.
		"# TYPE lh histogram",
		`lh_bucket{tenant="a",le="1"} 1`,
		`lh_bucket{tenant="a",le="+Inf"} 2`,
		`lh_sum{tenant="a"} 2.5`,
		`lh_count{tenant="a"} 2`,
		`lh_bucket{tenant="b",le="0.5"} 4`,
		`lh_bucket{tenant="b",le="+Inf"} 4`,
		`lh_sum{tenant="b"} 0.9`,
		`lh_count{tenant="b"} 4`,
		// Escaped label values round-trip.
		`esc{v="a\"b\\c\nd"} 1`,
		"",
	}, "\n")
	if err := ValidatePrometheusText([]byte(good)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

func TestValidatorRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"bad metric name", "1bad 3\n"},
		{"bad value", "x notafloat\n"},
		{"bad label name", `x{__name__="y"} 1` + "\n"},
		{"unterminated label", `x{a="y} 1` + "\n"},
		{"duplicate TYPE", "# TYPE x counter\n# TYPE x counter\nx 1\n"},
		{"TYPE after samples", "x 1\n# TYPE x counter\n"},
		{"unknown type", "# TYPE x thing\n"},
		{"interleaved families", "a 1\nb 1\na 2\n"},
		{"histogram without +Inf", "# TYPE h histogram\n" + `h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n"},
		{"non-cumulative buckets", "# TYPE h histogram\n" + `h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 3\n"},
		{"unsorted bounds", "# TYPE h histogram\n" + `h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n" + `h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n"},
		{"count mismatch", "# TYPE h histogram\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n"},
		{"bucket without le", "# TYPE h histogram\n" + `h_bucket{x="1"} 1` + "\n"},
		{"bad timestamp", "x 1 notanint\n"},
		{"duplicate label", `x{a="1",a="2"} 1` + "\n"},
		{"bad escape in label value", `x{a="\t"} 1` + "\n"},
		{"dangling escape", `x{a="y\` + "\n"},
		{"labelled histogram missing per-set +Inf", "# TYPE h histogram\n" +
			`h_bucket{tenant="a",le="1"} 1` + "\n" +
			`h_bucket{tenant="a",le="+Inf"} 1` + "\n" +
			`h_count{tenant="a"} 1` + "\n" +
			`h_bucket{tenant="b",le="1"} 2` + "\n" +
			`h_count{tenant="b"} 2` + "\n"},
		{"labelled histogram per-set count mismatch", "# TYPE h histogram\n" +
			`h_bucket{tenant="a",le="+Inf"} 1` + "\n" +
			`h_count{tenant="a"} 1` + "\n" +
			`h_bucket{tenant="b",le="+Inf"} 2` + "\n" +
			`h_count{tenant="b"} 5` + "\n"},
		{"labelled histogram non-cumulative within one set", "# TYPE h histogram\n" +
			`h_bucket{tenant="a",le="1"} 5` + "\n" +
			`h_bucket{tenant="a",le="+Inf"} 3` + "\n" +
			`h_count{tenant="a"} 3` + "\n"},
	}
	for _, c := range cases {
		if err := ValidatePrometheusText([]byte(c.doc)); err == nil {
			t.Errorf("%s: validator accepted %q", c.name, c.doc)
		}
	}
}
