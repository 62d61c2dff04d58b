package promcheck

import (
	"strings"
	"testing"
)

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
