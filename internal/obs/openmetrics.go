package obs

// This file is the OpenMetrics 1.0 text exposition for Metrics — the
// sibling of prom.go's 0.0.4 format, and the only format that can
// carry histogram exemplars (exemplar.go). The structural differences
// from the classic format are deliberate and small: counter families
// are declared under their bare name with samples suffixed _total,
// bucket samples may trail a `# {trace_id="…"} value timestamp`
// exemplar, and the document ends with the mandatory `# EOF`
// terminator. /metrics serves this format on content negotiation
// (Accept: application/openmetrics-text) and internal/promcheck's
// ValidateOpenMetricsText is the in-repo grammar check CI runs against
// it.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ContentTypeOpenMetrics is the Content-Type of the OpenMetrics text
// exposition, for HTTP handlers serving WriteOpenMetrics output.
const ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics renders the current counters, phase timings and
// histograms (with their bucket exemplars, where recorded) in the
// OpenMetrics text exposition format, terminated by `# EOF`. A nil
// receiver renders the full all-zero inventory, like WritePrometheus.
func (m *Metrics) WriteOpenMetrics(w io.Writer) error { return m.writeExposition(w, true) }

// OpenMetricsText is WriteOpenMetrics into a string.
func (m *Metrics) OpenMetricsText() string {
	var b strings.Builder
	m.WriteOpenMetrics(&b)
	return b.String()
}

// writeExemplar appends one ` # {trace_id="…"} value timestamp`
// exemplar suffix to a bucket sample line (no trailing newline — the
// caller owns the line).
func writeExemplar(w *errWriter, ex Exemplar) {
	ts := float64(ex.Time.UnixNano()) / 1e9
	fmt.Fprintf(w, " # {trace_id=\"%s\"} %s %s",
		promEscape(ex.TraceID), formatBound(ex.Value), strconv.FormatFloat(ts, 'f', 3, 64))
}

// WantsOpenMetrics reports whether an HTTP Accept header value (or the
// explicit format=openmetrics query override the debug mux also
// honours) selects the OpenMetrics exposition over the classic text
// format. The check is a containment test, not a full q-value
// negotiation: any client that lists application/openmetrics-text at
// all gets it.
func WantsOpenMetrics(accept, formatQuery string) bool {
	return formatQuery == "openmetrics" || strings.Contains(accept, "application/openmetrics-text")
}
