package obs

// This file renders the slow-op dump: the post-hoc incident record a
// decider writes when one call exceeds the configured threshold. The
// dump is the flight recorder's payoff — the slow call's span tree,
// kept by its trace's SpanRecorder, plus the histogram distributions
// at that moment — and its format is pinned by a golden test
// (testdata/slowop.golden), because operators grep these out of
// service logs.

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// WriteSlowOp writes the incident dump for one slow decider call: a
// header naming the operation, its elapsed time, the threshold it
// crossed and the call's trace id ("-" when the call was untraced, so
// log-correlation greps always find the field); the call's span tree,
// read from its trace's recorder (sp is the call's own span, already
// ended): one line per span with its duration, status and attributes,
// each child under its parent in start order; and the non-empty
// histogram snapshots of m. sp and m may each be nil (rendered as
// "disabled"). The dump is bracketed by grep-able "=== SLOW OP" /
// "=== END SLOW OP" markers.
func WriteSlowOp(w io.Writer, op string, elapsed, threshold time.Duration, sp *Span, m *Metrics) {
	traceID := "-"
	if t := sp.Trace(); !t.IsZero() {
		traceID = t.String()
	}
	fmt.Fprintf(w, "=== SLOW OP op=%s elapsed=%v threshold=%v trace_id=%s ===\n", op, elapsed, threshold, traceID)
	if sp == nil {
		fmt.Fprintln(w, "spans: disabled")
	} else {
		writeSpanTree(w, sp)
	}
	if m == nil {
		fmt.Fprintln(w, "histograms: disabled")
	} else {
		hists := m.Snapshot().Histograms
		fmt.Fprintf(w, "histograms: %d with observations\n", len(hists))
		for _, h := range hists {
			fmt.Fprintf(w, "  %s count=%d sum=%s\n", h.Name, h.Count, formatBound(h.Sum))
			for _, b := range h.Buckets {
				fmt.Fprintf(w, "    le=%s %d\n", b.LE, b.Count)
			}
		}
	}
	fmt.Fprintf(w, "=== END SLOW OP op=%s ===\n", op)
}

// writeSpanTree writes the retained spans of sp's subtree, sp first.
func writeSpanTree(w io.Writer, sp *Span) {
	spans := sp.rec.Spans()
	id := sp.id.String()
	children := map[string][]SpanData{}
	var lines []string
	for _, d := range spans {
		children[d.ParentID] = append(children[d.ParentID], d)
	}
	var walk func(d SpanData, depth int)
	walk = func(d SpanData, depth int) {
		line := fmt.Sprintf("%*s%s %.3fms", 2*depth, "", d.Name, d.DurationMS)
		if d.Status != "" {
			line += " status=" + d.Status
		}
		keys := make([]string, 0, len(d.Attrs))
		for k := range d.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += " " + k + "=" + d.Attrs[k]
		}
		lines = append(lines, line)
		kids := children[d.SpanID]
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	for _, d := range spans {
		if d.SpanID == id {
			walk(d, 1)
		}
	}
	fmt.Fprintf(w, "spans: %d in the call's tree, %d overwritten\n", len(lines), sp.rec.Dropped())
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
