package obs

// This file renders the slow-op dump: the post-hoc incident record a
// decider writes when one call exceeds the configured threshold. The
// dump is the flight recorder's payoff — the slow call's span tree,
// kept by its trace's SpanRecorder, plus the histogram distributions
// at that moment — and its format is pinned by a golden test
// (testdata/slowop.golden), because operators grep these out of
// service logs.

import (
	"bytes"
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
// "=== END SLOW OP" markers. It reaches w in one Write, so dumps of
// concurrent calls into one shared sink do not interleave.
func WriteSlowOp(w io.Writer, op string, elapsed, threshold time.Duration, sp *Span, m *Metrics) {
	traceID := "-"
	if t := sp.Trace(); !t.IsZero() {
		traceID = t.String()
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "=== SLOW OP op=%s elapsed=%v threshold=%v trace_id=%s ===\n", op, elapsed, threshold, traceID)
	if sp == nil {
		fmt.Fprintln(&b, "spans: disabled")
	} else {
		writeSpanTree(&b, sp)
	}
	if m == nil {
		fmt.Fprintln(&b, "histograms: disabled")
	} else {
		hists := m.Snapshot().Histograms
		fmt.Fprintf(&b, "histograms: %d with observations\n", len(hists))
		for _, h := range hists {
			fmt.Fprintf(&b, "  %s count=%d sum=%s\n", h.Name, h.Count, formatBound(h.Sum))
			for _, bk := range h.Buckets {
				fmt.Fprintf(&b, "    le=%s %d\n", bk.LE, bk.Count)
			}
		}
	}
	fmt.Fprintf(&b, "=== END SLOW OP op=%s ===\n", op)
	w.Write(b.Bytes())
}

// writeSpanTree writes the retained spans of sp's subtree, sp first.
func writeSpanTree(w *bytes.Buffer, sp *Span) {
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
