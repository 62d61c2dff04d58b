package obs

// This file is the Prometheus text exposition (format version 0.0.4)
// for Metrics. The encoder is hand-rolled on the stdlib — no client
// library — and emits one stable, grep-able document: every counter
// (zero or not, so scrape series never appear and disappear), the
// per-phase wall-clock totals as labelled counters, and every
// histogram in the standard _bucket/_sum/_count shape.
// ValidatePrometheusText (promvalidate.go) is the in-repo grammar
// check CI runs against this output.

import (
	"fmt"
	"io"
	"strings"
)

// MetricPrefix namespaces every exposed metric.
const MetricPrefix = "relcomplete_"

// ContentTypePrometheus is the Content-Type of the text exposition
// format, for HTTP handlers serving WritePrometheus output.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the current counters, phase timings and
// histograms in the Prometheus text exposition format. A nil receiver
// renders the full (all-zero) counter inventory, so a scrape endpoint
// stays well-formed before solving starts.
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.writeExposition(w, false) }

// writeExposition renders the classic text format, or with om the
// OpenMetrics one (openmetrics.go), which differs in three places:
// counter families are declared under their bare name, bucket samples
// carry their exemplars, and the document ends with # EOF.
func (m *Metrics) writeExposition(w io.Writer, om bool) error {
	bw := &errWriter{w: w}
	// counterFamily declares a counter family whose samples are
	// name_total.
	counterFamily := func(name, help string) {
		if !om {
			name += "_total"
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", name, help)
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
	}
	for c := Counter(0); c < numCounters; c++ {
		name := MetricPrefix + c.String()
		counterFamily(name, counterHelp[c])
		fmt.Fprintf(bw, "%s_total %d\n", name, m.Get(c))
		// Labelled attribution series share the family block: same
		// TYPE, samples contiguous after the unlabelled total.
		m.counterVec(c).write(bw, name+"_total")
	}

	// Phase timings: two labelled counter families, mirroring the
	// _sum/_count halves of a summary without quantiles.
	var phases []PhaseStat
	if m != nil {
		phases = m.Snapshot().Phases // sorted by name
	}
	secs := MetricPrefix + "phase_seconds"
	counterFamily(secs, "accumulated wall time per solver phase")
	for _, ph := range phases {
		fmt.Fprintf(bw, "%s_total{phase=%q} %s\n", secs, ph.Name, formatBound(ph.Ms/1e3))
	}
	calls := MetricPrefix + "phase_calls"
	counterFamily(calls, "calls per solver phase")
	for _, ph := range phases {
		fmt.Fprintf(bw, "%s_total{phase=%q} %d\n", calls, ph.Name, ph.Count)
	}

	for h := Histo(0); h < numHistos; h++ {
		d := &histoDefs[h]
		name := MetricPrefix + d.name
		fmt.Fprintf(bw, "# HELP %s %s\n", name, d.help)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		st := histoExposition(m, h)
		for i, b := range st.Buckets {
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d", name, b.LE, b.Count)
			if om && m != nil {
				if ex, ok := loadExemplar(&m.histos[h].exemplars[i]); ok {
					writeExemplar(bw, ex)
				}
			}
			io.WriteString(bw, "\n")
		}
		fmt.Fprintf(bw, "%s_sum %s\n", name, formatBound(st.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", name, st.Count)
		m.histoVec(h).write(bw, name, om)
	}

	writeRuntimeGauges(bw)
	if om {
		io.WriteString(bw, "# EOF\n")
	}
	return bw.err
}

// PrometheusText is WritePrometheus into a string.
func (m *Metrics) PrometheusText() string {
	var b strings.Builder
	m.WritePrometheus(&b)
	return b.String()
}

// histoExposition is histoStat without the emptiness filter: scrape
// output exposes every histogram, observed or not.
func histoExposition(m *Metrics, h Histo) HistogramStat {
	d := &histoDefs[h]
	var counts [maxHistoBuckets]int64
	var sum int64
	if m != nil {
		counts, _ = m.histos[h].load(d)
		sum = m.histos[h].sum.Load()
	}
	return d.stat(counts, sum)
}

// counterHelp carries the HELP text per counter, kept alongside the
// name table so the round-trip test catches a counter added without
// documentation.
var counterHelp = [numCounters]string{
	ValuationsEnumerated:  "total valuations of c-table variables tried",
	ModelsChecked:         "candidate models tested against the CCs",
	ModelsAdmitted:        "candidates that satisfied every CC",
	ExtensionsTested:      "candidate extensions tested (RCDP/MINP searches)",
	CounterexamplesFound:  "witnesses of relative incompleteness found",
	CCChecks:              "containment-constraint evaluations",
	CCViolations:          "CC evaluations that failed",
	BudgetErrors:          "decides aborted by a budget cap, one per aborted decide",
	PlanCompilations:      "query plans compiled",
	PlanCacheHits:         "plan reuses from a problem- or CC-level cache",
	PlanRuns:              "executions of a compiled plan",
	RowsProbed:            "rows fetched by atom nodes (scan or index probe)",
	RowsEmitted:           "rows that survived an atom node's binding checks",
	ShortCircuits:         "first-witness short-circuits (Bool / exists / or)",
	NaiveEvaluations:      "evaluations through the naive (non-plan) evaluator",
	DerivedTuples:         "tuples derived by FP fixpoint evaluation",
	IndexBuilds:           "hash indexes built from scratch",
	IndexInserts:          "incremental index maintenance inserts",
	IndexProbes:           "LookupIndexed probes answered from an index",
	IndexProbeHits:        "probes that found at least one row",
	IndexProbeMisses:      "probes that found none",
	ValuesInterned:        "retired with the value interner; always 0",
	InternHits:            "retired with the value interner; always 0",
	RHSCacheHits:          "RHS answer-set reuses",
	RHSCacheMisses:        "RHS answer sets computed fresh",
	RHSCacheInvalidations: "cached RHS answer sets dropped as stale",
	SearchItems:           "items handed to search workers",
	SearchRacesResolved:   "hits discarded for a lower-index winner",
	SearchCancellations:   "early-stop signals issued",
	SearchCancelNs:        "total ns between stop signal and worker drain",
	DeadlineErrors:        "decisions aborted by context deadline or cancellation",
	ServerRequests:        "HTTP API requests received",
	ServerDecides:         "decide calls that reached a decider",
	ServerOverloads:       "decide requests rejected by admission control",
	ServerProblemsLoaded:  "problems loaded into the registry",
	ServerEvictions:       "problems evicted by the resident-bytes cap",
	WALAppends:            "registry mutations committed to the write-ahead log",
	WALReplayed:           "WAL records applied during recovery replay",
	SnapshotsWritten:      "registry snapshots written",
	Recoveries:            "successful snapshot+WAL recovery replays",
	RecoveryDiscards:      "torn or corrupt WAL tail records discarded at recovery",
	BreakerOpens:          "per-tenant circuit breakers tripped open",
	BreakerShortCircuits:  "decide requests answered 503 by an open breaker",
	RateLimited:           "decide requests rejected by a per-tenant token bucket",
	ShedTotal:             "decide requests shed by queue-delay overload control",
}

// errWriter latches the first write error so the exposition loop stays
// unconditional.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return len(p), nil
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
		return len(p), nil
	}
	return n, nil
}
