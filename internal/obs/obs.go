// Package obs is the solver's observability layer: cheap atomic
// counters, per-phase wall-clock timings, histograms, and request
// spans that carry the structured decision trace, shared by core,
// eval, relation, cc, search, the server and the CLIs.
//
// The package is built around one invariant: a nil *Metrics (and a nil
// *Span) is a valid, fully inert instance. Every method nil-checks
// its receiver, so instrumented code paths never branch on "is
// observability on?" — they unconditionally call m.Add(...) and pay a
// single predictable nil test when disabled. Hot loops go one step
// further and accumulate into plain local integers, flushing once per
// run; the disabled-path overhead budget (≤2% on the headline
// benchmarks) is enforced by BenchmarkObsOverhead at the repo root.
package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one monotonic counter in a Metrics instance. The
// inventory below is the single source of truth: Stats field names,
// expvar keys and DESIGN.md §5.9 all derive from it.
type Counter int

const (
	// core: enumeration-shaped decision procedures.
	ValuationsEnumerated Counter = iota // total valuations of c-table variables tried
	ModelsChecked                       // candidate models tested against the CCs
	ModelsAdmitted                      // candidates that satisfied every CC
	ExtensionsTested                    // candidate extensions tested (RCDP/MINP searches)
	CounterexamplesFound                // witnesses of relative incompleteness found
	CCChecks                            // containment-constraint evaluations
	CCViolations                        // CC evaluations that failed
	BudgetErrors                        // decides aborted by a budget cap, one per aborted decide

	// eval: compiled query plans.
	PlanCompilations // query plans compiled
	PlanCacheHits    // plan reuses from a problem- or CC-level cache
	PlanRuns         // executions of a compiled plan
	RowsProbed       // rows fetched by atom nodes (scan or index probe)
	RowsEmitted      // rows that survived an atom node's binding checks
	ShortCircuits    // first-witness short-circuits (Bool / ∃ / ∨)
	NaiveEvaluations // evaluations through the naive (non-plan) evaluator
	DerivedTuples    // tuples derived by FP fixpoint evaluation

	// relation: lazy per-position hash indexes.
	IndexBuilds      // hash indexes built from scratch
	IndexInserts     // incremental index maintenance inserts
	IndexProbes      // LookupIndexed probes answered from an index
	IndexProbeHits   // probes that found at least one row
	IndexProbeMisses // probes that found none

	// relation: retired with the value interner; always 0, kept so
	// readers of these names still resolve.
	ValuesInterned
	InternHits

	// cc: memoised RHS answer sets.
	RHSCacheHits          // RHS answer-set reuses
	RHSCacheMisses        // RHS answer sets computed fresh
	RHSCacheInvalidations // cached RHS answer sets dropped as stale

	// search: parallel first-hit engine.
	SearchItems         // items handed to workers
	SearchRacesResolved // hits discarded for a lower-index winner
	SearchCancellations // early-stop signals issued
	SearchCancelNs      // total ns between stop signal and worker drain

	// robustness: deadline-aware deciders.
	DeadlineErrors // decisions aborted by context deadline or cancellation

	// server: the rcserved HTTP daemon (internal/server).
	ServerRequests       // HTTP API requests received
	ServerDecides        // decide calls that reached a decider
	ServerOverloads      // decide requests rejected by admission control (429)
	ServerProblemsLoaded // problems loaded into the registry
	ServerEvictions      // problems evicted by the resident-bytes cap

	// durability & isolation: the crash-safe registry and per-tenant
	// overload control (internal/durable, internal/server).
	WALAppends           // registry mutations committed to the write-ahead log
	WALReplayed          // WAL records applied during recovery replay
	SnapshotsWritten     // registry snapshots written (periodic + drain)
	Recoveries           // successful snapshot+WAL recovery replays
	RecoveryDiscards     // torn/corrupt WAL tail records discarded at recovery
	BreakerOpens         // per-tenant circuit breakers tripped open
	BreakerShortCircuits // decide requests answered 503 by an open breaker
	RateLimited          // decide requests rejected by a per-tenant token bucket
	ShedTotal            // decide requests shed by queue-delay overload control

	numCounters
)

// counterNames maps counters to their snake_case JSON / expvar names.
var counterNames = [numCounters]string{
	ValuationsEnumerated:  "valuations_enumerated",
	ModelsChecked:         "models_checked",
	ModelsAdmitted:        "models_admitted",
	ExtensionsTested:      "extensions_tested",
	CounterexamplesFound:  "counterexamples_found",
	CCChecks:              "cc_checks",
	CCViolations:          "cc_violations",
	BudgetErrors:          "budget_errors",
	PlanCompilations:      "plan_compilations",
	PlanCacheHits:         "plan_cache_hits",
	PlanRuns:              "plan_runs",
	RowsProbed:            "rows_probed",
	RowsEmitted:           "rows_emitted",
	ShortCircuits:         "short_circuits",
	NaiveEvaluations:      "naive_evaluations",
	DerivedTuples:         "derived_tuples",
	IndexBuilds:           "index_builds",
	IndexInserts:          "index_inserts",
	IndexProbes:           "index_probes",
	IndexProbeHits:        "index_probe_hits",
	IndexProbeMisses:      "index_probe_misses",
	ValuesInterned:        "values_interned",
	InternHits:            "intern_hits",
	RHSCacheHits:          "rhs_cache_hits",
	RHSCacheMisses:        "rhs_cache_misses",
	RHSCacheInvalidations: "rhs_cache_invalidations",
	SearchItems:           "search_items",
	SearchRacesResolved:   "search_races_resolved",
	SearchCancellations:   "search_cancellations",
	SearchCancelNs:        "search_cancel_ns",
	DeadlineErrors:        "deadline_errors",
	ServerRequests:        "server_requests",
	ServerDecides:         "server_decides",
	ServerOverloads:       "server_overloads",
	ServerProblemsLoaded:  "server_problems_loaded",
	ServerEvictions:       "server_evictions",
	WALAppends:            "wal_appends",
	WALReplayed:           "wal_replayed",
	SnapshotsWritten:      "snapshots_written",
	Recoveries:            "recoveries",
	RecoveryDiscards:      "recovery_discards",
	BreakerOpens:          "breaker_opens",
	BreakerShortCircuits:  "breaker_short_circuits",
	RateLimited:           "rate_limited",
	ShedTotal:             "shed_total",
}

// String returns the counter's canonical snake_case name.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "unknown"
	}
	return counterNames[c]
}

// CounterByName is the inverse of Counter.String.
func CounterByName(name string) (Counter, bool) {
	for c := Counter(0); c < numCounters; c++ {
		if counterNames[c] == name {
			return c, true
		}
	}
	return 0, false
}

// Metrics is a set of atomic counters, fixed-boundary histograms and
// named phase timings. The zero value is ready to use; a nil *Metrics
// is inert. All methods are safe for concurrent use.
type Metrics struct {
	counters [numCounters]atomic.Int64
	histos   [numHistos]histo

	phaseMu sync.Mutex
	phases  map[string]*phaseAgg

	// Labelled extensions of counter/histogram families (labeled.go).
	// Lazily allocated by LabeledCounter/LabeledHisto so a plain
	// Metrics (the common case) stays one flat allocation.
	vecMu       sync.Mutex
	counterVecs map[Counter]*CounterVec
	histoVecs   map[Histo]*HistogramVec
}

// histo is one histogram's storage: per-bucket observation counts
// (bucket i counts values ≤ bounds[i]; the bucket after the last bound
// is +Inf), the running sum of observed values, and an optional
// per-bucket exemplar — the most recent traced observation that landed
// in the bucket (exemplar.go). Bounds live in histoDefs, so the
// storage is a flat array of atomics.
type histo struct {
	counts    [maxHistoBuckets]atomic.Int64
	sum       atomic.Int64
	exemplars [maxHistoBuckets]atomic.Pointer[Exemplar]
}

type phaseAgg struct {
	count int64
	ns    int64
}

// NewMetrics returns an empty metrics instance.
func NewMetrics() *Metrics { return &Metrics{} }

// Add increments counter c by n. No-op on a nil receiver.
func (m *Metrics) Add(c Counter, n int64) {
	if m == nil {
		return
	}
	m.counters[c].Add(n)
}

// Inc increments counter c by one. No-op on a nil receiver.
func (m *Metrics) Inc(c Counter) {
	if m == nil {
		return
	}
	m.counters[c].Add(1)
}

// Get returns the current value of counter c (0 on a nil receiver).
func (m *Metrics) Get(c Counter) int64 {
	if m == nil {
		return 0
	}
	return m.counters[c].Load()
}

// ObservePhase records one call of the named solver phase that took
// d. No-op on a nil receiver.
func (m *Metrics) ObservePhase(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.phaseMu.Lock()
	if m.phases == nil {
		m.phases = map[string]*phaseAgg{}
	}
	agg := m.phases[name]
	if agg == nil {
		agg = &phaseAgg{}
		m.phases[name] = agg
	}
	agg.count++
	agg.ns += d.Nanoseconds()
	m.phaseMu.Unlock()
}

// PhaseStat is one named phase's aggregate in a Stats snapshot.
type PhaseStat struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Ms    float64 `json:"ms"`
}

// Stats is a point-in-time snapshot of a Metrics instance, shaped for
// encoding/json (rcheck -json, the rcbench debug endpoint) and for
// human summaries.
type Stats struct {
	Counters   map[string]int64 `json:"counters"`
	Phases     []PhaseStat      `json:"phases,omitempty"`
	Histograms []HistogramStat  `json:"histograms,omitempty"`
}

// Snapshot captures the current counter, histogram and phase values.
// Zero-valued counters and observation-free histograms are omitted so
// the JSON stays readable. A nil receiver yields an empty (but
// non-nil-map) snapshot.
func (m *Metrics) Snapshot() Stats {
	s := Stats{Counters: map[string]int64{}}
	if m == nil {
		return s
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := m.counters[c].Load(); v != 0 {
			s.Counters[c.String()] = v
		}
	}
	for h := Histo(0); h < numHistos; h++ {
		if st, ok := m.histoStat(h); ok {
			s.Histograms = append(s.Histograms, st)
		}
	}
	m.phaseMu.Lock()
	for name, agg := range m.phases {
		s.Phases = append(s.Phases, PhaseStat{
			Name:  name,
			Count: agg.count,
			Ms:    float64(agg.ns) / 1e6,
		})
	}
	m.phaseMu.Unlock()
	sort.Slice(s.Phases, func(i, j int) bool { return s.Phases[i].Name < s.Phases[j].Name })
	return s
}

// MarshalJSON serialises the snapshot of m, making a *Metrics directly
// usable as an expvar.Var-style JSON value.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Snapshot())
}

// String renders the snapshot as JSON; together with MarshalJSON this
// makes *Metrics implement expvar.Var, so a live instance can be
// published under /debug/vars directly.
func (m *Metrics) String() string {
	b, err := m.MarshalJSON()
	if err != nil {
		return "{}"
	}
	return string(b)
}
