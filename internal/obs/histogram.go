package obs

import (
	"math"
	"strconv"
	"time"
)

// Histo identifies one fixed-boundary histogram in a Metrics instance.
// Like Counter, the inventory below is the single source of truth: the
// Prometheus metric names, Stats JSON and DESIGN.md §5.9 all derive
// from it. Values are recorded as int64 in the histogram's native unit
// (nanoseconds for the duration histograms); the exposition layer
// rescales to Prometheus base units (seconds) via the def's divisor.
type Histo int

const (
	// DeciderWallNs is the wall time of one decider call
	// (consistency, rcdp_*, minp_*, rcqp, certain_answers, ...), in ns.
	// The per-phase totals say where time went overall; this says how
	// it was distributed — one pathological c-instance shows up as a
	// tail bucket, not as a diluted average.
	DeciderWallNs Histo = iota
	// PlanExecNs is the wall time of one compiled-plan execution, in ns.
	PlanExecNs
	// ModelsAdmittedPerCall is the number of candidate models admitted
	// by the CCs during one decider call (observed only for calls that
	// checked at least one model).
	ModelsAdmittedPerCall
	// ModelsPrunedPerCall is the number of candidate models rejected by
	// the CCs during one decider call.
	ModelsPrunedPerCall
	// SearchItemsPerHit is the number of candidates the parallel search
	// engine probed before a decisive hit (observed on hits only).
	SearchItemsPerHit
	// IndexProbeRows is the fan-out of one index probe: how many rows a
	// LookupIndexed call returned.
	IndexProbeRows
	// CancelLatencyNs is the latency from a context deadline firing to
	// the decider returning its DeadlineError, in ns (observed only for
	// deadline-carrying contexts whose deadline has passed).
	CancelLatencyNs
	// QueueWaitNs is the time one decide request spent in the admission
	// queue before a worker slot freed up, in ns (internal/server). A
	// growing tail here with a flat DeciderWallNs means the concurrency
	// cap, not the deciders, is the bottleneck.
	QueueWaitNs
	// WALFsyncNs is the latency of one write-ahead-log fsync, in ns
	// (internal/durable). Every acknowledged PUT/DELETE pays exactly one
	// of these, so this histogram is the durability tax on the registry
	// mutation path.
	WALFsyncNs

	numHistos
)

// histoDef fixes one histogram's identity: its exposition base name
// (snake_case, unit-suffixed per Prometheus convention), help text,
// the divisor from recorded int64 values to the exposed unit (a
// divisor rather than a multiplier so ns→seconds stays exact in
// float64: 6e10/1e9 is exactly 60), and its ascending upper bucket
// bounds in recorded units. A final +Inf bucket is implicit. labels
// holds the bucket labels every snapshot and exposition renders: each
// bound in the exposed unit, then "+Inf"; init computes them once,
// with the JSON fragments AppendJSON writes: jsonHead opens the
// histogram's object up to its count, and jsonBuckets[i] opens bucket
// i's object up to its count.
type histoDef struct {
	name   string
	help   string
	div    float64
	bounds []int64
	labels []string

	jsonHead    string
	jsonBuckets []string
}

// maxHistoBuckets bounds len(bounds)+1 across all defs so Metrics can
// hold every histogram in one flat array of atomics.
const maxHistoBuckets = 12

var histoDefs = [numHistos]histoDef{
	DeciderWallNs: {
		name:   "decider_wall_seconds",
		help:   "wall time per decider entry-point call",
		div:    1e9,
		bounds: []int64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 6e10}, // 10µs … 60s
	},
	PlanExecNs: {
		name:   "plan_exec_seconds",
		help:   "wall time per compiled query-plan execution",
		div:    1e9,
		bounds: []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}, // 1µs … 1s
	},
	ModelsAdmittedPerCall: {
		name:   "models_admitted_per_call",
		help:   "candidate models admitted by the CCs per decider call",
		div:    1,
		bounds: []int64{0, 1, 2, 4, 8, 16, 64, 256, 1024},
	},
	ModelsPrunedPerCall: {
		name:   "models_pruned_per_call",
		help:   "candidate models rejected by the CCs per decider call",
		div:    1,
		bounds: []int64{0, 1, 2, 4, 8, 16, 64, 256, 1024, 4096},
	},
	SearchItemsPerHit: {
		name:   "search_items_per_hit",
		help:   "candidates probed per decisive parallel search",
		div:    1,
		bounds: []int64{1, 2, 4, 8, 16, 64, 256, 1024, 4096, 16384},
	},
	IndexProbeRows: {
		name:   "index_probe_rows",
		help:   "rows returned per hash-index probe",
		div:    1,
		bounds: []int64{0, 1, 2, 4, 8, 16, 64, 256},
	},
	CancelLatencyNs: {
		name:   "cancel_latency_seconds",
		help:   "latency from context deadline to decider return",
		div:    1e9,
		bounds: []int64{1e5, 1e6, 1e7, 1e8, 1e9, 1e10}, // 100µs … 10s
	},
	QueueWaitNs: {
		name:   "queue_wait_seconds",
		help:   "time spent in the admission queue before a decide slot",
		div:    1e9,
		bounds: []int64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}, // 10µs … 10s
	},
	WALFsyncNs: {
		name:   "wal_fsync_seconds",
		help:   "write-ahead-log fsync latency per committed registry mutation",
		div:    1e9,
		bounds: []int64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9}, // 10µs … 1s
	},
}

func init() {
	for h := range histoDefs {
		d := &histoDefs[h]
		d.labels = make([]string, 0, len(d.bounds)+1)
		for _, b := range d.bounds {
			d.labels = append(d.labels, formatBound(float64(b)/d.div))
		}
		d.labels = append(d.labels, "+Inf")
		d.jsonHead = `{"name":` + string(AppendJSONString(nil, d.name)) + `,"count":`
		d.jsonBuckets = make([]string, len(d.labels))
		for i, le := range d.labels {
			d.jsonBuckets[i] = `{"le":` + string(AppendJSONString(nil, le)) + `,"count":`
		}
	}
}

// String returns the histogram's canonical snake_case exposition name.
func (h Histo) String() string {
	if h < 0 || h >= numHistos {
		return "unknown"
	}
	return histoDefs[h].name
}

// HistoByName is the inverse of Histo.String.
func HistoByName(name string) (Histo, bool) {
	for h := Histo(0); h < numHistos; h++ {
		if histoDefs[h].name == name {
			return h, true
		}
	}
	return 0, false
}

// Observe records value v into histogram h. No-op on a nil receiver.
// Concurrent observations are atomic per bucket; a snapshot taken mid
// observation may see the bucket count and the sum momentarily out of
// step, which is the usual (and harmless) monitoring trade-off.
func (m *Metrics) Observe(h Histo, v int64) {
	if m == nil {
		return
	}
	m.histos[h].observe(&histoDefs[h], v, "")
}

// ObserveDuration records d into duration histogram h (recorded in ns).
func (m *Metrics) ObserveDuration(h Histo, d time.Duration) {
	m.Observe(h, d.Nanoseconds())
}

// HistoCount returns the number of observations recorded into h
// (0 on a nil receiver).
func (m *Metrics) HistoCount(h Histo) int64 {
	if m == nil {
		return 0
	}
	_, total := m.histos[h].load(&histoDefs[h])
	return total
}

// Merge adds src's counters, histograms and phase timings into m,
// making per-worker or per-run Metrics instances aggregatable. Both
// receivers may be nil (no-op). src should be quiescent; a concurrent
// writer on src yields a momentarily torn (but never corrupt) merge.
func (m *Metrics) Merge(src *Metrics) {
	if m == nil || src == nil {
		return
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := src.counters[c].Load(); v != 0 {
			m.counters[c].Add(v)
		}
	}
	for h := Histo(0); h < numHistos; h++ {
		dst, s := &m.histos[h], &src.histos[h]
		for i := 0; i <= len(histoDefs[h].bounds); i++ {
			if v := s.counts[i].Load(); v != 0 {
				dst.counts[i].Add(v)
			}
			if ex := s.exemplars[i].Load(); ex != nil {
				dst.exemplars[i].Store(ex)
			}
		}
		if v := s.sum.Load(); v != 0 {
			dst.sum.Add(v)
		}
	}
	src.phaseMu.Lock()
	phases := make(map[string]phaseAgg, len(src.phases))
	for name, agg := range src.phases {
		phases[name] = *agg
	}
	src.phaseMu.Unlock()
	m.phaseMu.Lock()
	if m.phases == nil && len(phases) > 0 {
		m.phases = map[string]*phaseAgg{}
	}
	for name, agg := range phases {
		dst := m.phases[name]
		if dst == nil {
			dst = &phaseAgg{}
			m.phases[name] = dst
		}
		dst.count += agg.count
		dst.ns += agg.ns
	}
	m.phaseMu.Unlock()
}

// HistogramBucket is one cumulative bucket of a histogram snapshot:
// Count observations had a value ≤ LE (LE is rendered in the exposed
// unit; the final bucket is "+Inf").
type HistogramBucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramStat is one histogram's snapshot: total observation count,
// the sum of observed values in the exposed unit, and the cumulative
// buckets, exactly as Prometheus exposes histograms.
type HistogramStat struct {
	Name    string            `json:"name"`
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []HistogramBucket `json:"buckets"`
}

// histoStat builds the snapshot of one histogram; ok is false, and no
// buckets are built, when it has no observations.
func (m *Metrics) histoStat(h Histo) (HistogramStat, bool) {
	d := &histoDefs[h]
	counts, total := m.histos[h].load(d)
	if total == 0 {
		return HistogramStat{Name: d.name}, false
	}
	return d.stat(counts, m.histos[h].sum.Load()), true
}

// load reads one histogram's per-bucket counts and their total.
func (hg *histo) load(d *histoDef) (counts [maxHistoBuckets]int64, total int64) {
	for i := range d.labels {
		counts[i] = hg.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

// stat renders per-bucket counts and a sum, both in recorded units, as
// a snapshot with cumulative buckets.
func (d *histoDef) stat(counts [maxHistoBuckets]int64, sum int64) HistogramStat {
	st := HistogramStat{
		Name:    d.name,
		Sum:     float64(sum) / d.div,
		Buckets: make([]HistogramBucket, len(d.labels)),
	}
	var cum int64
	for i, le := range d.labels {
		cum += counts[i]
		st.Buckets[i] = HistogramBucket{LE: le, Count: cum}
	}
	st.Count = cum
	return st
}

// formatBound renders a bucket bound or sum the way Prometheus does:
// shortest float representation.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1) of
// the recorded values, in the exposed unit: the smallest bucket bound
// whose cumulative count covers q of the observations, math.Inf(1)
// when only the +Inf bucket does. ok is false on an empty histogram or
// an out-of-range q. The bound is conservative the way Prometheus'
// histogram_quantile is: the true quantile lies at or below it.
func (st HistogramStat) Quantile(q float64) (float64, bool) {
	if st.Count == 0 || q <= 0 || q > 1 {
		return 0, false
	}
	target := int64(math.Ceil(q * float64(st.Count)))
	for _, b := range st.Buckets {
		if b.Count >= target {
			if b.LE == "+Inf" {
				return math.Inf(1), true
			}
			v, err := strconv.ParseFloat(b.LE, 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return math.Inf(1), true
}
