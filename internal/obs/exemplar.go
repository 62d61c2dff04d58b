package obs

// Histogram exemplars tie the aggregate view back to individual
// requests: each histogram bucket can remember the most recent traced
// observation that landed in it, so a p99 spike in
// relcomplete_decider_wall_seconds carries the trace id of a request
// that actually sat in the tail bucket. Exemplars are recorded only
// when a trace id is present — untraced observations go through the
// plain atomic Observe path and pay nothing — and are exposed only by
// the OpenMetrics exposition (openmetrics.go); the Prometheus 0.0.4
// text format has no exemplar syntax.

import (
	"sync/atomic"
	"time"
)

// Exemplar is one traced observation attached to a histogram bucket:
// the trace id of the request that produced it, the observed value in
// the histogram's exposed unit (seconds for duration histograms), and
// when it was recorded. Stored per bucket behind an atomic pointer;
// each new traced observation in a bucket replaces the previous
// exemplar, so a bucket always carries its most recent traced sample.
type Exemplar struct {
	TraceID string    `json:"trace_id"`
	Value   float64   `json:"value"`
	Time    time.Time `json:"time"`
}

// bucket returns the index of the bucket value v falls into: the first
// bound ≥ v, or the implicit +Inf bucket past the last bound.
func (d *histoDef) bucket(v int64) int {
	i := 0
	for i < len(d.bounds) && v > d.bounds[i] {
		i++
	}
	return i
}

// observe records v into hg under def d, attaching traceID as the
// bucket's exemplar when non-empty. Shared by Metrics.Observe(Exemplar)
// and HistogramVec.Observe(Exemplar).
func (hg *histo) observe(d *histoDef, v int64, traceID string) {
	i := d.bucket(v)
	hg.counts[i].Add(1)
	hg.sum.Add(v)
	if traceID != "" {
		hg.exemplars[i].Store(&Exemplar{
			TraceID: traceID,
			Value:   float64(v) / d.div,
			Time:    time.Now(),
		})
	}
}

// ObserveExemplar is Observe with trace attribution: value v is
// recorded into histogram h and, when traceID is non-empty, the bucket
// it lands in remembers {traceID, v, now} as its exemplar. With an
// empty traceID it is exactly Observe. No-op on a nil receiver.
func (m *Metrics) ObserveExemplar(h Histo, v int64, traceID string) {
	if m == nil {
		return
	}
	m.histos[h].observe(&histoDefs[h], v, traceID)
}

// ObserveExemplar is HistogramVec.Observe with trace attribution; see
// Metrics.ObserveExemplar. No-op on a nil receiver.
func (v *HistogramVec) ObserveExemplar(value int64, traceID string, labelValues ...string) {
	if v == nil {
		return
	}
	v.sample(labelValues).observe(v.def, value, traceID)
}

// BucketExemplar returns histogram h's exemplar for the bucket value v
// would fall into, ok reporting whether one has been recorded. Nil
// receivers and exemplar-free buckets return ok=false.
func (m *Metrics) BucketExemplar(h Histo, v int64) (Exemplar, bool) {
	if m == nil {
		return Exemplar{}, false
	}
	return loadExemplar(&m.histos[h].exemplars[histoDefs[h].bucket(v)])
}

func loadExemplar(p *atomic.Pointer[Exemplar]) (Exemplar, bool) {
	if ex := p.Load(); ex != nil {
		return *ex, true
	}
	return Exemplar{}, false
}
