package obs

// This file adds labelled series to the exposition: a counter or
// histogram family from the fixed inventory can carry an additional
// set of labelled series (per tenant, per decider, per outcome) next
// to its unlabelled process-wide sample. rcserved uses this for
// per-tenant attribution: relcomplete_server_decides_total{problem=,
// decider=,outcome=} and relcomplete_decider_wall_seconds{problem=}.
//
// Label cardinality is bounded by construction: each vec admits at
// most maxSeries distinct label-value combinations, and every later
// combination folds into one reserved overflow series whose label
// values are all "other". A misbehaving tenant namespace (thousands of
// problem names) therefore costs one extra series, not an unbounded
// scrape document.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultMaxLabelSeries bounds the distinct label-value combinations a
// vec admits before folding new ones into the "other" overflow series.
const DefaultMaxLabelSeries = 64

// OverflowLabelValue is the label value of every label on the
// overflow series.
const OverflowLabelValue = "other"

// labelKey joins label values into one map key. 0x1f (unit separator)
// cannot collide with itself inside a value in a way that merges two
// distinct tuples unless a value itself contains the separator, which
// the escaping below preserves in the exposition anyway; the key is
// only an interning handle.
func labelKey(values []string) string {
	return strings.Join(values, "\x1f")
}

// promEscape renders a label value per the text exposition format:
// backslash, double quote and newline are escaped, everything else is
// passed through.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// labelPairs renders {name="value",...} for a series, with extra
// pairs (the histogram le bound) appended last.
func labelPairs(names, values []string, extra ...string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, promEscape(values[i]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extra[i], promEscape(extra[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// CounterVec is a labelled extension of one counter family. The zero
// value is not usable; obtain one from Metrics.LabeledCounter. A nil
// *CounterVec is inert.
type CounterVec struct {
	labels    []string
	maxSeries int

	mu     sync.Mutex
	series map[string]*counterSeries
}

type counterSeries struct {
	values []string
	n      atomic.Int64
}

// SetMaxSeries adjusts the cardinality cap (n <= 0 leaves it
// unchanged) and returns the vec for chaining at registration time.
// Lowering the cap below the current series count only affects new
// combinations. No-op on a nil receiver.
func (v *CounterVec) SetMaxSeries(n int) *CounterVec {
	if v == nil || n <= 0 {
		return v
	}
	v.mu.Lock()
	v.maxSeries = n
	v.mu.Unlock()
	return v
}

// Add increments the series identified by labelValues by n, creating
// it on first use (or folding into the overflow series past the
// cardinality cap). len(labelValues) must match the vec's label names.
// No-op on a nil receiver.
func (v *CounterVec) Add(n int64, labelValues ...string) {
	if v == nil {
		return
	}
	v.seriesFor(labelValues).n.Add(n)
}

// Inc is Add(1, labelValues...).
func (v *CounterVec) Inc(labelValues ...string) { v.Add(1, labelValues...) }

// Get returns the current value of the series identified by
// labelValues (0 when absent or on a nil receiver). It never creates
// a series.
func (v *CounterVec) Get(labelValues ...string) int64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s := v.series[labelKey(labelValues)]; s != nil {
		return s.n.Load()
	}
	return 0
}

// Series returns the number of live series (including the overflow
// series once used).
func (v *CounterVec) Series() int {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.series)
}

func (v *CounterVec) seriesFor(labelValues []string) *counterSeries {
	if len(labelValues) != len(v.labels) {
		panic(fmt.Sprintf("obs: CounterVec got %d label values for %d labels", len(labelValues), len(v.labels)))
	}
	key := labelKey(labelValues)
	v.mu.Lock()
	defer v.mu.Unlock()
	if s := v.series[key]; s != nil {
		return s
	}
	values := labelValues
	if len(v.series) >= v.maxSeries {
		values = overflowValues(len(v.labels))
		key = labelKey(values)
		if s := v.series[key]; s != nil {
			return s
		}
	}
	s := &counterSeries{values: append([]string(nil), values...)}
	v.series[key] = s
	return s
}

// write emits the vec's series as samples of family name, label keys
// sorted for a stable document.
func (v *CounterVec) write(w *errWriter, name string) {
	if v == nil {
		return
	}
	v.mu.Lock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		labels string
		n      int64
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		s := v.series[k]
		rows = append(rows, row{labelPairs(v.labels, s.values), s.n.Load()})
	}
	v.mu.Unlock()
	for _, r := range rows {
		fmt.Fprintf(w, "%s%s %d\n", name, r.labels, r.n)
	}
}

// HistogramVec is a labelled extension of one histogram family,
// sharing the family's fixed bucket bounds. Obtain one from
// Metrics.LabeledHisto; a nil *HistogramVec is inert.
type HistogramVec struct {
	def       *histoDef
	labels    []string
	maxSeries int

	mu     sync.Mutex
	series map[string]*histoSeries
}

type histoSeries struct {
	values []string
	h      histo
}

// SetMaxSeries adjusts the cardinality cap; see CounterVec.SetMaxSeries.
func (v *HistogramVec) SetMaxSeries(n int) *HistogramVec {
	if v == nil || n <= 0 {
		return v
	}
	v.mu.Lock()
	v.maxSeries = n
	v.mu.Unlock()
	return v
}

// Observe records value (in the family's native unit) into the series
// identified by labelValues, with the same creation and overflow rules
// as CounterVec.Add. No-op on a nil receiver.
func (v *HistogramVec) Observe(value int64, labelValues ...string) {
	if v == nil {
		return
	}
	v.seriesFor(labelValues).h.observe(v.def, value, "")
}

// SeriesCount returns the observation count of the series identified
// by labelValues (0 when absent). It never creates a series.
func (v *HistogramVec) SeriesCount(labelValues ...string) int64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	s := v.series[labelKey(labelValues)]
	v.mu.Unlock()
	if s == nil {
		return 0
	}
	_, total := s.h.load(v.def)
	return total
}

// Series returns the number of live series.
func (v *HistogramVec) Series() int {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.series)
}

func (v *HistogramVec) seriesFor(labelValues []string) *histoSeries {
	if len(labelValues) != len(v.labels) {
		panic(fmt.Sprintf("obs: HistogramVec got %d label values for %d labels", len(labelValues), len(v.labels)))
	}
	key := labelKey(labelValues)
	v.mu.Lock()
	defer v.mu.Unlock()
	if s := v.series[key]; s != nil {
		return s
	}
	values := labelValues
	if len(v.series) >= v.maxSeries {
		values = overflowValues(len(v.labels))
		key = labelKey(values)
		if s := v.series[key]; s != nil {
			return s
		}
	}
	s := &histoSeries{values: append([]string(nil), values...)}
	v.series[key] = s
	return s
}

// write emits every series' _bucket/_sum/_count samples for family
// name, series sorted by label key.
func (v *HistogramVec) write(w *errWriter, name string) {
	v.writeSeries(w, name, false)
}

// writeExemplars is write for the OpenMetrics exposition: bucket
// samples trail their recorded exemplar, when one exists.
func (v *HistogramVec) writeExemplars(w *errWriter, name string) {
	v.writeSeries(w, name, true)
}

func (v *HistogramVec) writeSeries(w *errWriter, name string, exemplars bool) {
	if v == nil {
		return
	}
	v.mu.Lock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		values []string
		counts []int64
		exs    []*Exemplar
		sum    int64
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		s := v.series[k]
		counts := make([]int64, len(v.def.bounds)+1)
		var exs []*Exemplar
		if exemplars {
			exs = make([]*Exemplar, len(counts))
		}
		for i := range counts {
			counts[i] = s.h.counts[i].Load()
			if exemplars {
				exs[i] = s.h.exemplars[i].Load()
			}
		}
		rows = append(rows, row{values: s.values, counts: counts, exs: exs, sum: s.h.sum.Load()})
	}
	v.mu.Unlock()
	for _, r := range rows {
		var cum int64
		for i, c := range r.counts {
			cum += c
			fmt.Fprintf(w, "%s_bucket%s %d", name, labelPairs(v.labels, r.values, "le", v.def.labels[i]), cum)
			if r.exs != nil && r.exs[i] != nil {
				writeExemplar(w, *r.exs[i])
			}
			fmt.Fprint(w, "\n")
		}
		fmt.Fprintf(w, "%s_sum%s %s\n", name, labelPairs(v.labels, r.values), formatBound(float64(r.sum)/v.def.div))
		fmt.Fprintf(w, "%s_count%s %d\n", name, labelPairs(v.labels, r.values), cum)
	}
}

func overflowValues(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = OverflowLabelValue
	}
	return out
}

// LabeledCounter returns (creating on first use) the labelled
// extension of counter c's exposition family. The labelled series are
// emitted inside the same family block as the unlabelled process-wide
// sample, so the family keeps one TYPE declaration; the unlabelled
// sample remains the all-up total and the labelled series are its
// attribution breakdown. Subsequent calls return the existing vec and
// must pass the same label names. Returns nil on a nil receiver.
func (m *Metrics) LabeledCounter(c Counter, labelNames ...string) *CounterVec {
	if m == nil {
		return nil
	}
	for _, n := range labelNames {
		if !validLabelName(n) {
			panic(fmt.Sprintf("obs: invalid label name %q", n))
		}
	}
	m.vecMu.Lock()
	defer m.vecMu.Unlock()
	if m.counterVecs == nil {
		m.counterVecs = map[Counter]*CounterVec{}
	}
	if v := m.counterVecs[c]; v != nil {
		if strings.Join(v.labels, ",") != strings.Join(labelNames, ",") {
			panic(fmt.Sprintf("obs: counter %s already labelled with %v", c, v.labels))
		}
		return v
	}
	v := &CounterVec{
		labels:    append([]string(nil), labelNames...),
		maxSeries: DefaultMaxLabelSeries,
		series:    map[string]*counterSeries{},
	}
	m.counterVecs[c] = v
	return v
}

// LabeledHisto is LabeledCounter for a histogram family: the labelled
// series share the family's bucket bounds and TYPE declaration.
// Returns nil on a nil receiver.
func (m *Metrics) LabeledHisto(h Histo, labelNames ...string) *HistogramVec {
	if m == nil {
		return nil
	}
	for _, n := range labelNames {
		if !validLabelName(n) {
			panic(fmt.Sprintf("obs: invalid label name %q", n))
		}
	}
	m.vecMu.Lock()
	defer m.vecMu.Unlock()
	if m.histoVecs == nil {
		m.histoVecs = map[Histo]*HistogramVec{}
	}
	if v := m.histoVecs[h]; v != nil {
		if strings.Join(v.labels, ",") != strings.Join(labelNames, ",") {
			panic(fmt.Sprintf("obs: histogram %s already labelled with %v", h, v.labels))
		}
		return v
	}
	v := &HistogramVec{
		def:       &histoDefs[h],
		labels:    append([]string(nil), labelNames...),
		maxSeries: DefaultMaxLabelSeries,
		series:    map[string]*histoSeries{},
	}
	m.histoVecs[h] = v
	return v
}

// counterVec and histoVec return the registered vec for a family, or
// nil; used by the exposition writer.
func (m *Metrics) counterVec(c Counter) *CounterVec {
	if m == nil {
		return nil
	}
	m.vecMu.Lock()
	defer m.vecMu.Unlock()
	return m.counterVecs[c]
}

func (m *Metrics) histoVec(h Histo) *HistogramVec {
	if m == nil {
		return nil
	}
	m.vecMu.Lock()
	defer m.vecMu.Unlock()
	return m.histoVecs[h]
}
