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

// series is the table behind one labelled vec: its label names and
// one sample S per label-value combination. It admits at most
// maxSeries combinations; every later one folds into the overflow
// series. Series are never removed.
type series[S any] struct {
	labels    []string
	maxSeries int

	mu   sync.Mutex
	rows map[string]*seriesRow[S]
}

type seriesRow[S any] struct {
	values []string
	s      S
}

func (t *series[S]) init(labelNames []string) {
	t.labels = append([]string(nil), labelNames...)
	t.maxSeries = DefaultMaxLabelSeries
	t.rows = map[string]*seriesRow[S]{}
}

func (t *series[S]) labelNames() []string { return t.labels }

func (t *series[S]) setMaxSeries(n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	t.maxSeries = n
	t.mu.Unlock()
}

// lookup returns the sample of labelValues, or nil when absent. It
// never creates a series.
func (t *series[S]) lookup(labelValues []string) *S {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.rows[labelKey(labelValues)]; r != nil {
		return &r.s
	}
	return nil
}

func (t *series[S]) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rows)
}

// sample returns the sample of labelValues, creating its series on
// first use, or the overflow series' past the cap.
func (t *series[S]) sample(labelValues []string) *S {
	if len(labelValues) != len(t.labels) {
		panic(fmt.Sprintf("obs: got %d label values for %d labels", len(labelValues), len(t.labels)))
	}
	key := labelKey(labelValues)
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.rows[key]; r != nil {
		return &r.s
	}
	if len(t.rows) >= t.maxSeries {
		labelValues = overflowValues(len(t.labels))
		key = labelKey(labelValues)
		if r := t.rows[key]; r != nil {
			return &r.s
		}
	}
	r := &seriesRow[S]{values: append([]string(nil), labelValues...)}
	t.rows[key] = r
	return &r.s
}

// sorted returns the series in label-key order, for a stable document.
func (t *series[S]) sorted() []*seriesRow[S] {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]*seriesRow[S], len(keys))
	for i, k := range keys {
		rows[i] = t.rows[k]
	}
	return rows
}

// CounterVec is a labelled extension of one counter family. The zero
// value is not usable; obtain one from Metrics.LabeledCounter. A nil
// *CounterVec is inert.
type CounterVec struct{ series[atomic.Int64] }

// SetMaxSeries adjusts the cardinality cap (n <= 0 leaves it
// unchanged) and returns the vec for chaining at registration time.
// Lowering the cap below the current series count only affects new
// combinations. No-op on a nil receiver.
func (v *CounterVec) SetMaxSeries(n int) *CounterVec {
	if v != nil {
		v.setMaxSeries(n)
	}
	return v
}

// Add increments the series identified by labelValues by n, creating
// it on first use (or folding into the overflow series past the
// cardinality cap). len(labelValues) must match the vec's label names.
// No-op on a nil receiver.
func (v *CounterVec) Add(n int64, labelValues ...string) {
	if v != nil {
		v.sample(labelValues).Add(n)
	}
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
	if n := v.lookup(labelValues); n != nil {
		return n.Load()
	}
	return 0
}

// Series returns the number of live series (including the overflow
// series once used).
func (v *CounterVec) Series() int {
	if v == nil {
		return 0
	}
	return v.count()
}

// write emits the vec's series as samples of family name, label keys
// sorted for a stable document.
func (v *CounterVec) write(w *errWriter, name string) {
	if v == nil {
		return
	}
	for _, r := range v.sorted() {
		fmt.Fprintf(w, "%s%s %d\n", name, labelPairs(v.labels, r.values), r.s.Load())
	}
}

// HistogramVec is a labelled extension of one histogram family,
// sharing the family's fixed bucket bounds. Obtain one from
// Metrics.LabeledHisto; a nil *HistogramVec is inert.
type HistogramVec struct {
	def *histoDef
	series[histo]
}

// SetMaxSeries adjusts the cardinality cap; see CounterVec.SetMaxSeries.
func (v *HistogramVec) SetMaxSeries(n int) *HistogramVec {
	if v != nil {
		v.setMaxSeries(n)
	}
	return v
}

// Observe records value (in the family's native unit) into the series
// identified by labelValues, with the same creation and overflow rules
// as CounterVec.Add. No-op on a nil receiver.
func (v *HistogramVec) Observe(value int64, labelValues ...string) {
	v.ObserveExemplar(value, "", labelValues...)
}

// SeriesCount returns the observation count of the series identified
// by labelValues (0 when absent). It never creates a series.
func (v *HistogramVec) SeriesCount(labelValues ...string) int64 {
	if v == nil {
		return 0
	}
	h := v.lookup(labelValues)
	if h == nil {
		return 0
	}
	_, total := h.load(v.def)
	return total
}

// Series returns the number of live series.
func (v *HistogramVec) Series() int {
	if v == nil {
		return 0
	}
	return v.count()
}

// write emits every series' _bucket/_sum/_count samples for family
// name, series sorted by label key; with exemplars (the OpenMetrics
// exposition), bucket samples trail their recorded exemplar.
func (v *HistogramVec) write(w *errWriter, name string, exemplars bool) {
	if v == nil {
		return
	}
	for _, r := range v.sorted() {
		counts, _ := r.s.load(v.def)
		var cum int64
		for i, le := range v.def.labels {
			cum += counts[i]
			fmt.Fprintf(w, "%s_bucket%s %d", name, labelPairs(v.labels, r.values, "le", le), cum)
			if ex := r.s.exemplars[i].Load(); exemplars && ex != nil {
				writeExemplar(w, *ex)
			}
			fmt.Fprint(w, "\n")
		}
		fmt.Fprintf(w, "%s_sum%s %s\n", name, labelPairs(v.labels, r.values), formatBound(float64(r.s.sum.Load())/v.def.div))
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
	return register(m, &m.counterVecs, c, labelNames, func() *CounterVec { return &CounterVec{} })
}

// LabeledHisto is LabeledCounter for a histogram family: the labelled
// series share the family's bucket bounds and TYPE declaration.
// Returns nil on a nil receiver.
func (m *Metrics) LabeledHisto(h Histo, labelNames ...string) *HistogramVec {
	if m == nil {
		return nil
	}
	return register(m, &m.histoVecs, h, labelNames, func() *HistogramVec { return &HistogramVec{def: &histoDefs[h]} })
}

// register returns the vec of family in *vecs, creating it with
// newVec on first use. The label names must be valid, and every
// registration of a family must pass the same ones.
func register[F interface {
	comparable
	String() string
}, V interface {
	init(labelNames []string)
	labelNames() []string
}](m *Metrics, vecs *map[F]V, family F, labelNames []string, newVec func() V) V {
	for _, n := range labelNames {
		if !validLabelName(n) {
			panic(fmt.Sprintf("obs: invalid label name %q", n))
		}
	}
	m.vecMu.Lock()
	defer m.vecMu.Unlock()
	if v, ok := (*vecs)[family]; ok {
		if strings.Join(v.labelNames(), ",") != strings.Join(labelNames, ",") {
			panic(fmt.Sprintf("obs: %s already labelled with %v", family, v.labelNames()))
		}
		return v
	}
	if *vecs == nil {
		*vecs = map[F]V{}
	}
	v := newVec()
	v.init(labelNames)
	(*vecs)[family] = v
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

// validLabelName reports whether s is a Prometheus label name that a
// user may set.
func validLabelName(s string) bool {
	if s == "" || s == "__name__" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
