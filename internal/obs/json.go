package obs

// This file writes a Metrics snapshot as JSON without building one:
// AppendJSON reads the atomics and appends the bytes encoding/json
// writes for Snapshot(), with no map, no sort of the counters and no
// reflection. AppendJSONString and AppendJSONFloat are the two exact
// helpers it rests on; the server's hand-written answers use them too.

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
)

// AppendJSONString appends s as encoding/json writes a string, HTML
// escaping included. Printable ASCII other than `"`, `\`, `<`, `>` and
// `&` is copied as it is; a string holding any other byte is encoded
// by encoding/json itself, so escapes, invalid UTF-8 and U+2028 come
// out exactly as it writes them.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendJSONFloat appends the finite f as encoding/json writes a
// float64: the shortest 'f' form, or the 'e' form below 1e-6 and from
// 1e21 with a two-digit negative exponent trimmed (8.5e-07 is written
// 8.5e-7). encoding/json refuses NaN and the infinities.
func AppendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// counterOrder lists the counters in name order, the order
// encoding/json writes a Stats' counter map in; counterKeys holds each
// counter's `"name":` key.
var (
	counterOrder [numCounters]Counter
	counterKeys  [numCounters]string
)

func init() {
	for c := range counterOrder {
		counterOrder[c] = Counter(c)
		counterKeys[c] = string(AppendJSONString(nil, counterNames[c])) + ":"
	}
	sort.Slice(counterOrder[:], func(i, j int) bool {
		return counterNames[counterOrder[i]] < counterNames[counterOrder[j]]
	})
}

// AppendJSON appends the JSON encoding of m's snapshot to dst: exactly
// the bytes json.Marshal(m.Snapshot()) writes, read straight from the
// atomics. A nil receiver appends the empty snapshot.
func (m *Metrics) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"counters":{`...)
	if m == nil {
		return append(dst, "}}"...)
	}
	sep := false
	for _, c := range counterOrder {
		if v := m.counters[c].Load(); v != 0 {
			if sep {
				dst = append(dst, ',')
			}
			sep = true
			dst = append(dst, counterKeys[c]...)
			dst = strconv.AppendInt(dst, v, 10)
		}
	}
	dst = append(dst, '}')
	dst = m.appendPhasesJSON(dst)
	open := false
	for h := Histo(0); h < numHistos; h++ {
		d := &histoDefs[h]
		counts, total := m.histos[h].load(d)
		if total == 0 {
			continue
		}
		if open {
			dst = append(dst, ',')
		} else {
			dst = append(dst, `,"histograms":[`...)
			open = true
		}
		dst = append(dst, d.jsonHead...)
		dst = strconv.AppendInt(dst, total, 10)
		dst = append(dst, `,"sum":`...)
		dst = AppendJSONFloat(dst, float64(m.histos[h].sum.Load())/d.div)
		dst = append(dst, `,"buckets":[`...)
		var cum int64
		for i, le := range d.jsonBuckets {
			if i > 0 {
				dst = append(dst, ',')
			}
			cum += counts[i]
			dst = append(dst, le...)
			dst = strconv.AppendInt(dst, cum, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, "]}"...)
	}
	if open {
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendPhasesJSON appends the snapshot's "phases" member, sorted by
// name; nothing when no phase was observed.
func (m *Metrics) appendPhasesJSON(dst []byte) []byte {
	type phase struct {
		name string
		agg  phaseAgg
	}
	var local [8]phase // a decide's view holds one to three
	ps := local[:0]
	m.phaseMu.Lock()
	for name, agg := range m.phases {
		ps = append(ps, phase{name, *agg})
	}
	m.phaseMu.Unlock()
	if len(ps) == 0 {
		return dst
	}
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].name < ps[j-1].name; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	dst = append(dst, `,"phases":[`...)
	for i, p := range ps {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = AppendJSONString(dst, p.name)
		dst = append(dst, `,"count":`...)
		dst = strconv.AppendInt(dst, p.agg.count, 10)
		dst = append(dst, `,"ms":`...)
		dst = AppendJSONFloat(dst, float64(p.agg.ns)/1e6)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}
