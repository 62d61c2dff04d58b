package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// hostileNames are phase names encoding/json escapes: HTML
// characters, quotes and backslashes, control bytes, invalid UTF-8
// and the JavaScript line separators.
var hostileNames = []string{
	"rcdp_strong", "a<b>&c", `q"uote\back`, "tab\there\n", "\x00\x1f\x7f",
	"bad\xffutf8", "line\u2028sep\u2029", "ünïcode", "",
}

// requireStatsJSON requires AppendJSON and MarshalJSON to write
// exactly json.Marshal(m.Snapshot()).
func requireStatsJSON(t *testing.T, what string, m *Metrics) {
	t.Helper()
	want, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got := m.AppendJSON([]byte("prefix")); !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s: AppendJSON\n got: %s\nwant: %s", what, got[len("prefix"):], want)
	}
	if got, err := m.MarshalJSON(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: MarshalJSON (err %v)\n got: %s\nwant: %s", what, err, got, want)
	}
}

// AppendJSON writes the bytes encoding/json writes for the snapshot:
// for nil and empty metrics, negative counters, sums that take the
// exponent form and phase names that need escaping, and on generated
// metrics.
func TestStatsJSONMatchesSnapshot(t *testing.T) {
	requireStatsJSON(t, "nil", nil)
	requireStatsJSON(t, "empty", NewMetrics())

	m := NewMetrics()
	m.Add(ModelsChecked, -3)
	m.Add(ValuationsEnumerated, math.MaxInt64)
	m.Add(ShedTotal, math.MinInt64)
	requireStatsJSON(t, "extreme counters", m)

	m = NewMetrics()
	m.Observe(PlanExecNs, 850)      // sum 8.5e-7 s
	m.Observe(DeciderWallNs, -1)    // sum -1e-9 s
	m.Observe(SearchItemsPerHit, 1) // sum 1
	m.Observe(IndexProbeRows, math.MaxInt64)
	requireStatsJSON(t, "exponent sums", m)

	m = NewMetrics()
	for i, name := range hostileNames {
		m.ObservePhase(name, time.Duration(i*i)*time.Microsecond+7)
	}
	requireStatsJSON(t, "hostile phase names", m)

	rng := rand.New(rand.NewPCG(26, 1))
	for i := 0; i < 300; i++ {
		m := NewMetrics()
		for c := Counter(0); c < numCounters; c++ {
			if rng.IntN(3) == 0 {
				m.Add(c, rng.Int64N(2001)-1000)
			}
		}
		for n := rng.IntN(5); n > 0; n-- {
			m.ObservePhase(hostileNames[rng.IntN(len(hostileNames))], time.Duration(rng.Int64N(1e10)))
		}
		for h := Histo(0); h < numHistos; h++ {
			for n := rng.IntN(3); n > 0; n-- {
				m.Observe(h, rng.Int64N(2e10)-1e3)
			}
		}
		requireStatsJSON(t, "generated", m)
	}
}

// AppendJSONFloat and AppendJSONString write what encoding/json
// writes, at both ends of the exponent form's range. An int64 sum over
// a divisor of at least 1 stays below 1e21, so the metrics above never
// reach the upper end.
func TestJSONHelpersMatchEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99e-7, 8.5e-7, 1e-7, 1e-10, 5e-324,
		1e20, 1e21, -1e21, 123456789e15, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	} {
		want, _ := json.Marshal(f)
		if got := AppendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
	for _, s := range hostileNames {
		want, _ := json.Marshal(s)
		if got := AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}
