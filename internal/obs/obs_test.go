package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilMetricsInert(t *testing.T) {
	var m *Metrics
	m.Inc(ValuationsEnumerated)
	m.Add(RowsProbed, 42)
	if got := m.Get(RowsProbed); got != 0 {
		t.Fatalf("nil Get = %d, want 0", got)
	}
	m.ObservePhase("x", time.Millisecond)
	s := m.Snapshot()
	if s.Counters == nil || len(s.Counters) != 0 || len(s.Phases) != 0 {
		t.Fatalf("nil Snapshot = %+v, want empty", s)
	}
}

func TestMetricsCountersAndSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Inc(ValuationsEnumerated)
	m.Add(ValuationsEnumerated, 2)
	m.Add(CCChecks, 7)
	m.ObservePhase("rcdp/strong", time.Millisecond)
	m.ObservePhase("rcdp/strong", 0)

	s := m.Snapshot()
	if got := s.Counters["valuations_enumerated"]; got != 3 {
		t.Errorf("valuations_enumerated = %d, want 3", got)
	}
	if got := s.Counters["cc_checks"]; got != 7 {
		t.Errorf("cc_checks = %d, want 7", got)
	}
	if _, ok := s.Counters["rows_probed"]; ok {
		t.Errorf("zero counter rows_probed should be omitted")
	}
	if len(s.Phases) != 1 || s.Phases[0].Name != "rcdp/strong" || s.Phases[0].Count != 2 {
		t.Errorf("phases = %+v, want one rcdp/strong with count 2", s.Phases)
	}
	if s.Phases[0].Ms != 1 {
		t.Errorf("phase ms = %v, want the 1ms the two calls took", s.Phases[0].Ms)
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Add(PlanRuns, 5)
	m.ObservePhase("eval", time.Microsecond)
	buf, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var s Stats
	if err := json.Unmarshal(buf, &s); err != nil {
		t.Fatalf("unmarshal %s: %v", buf, err)
	}
	if s.Counters["plan_runs"] != 5 {
		t.Errorf("round-trip plan_runs = %d, want 5", s.Counters["plan_runs"])
	}
	if len(s.Phases) != 1 || s.Phases[0].Name != "eval" {
		t.Errorf("round-trip phases = %+v", s.Phases)
	}
}

// TestCounterNamesComplete round-trips every counter constant through
// String and CounterByName. Adding a counter without a (unique) name
// entry fails here, so the inventory cannot silently drift from the
// exposition.
func TestCounterNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		if counterNames[c] == "" || name == "unknown" {
			t.Errorf("counter %d has no name", c)
			continue
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
		back, ok := CounterByName(name)
		if !ok || back != c {
			t.Errorf("CounterByName(%q) = %v,%v, want %v", name, back, ok, c)
		}
	}
	if Counter(-1).String() != "unknown" || numCounters.String() != "unknown" {
		t.Errorf("out-of-range counters should stringify as unknown")
	}
	if _, ok := CounterByName("unknown"); ok {
		t.Error("CounterByName should reject the unknown placeholder")
	}
	if _, ok := CounterByName("nope"); ok {
		t.Error("CounterByName should reject unknown names")
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Inc(SearchItems)
				m.ObservePhase("p", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Get(SearchItems); got != 8000 {
		t.Fatalf("SearchItems = %d, want 8000", got)
	}
	s := m.Snapshot()
	if s.Phases[0].Count != 8000 {
		t.Fatalf("phase count = %d, want 8000", s.Phases[0].Count)
	}
}
