package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// findHisto pulls one histogram out of a snapshot by name.
func findHisto(t *testing.T, st Stats, name string) HistogramStat {
	t.Helper()
	for _, h := range st.Histograms {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("histogram %s not in snapshot: %+v", name, st.Histograms)
	return HistogramStat{}
}

func TestHistogramNilSafe(t *testing.T) {
	var m *Metrics
	m.Observe(DeciderWallNs, 42)
	m.ObserveDuration(PlanExecNs, time.Second)
	m.Merge(NewMetrics())
	NewMetrics().Merge(nil)
	if m.HistoCount(DeciderWallNs) != 0 {
		t.Fatal("nil metrics should count nothing")
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	m := NewMetrics()
	// Bounds of models_admitted_per_call start 0,1,2,4: an observation
	// lands in the first bucket whose bound is >= the value.
	m.Observe(ModelsAdmittedPerCall, 0)     // le=0
	m.Observe(ModelsAdmittedPerCall, 1)     // le=1
	m.Observe(ModelsAdmittedPerCall, 3)     // le=4
	m.Observe(ModelsAdmittedPerCall, 1<<40) // +Inf

	st, ok := m.histoStat(ModelsAdmittedPerCall)
	if !ok || st.Count != 4 {
		t.Fatalf("count = %d ok=%v, want 4", st.Count, ok)
	}
	want := map[string]int64{"0": 1, "1": 2, "2": 2, "4": 3, "+Inf": 4}
	for _, b := range st.Buckets {
		if c, tracked := want[b.LE]; tracked && b.Count != c {
			t.Errorf("bucket le=%s count = %d, want %d", b.LE, b.Count, c)
		}
	}
	if last := st.Buckets[len(st.Buckets)-1]; last.LE != "+Inf" || last.Count != st.Count {
		t.Fatalf("final bucket = %+v, want +Inf count %d", last, st.Count)
	}
	// Cumulative counts never decrease.
	prev := int64(0)
	for _, b := range st.Buckets {
		if b.Count < prev {
			t.Fatalf("bucket counts not cumulative: %+v", st.Buckets)
		}
		prev = b.Count
	}
}

func TestHistogramDurationScaling(t *testing.T) {
	m := NewMetrics()
	m.ObserveDuration(DeciderWallNs, 1500*time.Millisecond)
	st, _ := m.histoStat(DeciderWallNs)
	if st.Sum != 1.5 {
		t.Fatalf("sum = %v s, want 1.5", st.Sum)
	}
	// 1.5e9 ns sits above the 1e9 bound, below 1e10 (exposed as "10").
	for _, b := range st.Buckets {
		switch b.LE {
		case "1":
			if b.Count != 0 {
				t.Fatalf("le=1s bucket = %d, want 0", b.Count)
			}
		case "10":
			if b.Count != 1 {
				t.Fatalf("le=10s bucket = %d, want 1", b.Count)
			}
		}
	}
}

func TestHistogramSnapshotAndJSON(t *testing.T) {
	m := NewMetrics()
	if st := m.Snapshot(); len(st.Histograms) != 0 {
		t.Fatalf("empty metrics should omit histograms, got %+v", st.Histograms)
	}
	m.Observe(SearchItemsPerHit, 7)
	st := m.Snapshot()
	h := findHisto(t, st, "search_items_per_hit")
	if h.Count != 1 {
		t.Fatalf("count = %d", h.Count)
	}

	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if findHisto(t, back, "search_items_per_hit").Count != 1 {
		t.Fatal("histogram lost in JSON round trip")
	}
}

func TestMetricsMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Add(ModelsChecked, 3)
	b.Add(ModelsChecked, 4)
	a.Observe(IndexProbeRows, 2)
	b.Observe(IndexProbeRows, 2)
	b.Observe(IndexProbeRows, 100)
	b.ObservePhase("merge_phase", time.Millisecond)

	a.Merge(b)
	if got := a.Get(ModelsChecked); got != 7 {
		t.Fatalf("merged counter = %d, want 7", got)
	}
	if got := a.HistoCount(IndexProbeRows); got != 3 {
		t.Fatalf("merged histogram count = %d, want 3", got)
	}
	st, _ := a.histoStat(IndexProbeRows)
	if st.Sum != 104 {
		t.Fatalf("merged sum = %v, want 104", st.Sum)
	}
	phases := a.Snapshot().Phases
	if len(phases) != 1 || phases[0].Name != "merge_phase" || phases[0].Count != 1 {
		t.Fatalf("merged phases = %+v", phases)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	const goroutines, each = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.Observe(PlanExecNs, int64(g*i))
			}
		}(g)
	}
	wg.Wait()
	if got := m.HistoCount(PlanExecNs); got != goroutines*each {
		t.Fatalf("count = %d, want %d", got, goroutines*each)
	}
}

// TestHistoInventoryExhaustive iterates every histogram constant:
// a histogram added without a name, help text, bounds, or with too
// many buckets for the flat array fails here (and so in CI).
func TestHistoInventoryExhaustive(t *testing.T) {
	seen := map[string]bool{}
	for h := Histo(0); h < numHistos; h++ {
		d := &histoDefs[h]
		if d.name == "" || d.help == "" {
			t.Errorf("histogram %d lacks a name or help text", h)
			continue
		}
		if seen[d.name] {
			t.Errorf("duplicate histogram name %q", d.name)
		}
		seen[d.name] = true
		if d.div == 0 {
			t.Errorf("%s: zero divisor", d.name)
		}
		if len(d.bounds)+1 > maxHistoBuckets {
			t.Errorf("%s: %d bounds exceed maxHistoBuckets", d.name, len(d.bounds))
		}
		for i := 1; i < len(d.bounds); i++ {
			if d.bounds[i] <= d.bounds[i-1] {
				t.Errorf("%s: bounds not strictly increasing at %d", d.name, i)
			}
		}
		if h.String() != d.name {
			t.Errorf("String() = %q, want %q", h.String(), d.name)
		}
		back, ok := HistoByName(d.name)
		if !ok || back != h {
			t.Errorf("HistoByName(%q) = %v,%v, want %v", d.name, back, ok, h)
		}
	}
	if Histo(-1).String() != "unknown" || numHistos.String() != "unknown" {
		t.Error("out-of-range histos should stringify as unknown")
	}
	if _, ok := HistoByName("nope"); ok {
		t.Error("HistoByName should reject unknown names")
	}
}
