package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// digest serialises everything a seed generates for a workload: the
// documents, every phase's op stream and the arrival times.
func digest(t *testing.T, w *workload, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	in := genInputs(w, seed)
	for i, name := range in.names {
		for _, doc := range in.docs[i] {
			fmt.Fprintf(&buf, "%s %s\n", name, doc)
		}
	}
	for _, stream := range []int64{streamWarmup, streamClosed, streamOpen, streamReplay} {
		fmt.Fprintln(&buf, genOps(w, seed, stream, 0))
	}
	fmt.Fprintln(&buf, arrivals(seed, w.Rate, 2*time.Second))
	return buf.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := digest(t, w, 7), digest(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different inputs", w.Name)
		}
		if bytes.Equal(a, digest(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.Name)
		}
	}
}

func TestOpStreamMix(t *testing.T) {
	w, err := findWorkload("churn_write")
	if err != nil {
		t.Fatal(err)
	}
	puts := 0
	for _, o := range genOps(w, 1, streamClosed, 0) {
		if o.Tmpl == putOp {
			puts++
		}
	}
	if frac := float64(puts) / opStreamLen; math.Abs(frac-w.PutFrac) > 0.01 {
		t.Errorf("PUT share = %.3f, want %.2f", frac, w.PutFrac)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1: percentile must sort
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50.5}, {0.99, 99.01}, {1, 100},
	} {
		if got := percentile(slices.Clone(xs), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3, 1, 2) = %v, want 2", got)
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for i, w := range b.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].Why {
			t.Errorf("workload %s: why differs from workloads.go", w.Name)
		}
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.Name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, rcload %v", names, ours)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, rcload %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, rcload %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, rcload %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s %s %s, rcload %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload briefly, untraced and traced: no
// answer may be wrong and each run must report exactly its declared
// metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs skipped in -short mode")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 1, seconds: 0.1, trace: traced, workDir: t.TempDir()}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: attempted %d, failed %d: %v", w.Name, traced, res.Attempted, res.Failed, res.Failures)
			}
			want := metricNames(endToEnd)
			if traced {
				want = metricNames(perLayer)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%t: metrics %v, want %v", w.Name, traced, got, want)
			}
		}
	}
}
