package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleIndexed = `goos: linux
goarch: amd64
pkg: relcomplete
cpu: Intel(R) Xeon(R)
BenchmarkConsistency3SAT/forall=1-8         	    2000	    500000 ns/op	  120000 B/op	    1500 allocs/op
BenchmarkConsistency3SAT/forall=2-8         	    1000	   1200000 ns/op	  250000 B/op	    3200 allocs/op
BenchmarkTupleKeyAppend-8                   	50000000	        22.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	relcomplete	3.141s
`

// sampleEval is a second package's output, folded under the same label.
const sampleEval = `pkg: relcomplete/internal/eval
BenchmarkAblationEvaluators/naive_join/n=12-8         	   20000	     74362 ns/op	   17756 B/op	     225 allocs/op
`

const sampleRepeat = `BenchmarkConsistency3SAT/forall=1-8         	     200	   5000000 ns/op	 2400000 B/op	   45000 allocs/op
BenchmarkConsistency3SAT/forall=2-8         	     100	  12000000 ns/op	 5000000 B/op	   90000 allocs/op
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleIndexed))
	if err != nil {
		t.Fatal(err)
	}
	names := sortedNames(got)
	want := []string{
		"BenchmarkConsistency3SAT/forall=1",
		"BenchmarkConsistency3SAT/forall=2",
		"BenchmarkTupleKeyAppend",
	}
	if len(names) != len(want) {
		t.Fatalf("parsed %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("parsed %v, want %v", names, want)
		}
	}
	m := got["BenchmarkConsistency3SAT/forall=1"]
	if m.NsPerOp != 500000 || m.BytesPerOp != 120000 || m.AllocsPerOp != 1500 {
		t.Fatalf("bad metrics: %+v", m)
	}
	if k := got["BenchmarkTupleKeyAppend"]; k.NsPerOp != 22.5 || k.AllocsPerOp != 0 {
		t.Fatalf("bad fractional metrics: %+v", k)
	}
}

func TestTrimProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkX-8":            "BenchmarkX",
		"BenchmarkX/n=3-16":       "BenchmarkX/n=3",
		"BenchmarkX/rows=2":       "BenchmarkX/rows=2",
		"BenchmarkX/forall=1-8-8": "BenchmarkX/forall=1-8",
	}
	for in, want := range cases {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// Files under one label merge into one run; a second label adds a run
// beside it, and the artifact carries nothing but the runs.
func TestRunMergesLabelledRuns(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{"indexed.txt": sampleIndexed, "eval.txt": sampleEval, "repeat.txt": sampleRepeat}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := filepath.Join(dir, "BENCH_eval.json")
	args := []string{"-o", out, "indexed=" + filepath.Join(dir, "indexed.txt"),
		"indexed=" + filepath.Join(dir, "eval.txt"), "repeat=" + filepath.Join(dir, "repeat.txt")}
	if err := run(args, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "speedup") {
		t.Fatalf("artifact carries a speedup field:\n%s", raw)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	e := rep.Benchmarks["BenchmarkConsistency3SAT/forall=1"]
	if e == nil || e.Runs["indexed"].NsPerOp != 500000 || e.Runs["repeat"].NsPerOp != 5000000 {
		t.Fatalf("missing merged entry: %+v", rep.Benchmarks)
	}
	ev := rep.Benchmarks["BenchmarkAblationEvaluators/naive_join/n=12"]
	if ev == nil || len(ev.Runs) != 1 || ev.Runs["indexed"].AllocsPerOp != 225 {
		t.Fatalf("second package not folded under its label: %+v", ev)
	}
	if k := rep.Benchmarks["BenchmarkTupleKeyAppend"]; k == nil || len(k.Runs) != 1 {
		t.Fatalf("single-run benchmark: %+v", k)
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	if err := run([]string{"no-equals-sign"}, nil); err == nil {
		t.Fatal("label without file must error")
	}
	if err := run(nil, nil); err == nil {
		t.Fatal("no args must error")
	}
}
