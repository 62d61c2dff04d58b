// Command benchjson converts `go test -bench -benchmem` output into the
// committed benchmark-trajectory artifact BENCH_eval.json: ns/op,
// B/op and allocs/op per benchmark, for one or more labelled runs.
// Files given under the same label merge, so the bench output of
// several packages folds into one run. An ablation compares its legs
// as sibling sub-benchmarks of one run; the nested-loop and naive
// fixpoint legs run in internal/eval, where those evaluators live.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem . > indexed.txt
//	go test -run xxx -bench . -benchmem ./internal/eval > eval.txt
//	go run ./cmd/benchjson -o BENCH_eval.json indexed=indexed.txt indexed=eval.txt
//
// With -warn OLD.json the freshly parsed runs are additionally compared
// against a committed trajectory artifact: any benchmark whose ns/op or
// allocs/op regressed by more than 10% against the same label in the
// old artifact prints a warning line. The comparison never fails the
// command — absolute numbers are machine-specific, so the step is
// advisory (warn-only) by design.
//
// Absolute numbers are machine-specific; the artifact's claim is the
// trajectory — the ratios between ablation legs and between commits.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metrics is one benchmark measurement.
type metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// entry groups the labelled runs of one benchmark.
type entry struct {
	Runs map[string]*metrics `json:"runs"`
}

type report struct {
	Format     string            `json:"format"`
	Note       string            `json:"note"`
	Benchmarks map[string]*entry `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	warnAgainst := fs.String("warn", "", "committed trajectory artifact to compare against; >10% ns/op or allocs/op regressions print warnings (never fails)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: benchjson [-o out.json] label=benchoutput.txt ...")
	}
	rep := &report{
		Format:     "relcomplete-bench-trajectory-v1",
		Note:       "ns/op, B/op, allocs/op per benchmark and labelled run; absolute numbers are machine-specific, ratios are the artifact",
		Benchmarks: map[string]*entry{},
	}
	for _, arg := range fs.Args() {
		label, file, ok := strings.Cut(arg, "=")
		if !ok {
			return fmt.Errorf("argument %q is not label=file", arg)
		}
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		parsed, err := parseBench(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		if len(parsed) == 0 {
			return fmt.Errorf("%s: no benchmark lines found", file)
		}
		for name, m := range parsed {
			e := rep.Benchmarks[name]
			if e == nil {
				e = &entry{Runs: map[string]*metrics{}}
				rep.Benchmarks[name] = e
			}
			e.Runs[label] = m
		}
	}
	if *warnAgainst != "" {
		if err := warnRegressions(stdout, *warnAgainst, rep); err != nil {
			return err
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		_, err = stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}

// regressionThreshold is the advisory regression bar: fresh runs more
// than 10% worse than the committed artifact are flagged.
const regressionThreshold = 1.10

// warnRegressions compares rep against the committed artifact at path
// and prints one warning line per (benchmark, label, metric) whose
// ns/op or allocs/op regressed past the threshold. Missing benchmarks
// or labels are skipped silently — the step is advisory, and suites
// grow. Only a malformed artifact is an error.
func warnRegressions(w io.Writer, path string, rep *report) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old report
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, 0, len(rep.Benchmarks))
	for name := range rep.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	warned := 0
	for _, name := range names {
		oldE := old.Benchmarks[name]
		if oldE == nil {
			continue
		}
		newE := rep.Benchmarks[name]
		labels := make([]string, 0, len(newE.Runs))
		for label := range newE.Runs {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		for _, label := range labels {
			oldM, newM := oldE.Runs[label], newE.Runs[label]
			if oldM == nil {
				continue
			}
			if oldM.NsPerOp > 0 && newM.NsPerOp > oldM.NsPerOp*regressionThreshold {
				fmt.Fprintf(w, "warn: %s [%s] ns/op regressed %.1f%%: %.0f -> %.0f\n",
					name, label, (newM.NsPerOp/oldM.NsPerOp-1)*100, oldM.NsPerOp, newM.NsPerOp)
				warned++
			}
			if oldM.AllocsPerOp > 0 && newM.AllocsPerOp > oldM.AllocsPerOp*regressionThreshold {
				fmt.Fprintf(w, "warn: %s [%s] allocs/op regressed %.1f%%: %.0f -> %.0f\n",
					name, label, (newM.AllocsPerOp/oldM.AllocsPerOp-1)*100, oldM.AllocsPerOp, newM.AllocsPerOp)
				warned++
			}
		}
	}
	if warned == 0 {
		fmt.Fprintf(w, "benchjson: no >%.0f%% regressions against %s\n", (regressionThreshold-1)*100, path)
	}
	return nil
}

// parseBench extracts benchmark results from `go test -bench` output.
// The trailing -N GOMAXPROCS suffix is stripped from names so runs from
// different machines merge onto the same key.
func parseBench(r io.Reader) (map[string]*metrics, error) {
	out := map[string]*metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := trimProcSuffix(fields[0])
		m := &metrics{}
		// fields[1] is the iteration count; after it come value/unit
		// pairs: 123.4 ns/op, 56 B/op, 7 allocs/op.
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
				seen = true
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if seen {
			out[name] = m
		}
	}
	return out, sc.Err()
}

// trimProcSuffix removes the -N GOMAXPROCS suffix go test appends.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// sortedNames is used by the tests to assert deterministic content.
func sortedNames(m map[string]*metrics) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
