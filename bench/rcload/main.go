// Command rcload is relcomplete's served-decide benchmark: an
// in-process load generator that starts rcserved's service the way
// cmd/rcserved wires it, loads generated problem documents over
// loopback HTTP, and drives one of four traffic mixes (workloads.go)
// against it, checking every answer against a verdict oracle.
//
// Usage, from the bench directory:
//
//	go run ./rcload -out .bench_build/run.json     # every workload
//	go run ./rcload -workload hot_small -seed 3    # one workload
//	go run ./rcload -workload heavy_search -trace 1 -trace-out spans.jsonl
//
// An untraced run (-trace 0) reports the end-to-end metrics, a traced
// run (-trace 1) the per-layer ones (metrics.go). Every metric is
// printed as "name value unit"; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}. The
// exit code is 1 when any answer was wrong or the run failed.
// bench/README.md explains the workloads, phases and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rcload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty = all, in order)")
	seed := fs.Int64("seed", 1, "seed the documents, op streams and arrivals are drawn from")
	seconds := fs.Float64("seconds", 24, "measured seconds per workload run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	out := fs.String("out", "", "also write every workload's full result as JSON to this file")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as JSONL to this file")
	workDir := fs.String("workdir", ".bench_build/rcload", "work directory for write-ahead logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "rcload: bad arguments; see -help")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "rcload:", err)
			return 2
		}
		todo = []*workload{w}
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		workDir: *workDir,
	}

	var results []*result
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		cfg.traceOut = *traceOut
		if *traceOut != "" && len(todo) > 1 {
			// One span file per workload: spans.jsonl → spans-hot_small.jsonl.
			ext := filepath.Ext(*traceOut)
			cfg.traceOut = strings.TrimSuffix(*traceOut, ext) + "-" + w.Name + ext
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "rcload: %s: %v\n", w.Name, err)
			return 1
		}
		results = append(results, res)
		report(stdout, res)
		for _, f := range res.Failures {
			fmt.Fprintf(stderr, "rcload: %s: %s\n", w.Name, f)
		}
		summary.Correct = summary.Correct && res.Correct
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(todo) > 1 {
				k = w.Name + "/" + k
			}
			summary.Metrics[k] = v
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "rcload: -out:", err)
			return 1
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "rcload:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !summary.Correct {
		return 1
	}
	return 0
}

// report prints one workload's metrics, one "name value unit" line each,
// in declaration order.
func report(w io.Writer, res *result) {
	fmt.Fprintf(w, "# %s seed=%d trace=%t correct=%t attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Trace, res.Correct, res.Attempted, res.Failed)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-40s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}
