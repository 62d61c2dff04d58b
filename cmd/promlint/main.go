// Command promlint validates a metrics text-exposition document (file
// argument or stdin with "-") against the in-repo grammar checkers,
// promcheck.ValidatePrometheusText and
// promcheck.ValidateOpenMetricsText. CI's server-smoke job pipes the
// live /metrics scrape through it so an exposition regression fails
// the round-trip, not a downstream scraper.
//
// The format is auto-detected: a document containing a "# EOF" line is
// checked as OpenMetrics (exemplars allowed, EOF terminator required),
// anything else as Prometheus text. -format prometheus|openmetrics
// forces one grammar — use it to assert a server really produced the
// negotiated format rather than whichever one happens to parse.
//
// Usage:
//
//	promlint metrics.prom
//	curl -s localhost:8080/metrics | promlint -
//	curl -s -H 'Accept: application/openmetrics-text' localhost:8080/metrics |
//	    promlint -format openmetrics -
//
// Exit codes: 0 valid, 1 invalid or unreadable.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"relcomplete/internal/promcheck"
)

func main() {
	if err := run(os.Args[1:], os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "promlint:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader) error {
	fs := flag.NewFlagSet("promlint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	format := fs.String("format", "auto", "exposition grammar: auto | prometheus | openmetrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one input file (or - for stdin)")
	}
	var data []byte
	var err error
	if fs.Arg(0) == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(fs.Arg(0))
	}
	if err != nil {
		return err
	}
	switch *format {
	case "prometheus":
		return promcheck.ValidatePrometheusText(data)
	case "openmetrics":
		return promcheck.ValidateOpenMetricsText(data)
	case "auto":
		if isOpenMetrics(data) {
			return promcheck.ValidateOpenMetricsText(data)
		}
		return promcheck.ValidatePrometheusText(data)
	}
	return fmt.Errorf("unknown -format %q", *format)
}

// isOpenMetrics reports whether the document carries the OpenMetrics
// "# EOF" terminator on its own line — the one syntactic marker the
// Prometheus text format never produces.
func isOpenMetrics(data []byte) bool {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if bytes.Equal(bytes.TrimRight(sc.Bytes(), " \t\r"), []byte("# EOF")) {
			return true
		}
	}
	return false
}
