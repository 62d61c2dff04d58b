package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/paperex"
	"relcomplete/internal/probjson"
	"relcomplete/internal/query"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// orderCatalogDoc is an Order/Catalog c-instance whose three ground rows
// come before its two variable rows, the shape of the served workloads.
const orderCatalogDoc = `{
  "schema": {"relations": [
    {"name": "Order", "attrs": [{"name": "item"}, {"name": "qty"}]}]},
  "master": {
    "relations": [{"name": "Catalog", "attrs": [{"name": "item"}]}],
    "rows": {"Catalog": [["widget"], ["gadget"], ["gizmo"]]}},
  "ccs": [{"name": "order_in_catalog",
           "left":  "q(i) := Order(i, q)",
           "right": "p(i) := Catalog(i)"}],
  "query": {"calc": "Q(i) := exists q: Order(i, q)"},
  "cinstance": {"rows": [
    {"rel": "Order", "terms": ["widget", "1"]},
    {"rel": "Order", "terms": ["gadget", "2"]},
    {"rel": "Order", "terms": ["widget", "3"]},
    {"rel": "Order", "terms": ["?x", "4"]},
    {"rel": "Order", "terms": ["?y", "5"]}]}
}`

// checkGolden compares got with testdata/name, rewriting the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden file\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestStrongCounterexamplesGolden pins the text of the strong-RCDP
// counterexamples the deciders reach first: which model, which
// extension and which gained answers, at one and at two workers.
func TestStrongCounterexamplesGolden(t *testing.T) {
	type tcase struct {
		name string
		p    *core.Problem
		ci   *ctable.CInstance
	}
	cases := func(workers int) []tcase {
		opts := core.Options{Parallelism: workers}
		s := paperex.Reduced()
		q2, err := s.Problem(s.Q2, opts)
		if err != nil {
			t.Fatal(err)
		}
		q4, err := s.Problem(s.Q4, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Example 2.3's Bob row: a variable row after the ground John row.
		withVar, err := s.WithRow(ctable.Row{
			Terms: []query.Term{query.C("915-15-336"), query.V("x"), query.C("EDI"), query.V("z")},
			Cond:  ctable.Cond(ctable.CNeq(query.V("z"), query.C("2001"))),
		})
		if err != nil {
			t.Fatal(err)
		}
		oc, ci, err := probjson.Decode([]byte(orderCatalogDoc))
		if err != nil {
			t.Fatal(err)
		}
		oc.Options.Parallelism = workers
		return []tcase{
			{"paperex Reduced, Q2", q2, s.T},
			{"paperex Reduced, Q4", q4, s.T},
			{"paperex Reduced + Example 2.3 row, Q4", q4, withVar},
			{"Order/Catalog, 3 ground + 2 variable rows", oc, ci},
		}
	}
	for _, workers := range []int{1, 2} {
		var b strings.Builder
		for _, c := range cases(workers) {
			ok, cex, err := c.p.RCDPExplain(c.ci, core.Strong)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			fmt.Fprintf(&b, "%s: complete=%v\n  %s\n", c.name, ok, cex)
		}
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkGolden(t, "strong_counterexamples.golden", b.String())
		})
	}
}
