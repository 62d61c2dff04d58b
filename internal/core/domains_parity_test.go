package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/paperex"
	"relcomplete/internal/probjson"
	"relcomplete/internal/query"
)

// catalogDocument writes the served benchmark's query-override shape as
// a probjson document: the Order/Catalog setting with n catalogue items
// of itemLen characters, a finite qty domain {1..4}, the quantities 1-3
// of one target item as ground rows, four rows on other items and one
// variable row on the target. The seed draws the item names, the target
// and the other rows.
func catalogDocument(n, itemLen int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	const letters = "abcdefghijklmnopqrstuvwxyz"
	items := make([]string, n)
	for i := range items {
		b := []byte(fmt.Sprintf("item%d-", i))
		for len(b) < itemLen {
			b = append(b, letters[r.Intn(len(letters))])
		}
		items[i] = string(b)
	}
	target := items[r.Intn(n)]
	var rows []string
	for _, it := range items {
		rows = append(rows, fmt.Sprintf("[%q]", it))
	}
	ci := []string{
		fmt.Sprintf(`{"rel": "Order", "terms": [%q, "1"]}`, target),
		fmt.Sprintf(`{"rel": "Order", "terms": [%q, "2"]}`, target),
		fmt.Sprintf(`{"rel": "Order", "terms": [%q, "3"]}`, target),
	}
	for i := 0; i < 4; i++ {
		ci = append(ci, fmt.Sprintf(`{"rel": "Order", "terms": [%q, "%d"]}`, items[r.Intn(n)], 1+r.Intn(4)))
	}
	ci = append(ci, fmt.Sprintf(`{"rel": "Order", "terms": [%q, "?v0"]}`, target))
	return []byte(fmt.Sprintf(`{
  "schema": {"relations": [{"name": "Order", "attrs": [{"name": "item"}, {"name": "qty", "domain": ["1", "2", "3", "4"]}]}]},
  "master": {"relations": [{"name": "Catalog", "attrs": [{"name": "item"}]}], "rows": {"Catalog": [%s]}},
  "ccs": [{"name": "item_bound", "left": "q(i) := Order(i, q)", "right": "p(i) := Catalog(i)"}],
  "query": {"calc": "Q(q) := Order('%s', q)"},
  "cinstance": {"rows": [%s]}
}`, strings.Join(rows, ", "), target, strings.Join(ci, ", ")))
}

// TestDomainsMatchReference: the production domain construction builds
// exactly what the reference construction (domains_ref_test.go) builds,
// on the shipped example, both scenarios of the running example, the
// property tests' generators and a 2000-item catalogue, each with its
// c-instance and without one.
func TestDomainsMatchReference(t *testing.T) {
	check := func(t *testing.T, p *core.Problem, ci *ctable.CInstance) {
		t.Helper()
		core.CheckDomainsMatchReference(t, p, ci)
		core.CheckDomainsMatchReference(t, p, nil)
	}
	t.Run("orders_rcdp", func(t *testing.T) {
		data, err := os.ReadFile("../../examples/orders_rcdp.json")
		if err != nil {
			t.Fatal(err)
		}
		p, ci, err := probjson.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		check(t, p, ci)
	})
	t.Run("paperex", func(t *testing.T) {
		for _, sc := range []*paperex.Scenario{paperex.Full(), paperex.Reduced()} {
			for _, q := range []*query.Query{sc.Q1, sc.Q2, sc.Q4} {
				p, err := sc.Problem(q, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				check(t, p, sc.T)
			}
		}
	})
	t.Run("generators", func(t *testing.T) {
		ps, cis := core.RandomProblemInputs(t, 4242, 12)
		for i, p := range ps {
			check(t, p, cis[i])
		}
	})
	t.Run("catalogue_2000", func(t *testing.T) {
		p, ci, err := probjson.Decode(catalogDocument(2000, 24, 1))
		if err != nil {
			t.Fatal(err)
		}
		check(t, p, ci)
	})
}
