package core_test

import (
	"testing"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/obs"
	"relcomplete/internal/probjson"
	"relcomplete/internal/relation"
)

// counterDoc has three ground Order rows before two variable rows that
// share a quantity, so valuations swapping x and y yield one model. The
// query's item 'aaa' is no catalogue item: it joins the variables'
// typed domain, where it sorts first and fails the CC, and Q is empty
// on every model, so strong RCDP holds and visits every candidate.
const counterDoc = `{
  "schema": {"relations": [
    {"name": "Order", "attrs": [{"name": "item"}, {"name": "qty"}]}]},
  "master": {
    "relations": [{"name": "Catalog", "attrs": [{"name": "item"}]}],
    "rows": {"Catalog": [["widget"], ["gadget"]]}},
  "ccs": [{"name": "order_in_catalog",
           "left":  "q(i) := Order(i, q)",
           "right": "p(i) := Catalog(i)"}],
  "query": {"calc": "Q(q) := Order('aaa', q)"},
  "cinstance": {"rows": [
    {"rel": "Order", "terms": ["widget", "1"]},
    {"rel": "Order", "terms": ["gadget", "2"]},
    {"rel": "Order", "terms": ["widget", "3"]},
    {"rel": "Order", "terms": ["?x", "4"]},
    {"rel": "Order", "terms": ["?y", "4"]}]}
}`

// TestDecideCountersPinned pins the exact values of the counters the
// candidate enumeration feeds, for one fixed sequential decide per
// property on counterDoc. The relation-layer counters count every
// intern call of the decide after the problem is built: candidates,
// extensions and probe databases. A candidate starts from its
// c-instance's ground prefix, interned once on the first Apply, so
// intern_hits grows by the variable rows per candidate, not by every
// row: building every candidate row by row made six more intern calls
// (the prefix's three rows of two values) for each valuation after the
// first, 79 and 484 hits instead of 31 and 196.
func TestDecideCountersPinned(t *testing.T) {
	type counts struct {
		valuations, checked, admitted, interned, hits int64
	}
	cases := []struct {
		property string
		decide   func(p *core.Problem, ci *ctable.CInstance) error
		want     counts
	}{
		{"consistency", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.Consistent(ci)
			return err
		}, counts{valuations: 9, checked: 8, admitted: 1, interned: 11, hits: 31}},
		{"rcdp_strong", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.RCDP(ci, core.Strong)
			return err
		}, counts{valuations: 49, checked: 28, admitted: 3, interned: 18, hits: 196}},
	}
	for _, c := range cases {
		t.Run(c.property, func(t *testing.T) {
			p, ci, err := probjson.Decode([]byte(counterDoc))
			if err != nil {
				t.Fatal(err)
			}
			m := obs.NewMetrics()
			p.Options.Parallelism = 1
			p.Options.Obs = m
			relation.SetMetrics(m)
			defer relation.SetMetrics(nil)
			if err := c.decide(p, ci); err != nil {
				t.Fatal(err)
			}
			st := m.Snapshot().Counters
			got := counts{st["valuations_enumerated"], st["models_checked"], st["models_admitted"],
				st["values_interned"], st["intern_hits"]}
			if got != c.want {
				t.Errorf("counters %+v, want %+v", got, c.want)
			}
		})
	}
}
