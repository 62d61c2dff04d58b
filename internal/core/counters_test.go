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

// pinnedCounters lists the counters TestDecideCountersPinned asserts,
// in the order of each case's want.
var pinnedCounters = []string{
	"valuations_enumerated", "models_checked", "models_admitted",
	"extensions_tested", "counterexamples_found", "cc_checks", "cc_violations",
	"plan_compilations", "plan_runs", "naive_evaluations",
	"index_builds", "index_probes", "values_interned", "intern_hits",
}

// TestDecideCountersPinned pins the exact values of the solver, eval
// and relation counters for one fixed sequential decide per property
// on counterDoc. The index counters count the hash indexes the decide
// builds and probes on candidates, extensions and probe databases.
// values_interned and intern_hits are retired and must stay 0.
func TestDecideCountersPinned(t *testing.T) {
	cases := []struct {
		property string
		decide   func(p *core.Problem, ci *ctable.CInstance) error
		want     []int64 // in pinnedCounters order
	}{
		{"consistency", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.Consistent(ci)
			return err
		}, []int64{9, 8, 1, 0, 0, 8, 7, 2, 8, 0, 0, 0, 0, 0}},
		{"rcdp_strong", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.RCDP(ci, core.Strong)
			return err
		}, []int64{49, 28, 3, 0, 0, 34, 31, 3, 37, 0, 3, 3, 0, 0}},
		{"rcdp_weak", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.RCDP(ci, core.Weak)
			return err
		}, []int64{22, 20, 2, 9, 0, 29, 26, 3, 31, 0, 2, 2, 0, 0}},
		{"extensibility", func(p *core.Problem, ci *ctable.CInstance) error {
			db, err := p.AnyModel(ci)
			if err != nil {
				return err
			}
			_, err = p.Extensible(db)
			return err
		}, []int64{9, 8, 1, 9, 0, 17, 15, 2, 17, 0, 0, 0, 0, 0}},
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
			for i, name := range pinnedCounters {
				if st[name] != c.want[i] {
					t.Errorf("%s = %d, want %d", name, st[name], c.want[i])
				}
			}
		})
	}
}
