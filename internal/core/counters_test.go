package core_test

import (
	"fmt"
	"testing"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/obs"
	"relcomplete/internal/probjson"
	"relcomplete/internal/query"
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
	"search_items", "search_cancellations", "search_races_resolved",
	"plan_cache_hits", "rows_probed", "rows_emitted",
	"index_probe_hits", "index_probe_misses",
}

// TestDecideCountersPinned pins the exact values of the solver, eval,
// relation and search counters for one fixed sequential decide per
// property on counterDoc. The index counters count the hash indexes the
// decide builds and probes on candidates, extensions and probe
// databases. search_items counts the candidates the search engine
// probes; the sequential engine issues no stop signal and resolves no
// race, so search_cancellations and search_races_resolved stay 0.
// values_interned and intern_hits are retired and must stay 0.
// plan_cache_hits counts the compiled plans reused from the problem's
// and the CCs' caches; rows_probed and rows_emitted the rows the plans'
// atom nodes fetched and kept; index_probe_hits and index_probe_misses
// split index_probes by whether the probe found a row.
func TestDecideCountersPinned(t *testing.T) {
	cases := []struct {
		property string
		decide   func(p *core.Problem, ci *ctable.CInstance) error
		want     []int64 // in pinnedCounters order
	}{
		{"consistency", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.Consistent(ci)
			return err
		}, []int64{9, 8, 1, 0, 0, 8, 7, 2, 8, 0, 0, 0, 0, 0, 8, 0, 0,
			7, 32, 32, 0, 0}},
		{"rcdp_strong", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.RCDP(ci, core.Strong)
			return err
		}, []int64{49, 28, 3, 0, 0, 34, 31, 3, 37, 0, 3, 3, 0, 0, 28, 0, 0,
			35, 127, 127, 0, 3}},
		// search_items: 8 candidates for the certain answers over the
		// models, then 12 for the extension stream's per-model scans.
		{"rcdp_weak", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.RCDP(ci, core.Weak)
			return err
		}, []int64{22, 20, 2, 9, 0, 29, 26, 3, 31, 0, 2, 2, 0, 0, 20, 0, 0,
			29, 125, 125, 0, 2}},
		// The document's inputs with Q(q) := Order('widget', q): widget
		// is a catalogue item, so extending the first model by a widget
		// order with a new quantity gains an answer, and strong RCDP
		// stops at that counterexample.
		{"rcdp_strong_counterexample", func(p *core.Problem, ci *ctable.CInstance) error {
			p, err := core.NewProblem(p.Schema, core.CalcQuery(query.MustParseQuery("Q(q) := Order('widget', q)")), p.Master, p.CCs, p.Options)
			if err != nil {
				return err
			}
			if ok, err := p.RCDP(ci, core.Strong); err != nil || ok {
				return fmt.Errorf("RCDP = %v, %v; want a counterexample", ok, err)
			}
			return nil
		}, []int64{1, 1, 1, 1, 1, 8, 0, 3, 10, 0, 2, 2, 0, 0, 1, 0, 0,
			8, 20, 20, 2, 0}},
		{"extensibility", func(p *core.Problem, ci *ctable.CInstance) error {
			db, err := p.AnyModel(ci)
			if err != nil {
				return err
			}
			_, err = p.Extensible(db)
			return err
		}, []int64{9, 8, 1, 9, 0, 17, 15, 2, 17, 0, 0, 0, 0, 0, 0, 0, 0,
			16, 77, 77, 0, 0}},
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

// twoModelDoc has one variable row whose two models answer Q
// differently (widget and gadget), so the certain answers over the
// models are empty and weak RCDP's extension stream stops as soon as
// the intersection over (model, extension) pairs is empty.
const twoModelDoc = `{
  "schema": {"relations": [
    {"name": "Order", "attrs": [{"name": "item"}, {"name": "qty"}]}]},
  "master": {
    "relations": [{"name": "Catalog", "attrs": [{"name": "item"}]}],
    "rows": {"Catalog": [["widget"], ["gadget"]]}},
  "ccs": [{"name": "order_in_catalog",
           "left":  "q(i) := Order(i, q)",
           "right": "p(i) := Catalog(i)"}],
  "query": {"calc": "Q(i) := exists q: Order(i, q)"},
  "cinstance": {"rows": [{"rel": "Order", "terms": ["?x", "1"]}]}
}`

// TestWeakStreamEarlyStopPinned pins where the sequential extension
// stream stops. The second model's scan starts from the intersection
// folded over the first model's extensions ({widget}), so it stops on
// its first extension that lacks widget; a scan of the second model on
// its own would never empty its intersection and would test every one
// of its extensions.
func TestWeakStreamEarlyStopPinned(t *testing.T) {
	p, ci, err := probjson.Decode([]byte(twoModelDoc))
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	p.Options.Parallelism = 1
	p.Options.Obs = m
	ok, err := p.RCDP(ci, core.Weak)
	if err != nil || !ok {
		t.Fatalf("weak RCDP = %v, %v; want weakly complete", ok, err)
	}
	if got := m.Get(obs.ExtensionsTested); got != 45 {
		t.Errorf("extensions_tested = %d, want 45", got)
	}
}
