package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/fault"
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
// split index_probes by whether the probe found a row. counterDoc's
// query is tuple-local and every model adds a tuple to T's ground
// prefix, so Q on a model costs a plan run on the prefix, once per
// domains, and one on the added tuples. Each case also
// pins its per-call observations: the phases it ran (name:count), the
// decider_wall_seconds observation count, and the count/sum of the
// models_admitted_per_call and models_pruned_per_call histograms.
func TestDecideCountersPinned(t *testing.T) {
	cases := []struct {
		property string
		decide   func(p *core.Problem, ci *ctable.CInstance) error
		want     []int64 // in pinnedCounters order
		calls    perCall
	}{
		{"consistency", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.Consistent(ci)
			return err
		}, []int64{9, 8, 1, 0, 0, 3, 1, 2, 3, 0, 0, 0, 0, 0, 8, 0, 0,
			2, 5, 5, 0, 0},
			perCall{"consistency:1", 1, [2]int64{1, 1}, [2]int64{1, 7}}},
		{"rcdp_strong", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.RCDP(ci, core.Strong)
			return err
		}, []int64{49, 28, 3, 0, 0, 13, 10, 3, 17, 0, 4, 4, 0, 0, 28, 0, 0,
			15, 15, 15, 0, 4},
			perCall{"rcdp_strong:1", 1, [2]int64{1, 3}, [2]int64{1, 25}}},
		// search_items: 8 candidates for the certain answers over the
		// models, then 12 for the extension stream's per-model scans.
		{"rcdp_weak", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.RCDP(ci, core.Weak)
			return err
		}, []int64{22, 20, 2, 9, 0, 13, 9, 3, 18, 0, 4, 5, 0, 0, 20, 0, 0,
			16, 17, 17, 0, 5},
			perCall{"certain_answers:1 rcdp_weak:1", 2, [2]int64{2, 3}, [2]int64{2, 25}}},
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
		}, []int64{1, 1, 1, 1, 1, 8, 0, 3, 11, 0, 3, 3, 0, 0, 1, 0, 0,
			9, 13, 13, 2, 1},
			perCall{"rcdp_strong:1", 1, [2]int64{1, 1}, [2]int64{1, 0}}},
		{"extensibility", func(p *core.Problem, ci *ctable.CInstance) error {
			db, err := p.AnyModel(ci)
			if err != nil {
				return err
			}
			_, err = p.Extensible(db)
			return err
		}, []int64{9, 8, 1, 9, 0, 12, 9, 2, 12, 0, 0, 0, 0, 0, 0, 0, 0,
			11, 50, 50, 0, 0},
			perCall{"any_model:1 extensibility:1", 2, [2]int64{1, 1}, [2]int64{1, 7}}},
		{"certain", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.CertainAnswers(ci)
			return err
		}, []int64{9, 8, 1, 0, 0, 3, 1, 3, 5, 0, 2, 2, 0, 0, 8, 0, 0,
			3, 5, 5, 0, 2},
			perCall{"certain_answers:1", 1, [2]int64{1, 1}, [2]int64{1, 7}}},
		// Strong MINP decides strong RCDP first, then enumerates the
		// models again to look for a complete single-tuple removal.
		{"minp_strong", func(p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.MINP(ci, core.Strong)
			return err
		}, []int64{58, 36, 4, 0, 0, 13, 10, 3, 17, 0, 4, 4, 0, 0, 36, 0, 0,
			15, 15, 15, 0, 4},
			perCall{"minp_strong:1 rcdp_strong:1", 2, [2]int64{2, 7}, [2]int64{2, 57}}},
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
			if got := perCallOf(m); got != c.calls {
				t.Errorf("per-call observations = %+v, want %+v", got, c.calls)
			}
		})
	}
}

// perCall is what a decide's decider calls record besides counters:
// the phases (name:count, sorted by name), the decider_wall_seconds
// observation count, and the count and sum of models_admitted_per_call
// and of models_pruned_per_call.
type perCall struct {
	phases   string
	wall     int64
	admitted [2]int64
	pruned   [2]int64
}

func perCallOf(m *obs.Metrics) perCall {
	st := m.Snapshot()
	var phases []string
	for _, ph := range st.Phases {
		phases = append(phases, fmt.Sprintf("%s:%d", ph.Name, ph.Count))
	}
	pc := perCall{phases: strings.Join(phases, " ")}
	for _, h := range st.Histograms {
		switch h.Name {
		case "decider_wall_seconds":
			pc.wall = h.Count
		case "models_admitted_per_call":
			pc.admitted = [2]int64{h.Count, int64(h.Sum)}
		case "models_pruned_per_call":
			pc.pruned = [2]int64{h.Count, int64(h.Sum)}
		}
	}
	return pc
}

// TestDecideDeadlinePinned: a strong RCDP decide under an expired
// deadline aborts before its first model with a DeadlineError naming
// the decider, counts one deadline error and observes its cancel
// latency once. The call is measured once: the error's Elapsed, the
// phase's time and the decider_wall_seconds sum are the same
// nanoseconds.
func TestDecideDeadlinePinned(t *testing.T) {
	p, ci, err := probjson.Decode([]byte(counterDoc))
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	p.Options.Parallelism = 1
	p.Options.Obs = m
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = p.RCDPCtx(ctx, ci, core.Strong)
	var de *core.DeadlineError
	if !errors.As(err, &de) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a DeadlineError over context.DeadlineExceeded", err)
	}
	if de.Op != "rcdp_strong" || de.Partial != "no counterexample found in 0 models" {
		t.Errorf("DeadlineError op %q partial %q, want rcdp_strong, no counterexample found in 0 models", de.Op, de.Partial)
	}
	if got := m.Get(obs.DeadlineErrors); got != 1 {
		t.Errorf("deadline_errors = %d, want 1", got)
	}
	if got := m.HistoCount(obs.CancelLatencyNs); got != 1 {
		t.Errorf("cancel_latency_seconds observations = %d, want 1", got)
	}
	st := m.Snapshot()
	if len(st.Phases) != 1 || st.Phases[0].Name != "rcdp_strong" || st.Phases[0].Count != 1 {
		t.Fatalf("phases = %+v, want one rcdp_strong call", st.Phases)
	}
	ns := de.Elapsed.Nanoseconds()
	if got, want := st.Phases[0].Ms, float64(ns)/1e6; got != want {
		t.Errorf("phase rcdp_strong = %v ms, want the DeadlineError's %v ms", got, want)
	}
	var wall obs.HistogramStat
	for _, h := range st.Histograms {
		if h.Name == "decider_wall_seconds" {
			wall = h
		}
	}
	if wall.Count != 1 || wall.Sum != float64(ns)/1e9 {
		t.Errorf("decider_wall_seconds count %d sum %v s, want 1 observation of the DeadlineError's %v s",
			wall.Count, wall.Sum, float64(ns)/1e9)
	}
}

// TestDeadlineOpPinned pins which decider names the DeadlineError of
// each exported ...Ctx decider on a cancelled context: the innermost
// decider call that sees the abort. PartiallyClosedCtx finishes its
// one CC check without polling the context, so it returns its verdict
// and is not listed.
func TestDeadlineOpPinned(t *testing.T) {
	p, ci, err := probjson.Decode([]byte(counterDoc))
	if err != nil {
		t.Fatal(err)
	}
	p.Options.Parallelism = 1
	db, err := p.AnyModel(ci)
	if err != nil || db == nil {
		t.Fatalf("AnyModel = %v, %v", db, err)
	}
	type decide func(ctx context.Context) error
	cases := []struct {
		name, op string
		decide   decide
	}{
		{"ConsistentCtx", "consistency", func(ctx context.Context) error { _, err := p.ConsistentCtx(ctx, ci); return err }},
		{"AnyModelCtx", "any_model", func(ctx context.Context) error { _, err := p.AnyModelCtx(ctx, ci); return err }},
		{"ModelsCtx", "models", func(ctx context.Context) error { _, err := p.ModelsCtx(ctx, ci, 0); return err }},
		{"ExtensibleCtx", "extensibility", func(ctx context.Context) error { _, err := p.ExtensibleCtx(ctx, db); return err }},
		{"RCDPCtx strong", "rcdp_strong", func(ctx context.Context) error { _, err := p.RCDPCtx(ctx, ci, core.Strong); return err }},
		{"RCDPCtx weak", "certain_answers", func(ctx context.Context) error { _, err := p.RCDPCtx(ctx, ci, core.Weak); return err }},
		{"RCDPCtx viable", "rcdp_viable", func(ctx context.Context) error { _, err := p.RCDPCtx(ctx, ci, core.Viable); return err }},
		{"MINPCtx strong", "rcdp_strong", func(ctx context.Context) error { _, err := p.MINPCtx(ctx, ci, core.Strong); return err }},
		{"MINPCtx weak", "certain_answers", func(ctx context.Context) error { _, err := p.MINPCtx(ctx, ci, core.Weak); return err }},
		{"MINPCtx viable", "minp_viable", func(ctx context.Context) error { _, err := p.MINPCtx(ctx, ci, core.Viable); return err }},
		{"RCQPCtx strong", "rcqp", func(ctx context.Context) error { _, err := p.RCQPCtx(ctx, core.Strong); return err }},
		{"RCQPGroundCtx strong", "rcqp", func(ctx context.Context) error { _, err := p.RCQPGroundCtx(ctx, core.Strong); return err }},
		{"CertainAnswersCtx", "certain_answers", func(ctx context.Context) error { _, err := p.CertainAnswersCtx(ctx, ci); return err }},
		{"CertainAnswersOfExtensionsCtx", "certain_answers_of_extensions", func(ctx context.Context) error {
			_, _, err := p.CertainAnswersOfExtensionsCtx(ctx, ci)
			return err
		}},
		{"ConstructWeaklyCompleteCtx", "construct_weakly_complete", func(ctx context.Context) error {
			_, err := p.ConstructWeaklyCompleteCtx(ctx)
			return err
		}},
		{"GroundCompleteCtx", "ground_complete", func(ctx context.Context) error { _, _, err := p.GroundCompleteCtx(ctx, db); return err }},
		{"GroundMinimalCtx", "ground_complete", func(ctx context.Context) error { _, err := p.GroundMinimalCtx(ctx, db); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := c.decide(ctx)
			var de *core.DeadlineError
			if !errors.As(err, &de) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want a DeadlineError over context.Canceled", err)
			}
			if de.Op != c.op {
				t.Errorf("DeadlineError.Op = %q, want %q", de.Op, c.op)
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

// rcqpSearchDoc has one CC that is not a projection (its left side
// selects on b), so RCQP runs the bounded witness search; no instance
// of size 2 or less is complete, so the search runs to its bound.
const rcqpSearchDoc = `{
  "schema": {"relations": [{"name": "R", "attrs": [{"name": "a"}, {"name": "b"}]}]},
  "master": {"relations": [{"name": "M", "attrs": [{"name": "a"}]}],
             "rows": {"M": [["1"], ["2"], ["3"], ["4"]]}},
  "ccs": [{"name": "sel", "left": "q(x) := R(x, y) & y = '1'", "right": "p(x) := M(x)"}],
  "query": {"calc": "Q(x) := R(x, y)"},
  "cinstance": {"rows": []}
}`

// TestRCQPSearchCountersPinned: the bounded RCQP search counts each
// candidate instance it checks against the CCs in models_checked, and
// the partially closed ones in models_admitted, so its deadline partial
// "no witness found in %d models" reports the candidates checked. On
// rcqpSearchDoc at Parallelism 1 the search checks 172 candidates, the
// 172 its ErrInconclusive reports consumed. An expired deadline stops
// it before its first candidate; a deadline that fires mid-search
// reports the count its Progress carries.
func TestRCQPSearchCountersPinned(t *testing.T) {
	decode := func(t *testing.T) (*core.Problem, *obs.Metrics) {
		p, _, err := probjson.Decode([]byte(rcqpSearchDoc))
		if err != nil {
			t.Fatal(err)
		}
		m := obs.NewMetrics()
		p.Options.Parallelism = 1
		p.Options.Obs = m
		return p, m
	}
	t.Run("complete run", func(t *testing.T) {
		p, m := decode(t)
		if _, err := p.RCQP(core.Strong); !errors.Is(err, core.ErrInconclusive) {
			t.Fatalf("RCQP err = %v, want ErrInconclusive", err)
		}
		st := m.Snapshot().Counters
		for name, want := range map[string]int64{"models_checked": 172, "models_admitted": 137, "cc_checks": 190, "cc_violations": 37} {
			if st[name] != want {
				t.Errorf("%s = %d, want %d", name, st[name], want)
			}
		}
	})
	t.Run("expired deadline", func(t *testing.T) {
		p, _ := decode(t)
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		_, err := p.RCQPCtx(ctx, core.Strong)
		var de *core.DeadlineError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want a DeadlineError", err)
		}
		if de.Op != "rcqp" || de.Partial != "no witness found in 0 models" {
			t.Errorf("DeadlineError op %q partial %q, want rcqp, no witness found in 0 models", de.Op, de.Partial)
		}
	})
	t.Run("mid-search deadline", func(t *testing.T) {
		p, _ := decode(t)
		// Every query evaluation sleeps, so the deadline fires after a
		// few candidates whatever the machine's speed.
		p.Options.FaultPlan = fault.NewPlan(fault.Rule{Site: fault.SiteEvalAnswers, Kind: fault.KindDelay, Delay: 2 * time.Millisecond})
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_, err := p.RCQPCtx(ctx, core.Strong)
		var de *core.DeadlineError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want a DeadlineError", err)
		}
		n := de.Progress.ModelsChecked
		if want := fmt.Sprintf("no witness found in %d models", n); de.Op != "rcqp" || de.Partial != want || n < 1 {
			t.Errorf("DeadlineError op %q partial %q (models_checked %d), want rcqp and a positive count", de.Op, de.Partial, n)
		}
	})
}

// reachDoc is the reach program over three ground E rows: its one
// model derives three reach facts in the fixpoint's first round and
// three more in the next two.
const reachDoc = `{
  "schema": {"relations": [{"name": "E", "attrs": [{"name": "a"}, {"name": "b"}]}]},
  "master": {"relations": [], "rows": {}},
  "ccs": [],
  "query": {"fp": "reach(x, y) :- E(x, y). reach(x, z) :- reach(x, y), E(y, z). output reach."},
  "cinstance": {"rows": [
    {"rel": "E", "terms": ["1", "2"]},
    {"rel": "E", "terms": ["2", "3"]},
    {"rel": "E", "terms": ["3", "4"]}]}
}`

// TestBudgetCapsPinned pins how two caps outside the tuple lattices
// surface, at Parallelism 1: strong RCQP on counterDoc, whose only CC is
// an IND and whose query is unbounded, so the boundedness path
// enumerates the query's valuations, under MaxValuations 1; and the
// certain answers of reachDoc under MaxDerived 1, which the fixpoint on
// its one model exceeds. It pins the error's dynamic type, the
// BudgetError's cap, limit and consumption ("none" when the error
// carries none), budget_errors and derived_tuples.
func TestBudgetCapsPinned(t *testing.T) {
	cases := []struct {
		name         string
		doc          string
		cap          func(o *core.Options)
		decide       func(p *core.Problem, ci *ctable.CInstance) error
		errType      string
		budget       string
		budgetErrors int64
		derived      int64
	}{
		{"rcqp_max_valuations", counterDoc, func(o *core.Options) { o.MaxValuations = 1 },
			func(p *core.Problem, _ *ctable.CInstance) error {
				_, err := p.RCQP(core.Strong)
				return err
			}, "*core.BudgetError", "MaxValuations limit 1 consumed 2", 1, 0},
		{"fp_certain_max_derived", reachDoc, func(o *core.Options) { o.MaxDerived = 1 },
			func(p *core.Problem, ci *ctable.CInstance) error {
				_, err := p.CertainAnswers(ci)
				return err
			}, "*core.BudgetError", "MaxDerived limit 1 consumed 2", 1, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, ci, err := probjson.Decode([]byte(c.doc))
			if err != nil {
				t.Fatal(err)
			}
			m := obs.NewMetrics()
			p.Options.Parallelism = 1
			p.Options.Obs = m
			c.cap(&p.Options)
			err = c.decide(p, ci)
			if err == nil {
				t.Fatal("decide succeeded, want a budget failure")
			}
			budget := "none"
			var be *core.BudgetError
			if errors.As(err, &be) {
				budget = fmt.Sprintf("%s limit %d consumed %d", be.Cap, be.Limit, be.Consumed)
			}
			if got := fmt.Sprintf("%T", err); got != c.errType {
				t.Errorf("error type %s, want %s (%v)", got, c.errType, err)
			}
			if budget != c.budget {
				t.Errorf("budget %q, want %q (%v)", budget, c.budget, err)
			}
			st := m.Snapshot().Counters
			if st["budget_errors"] != c.budgetErrors {
				t.Errorf("budget_errors = %d, want %d", st["budget_errors"], c.budgetErrors)
			}
			if st["derived_tuples"] != c.derived {
				t.Errorf("derived_tuples = %d, want %d", st["derived_tuples"], c.derived)
			}
		})
	}
}
