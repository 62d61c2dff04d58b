package core_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/fault"
	"relcomplete/internal/obs"
	"relcomplete/internal/probjson"
	"relcomplete/internal/relation"
	"relcomplete/internal/search"
)

// heavySearchDocument is the shape of the served benchmark's
// heavy_search tenants, drawn without randomness: a 300-item catalogue,
// the four quantities of the target item as ground rows, 46 ground
// orders on other items, then two variable rows Order(target, ?v) over
// the four-value qty domain. The variables' 16 valuations all yield the
// ground prefix itself, so every decide checks one distinct model.
func heavySearchDocument() []byte {
	const items, target = 300, 7
	catalog := make([]string, items)
	for i := range catalog {
		catalog[i] = fmt.Sprintf(`["item%d"]`, i)
	}
	var rows []string
	for q := 1; q <= 4; q++ {
		rows = append(rows, fmt.Sprintf(`{"rel": "Order", "terms": ["item%d", "%d"]}`, target, q))
	}
	for i := 0; i < 46; i++ {
		item := (i*53 + 11) % items
		if item == target {
			item++
		}
		rows = append(rows, fmt.Sprintf(`{"rel": "Order", "terms": ["item%d", "%d"]}`, item, i%4+1))
	}
	for v := 0; v < 2; v++ {
		rows = append(rows, fmt.Sprintf(`{"rel": "Order", "terms": ["item%d", "?v%d"]}`, target, v))
	}
	return []byte(fmt.Sprintf(`{
  "schema": {"relations": [{"name": "Order", "attrs": [{"name": "item"}, {"name": "qty", "domain": ["1", "2", "3", "4"]}]}]},
  "master": {"relations": [{"name": "Catalog", "attrs": [{"name": "item"}]}], "rows": {"Catalog": [%s]}},
  "ccs": [{"name": "item_bound", "left": "q(i) := Order(i, q)", "right": "p(i) := Catalog(i)"}],
  "query": {"calc": "Q(q) := Order('item%d', q)"},
  "cinstance": {"rows": [%s]}
}`, strings.Join(catalog, ", "), target, strings.Join(rows, ", ")))
}

// heavySearchDecides are the heavy_search workload's four deciders.
var heavySearchDecides = []struct {
	name   string
	decide func(p *core.Problem, ci *ctable.CInstance) error
}{
	{"rcdp_strong", func(p *core.Problem, ci *ctable.CInstance) error {
		ok, err := p.RCDP(ci, core.Strong)
		if err == nil && !ok {
			err = fmt.Errorf("strong RCDP = false, want complete")
		}
		return err
	}},
	{"rcdp_weak", func(p *core.Problem, ci *ctable.CInstance) error {
		ok, err := p.RCDP(ci, core.Weak)
		if err == nil && !ok {
			err = fmt.Errorf("weak RCDP = false, want complete")
		}
		return err
	}},
	{"certain", func(p *core.Problem, ci *ctable.CInstance) error {
		ans, err := p.CertainAnswers(ci)
		if err == nil && len(ans) != 4 {
			err = fmt.Errorf("certain answers %v, want the four quantities", ans)
		}
		return err
	}},
	{"minp_strong", func(p *core.Problem, ci *ctable.CInstance) error {
		ok, err := p.MINP(ci, core.Strong)
		if err == nil && ok {
			err = fmt.Errorf("strong MINP = true, want not minimal")
		}
		return err
	}},
}

// removalDecides are the deciders besides strong MINP that reach its
// removal check: viable MINP, and GroundMinimal on the c-instance's one
// model. ci.Apply builds that model without probing an index or
// touching the problem, so the decide's counters are GroundMinimal's.
var removalDecides = []struct {
	name   string
	decide func(p *core.Problem, ci *ctable.CInstance) error
}{
	{"minp_viable", func(p *core.Problem, ci *ctable.CInstance) error {
		ok, err := p.MINP(ci, core.Viable)
		if err == nil && ok {
			err = fmt.Errorf("viable MINP = true, want not minimal")
		}
		return err
	}},
	{"ground_minimal", func(p *core.Problem, ci *ctable.CInstance) error {
		db, err := ci.Apply(ctable.Valuation{"v0": "1", "v1": "1"})
		if err != nil {
			return err
		}
		ok, err := p.GroundMinimal(db)
		if err == nil && ok {
			err = fmt.Errorf("GroundMinimal = true, want not minimal")
		}
		return err
	}},
}

// candidateCounters lists the counters TestCandidateCountersPinned
// asserts, in the order of each case's want.
var candidateCounters = []string{
	"valuations_enumerated", "models_checked", "extensions_tested",
	"cc_checks", "cc_violations", "plan_runs", "rows_probed", "index_builds",
}

// TestCandidateCountersPinned pins how many candidates each
// heavy_search decider, viable MINP and GroundMinimal enumerate and
// check on heavySearchDocument at Parallelism 1, and what checking them
// costs in CC checks, plan runs, rows probed and index builds. A case
// decides once on a fresh problem; its warm/ twin decides twice on one
// resident problem, as the served path does, and pins the second
// decide.
func TestCandidateCountersPinned(t *testing.T) {
	want := map[string][]int64{
		"rcdp_strong":         {16, 1, 0, 5, 0, 6, 58, 1},
		"rcdp_weak":           {17, 2, 1, 3, 0, 6, 109, 2},
		"certain":             {16, 1, 0, 1, 0, 2, 54, 1},
		"minp_strong":         {17, 2, 0, 5, 0, 6, 58, 1},
		"minp_viable":         {16, 1, 0, 5, 0, 6, 58, 1},
		"ground_minimal":      {0, 0, 0, 5, 0, 6, 58, 1},
		"warm/rcdp_strong":    {16, 1, 0, 0, 0, 0, 0, 0},
		"warm/rcdp_weak":      {17, 2, 1, 1, 0, 2, 1, 1},
		"warm/certain":        {16, 1, 0, 0, 0, 0, 0, 0},
		"warm/minp_strong":    {17, 2, 0, 0, 0, 0, 0, 0},
		"warm/minp_viable":    {16, 1, 0, 0, 0, 0, 0, 0},
		"warm/ground_minimal": {0, 0, 0, 1, 0, 2, 54, 1},
	}
	doc := heavySearchDocument()
	decides := append(heavySearchDecides[:len(heavySearchDecides):len(heavySearchDecides)], removalDecides...)
	for _, warm := range []bool{false, true} {
		for _, c := range decides {
			name := c.name
			if warm {
				name = "warm/" + c.name
			}
			t.Run(name, func(t *testing.T) {
				p, ci, err := probjson.Decode(doc)
				if err != nil {
					t.Fatal(err)
				}
				p.Options.Parallelism = 1
				if warm {
					if err := c.decide(p, ci); err != nil {
						t.Fatal(err)
					}
				}
				m := obs.NewMetrics()
				p.Options.Obs = m
				relation.SetMetrics(m)
				defer relation.SetMetrics(nil)
				if err := c.decide(p, ci); err != nil {
					t.Fatal(err)
				}
				st := m.Snapshot().Counters
				got := make([]int64, len(candidateCounters))
				for i, name := range candidateCounters {
					got[i] = st[name]
				}
				if fmt.Sprint(got) != fmt.Sprint(want[name]) {
					t.Errorf("%v = %v, want %v", candidateCounters, got, want[name])
				}
			})
		}
	}
}

// BenchmarkCandidateChecks decides each heavy_search decider on a
// resident heavySearchDocument problem at Parallelism 1, as the served
// benchmark's heavy_search workload does: the problem has decided once
// before timing, so its memoised domains and lattices are warm, and
// each op is one decide. Run it with -cpu 1.
func BenchmarkCandidateChecks(b *testing.B) {
	p, ci, err := probjson.Decode(heavySearchDocument())
	if err != nil {
		b.Fatal(err)
	}
	p.Options.Parallelism = 1
	for _, c := range heavySearchDecides {
		if err := c.decide(p, ci); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range heavySearchDecides {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.decide(p, ci); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// growingMasterDoc's only order is on widget, the only catalogue item.
// Q asks for gizmo's quantities; gizmo is a query constant, so it is in
// the lattice's candidates before the catalogue lists it.
const growingMasterDoc = `{
  "schema": {"relations": [{"name": "Order", "attrs": [{"name": "item"}, {"name": "qty"}]}]},
  "master": {"relations": [{"name": "Catalog", "attrs": [{"name": "item"}]}], "rows": {"Catalog": [["widget"]]}},
  "ccs": [{"name": "item_bound", "left": "q(i) := Order(i, q)", "right": "p(i) := Catalog(i)"}],
  "query": {"calc": "Q(q) := Order('gizmo', q)"},
  "cinstance": {"rows": [{"rel": "Order", "terms": ["widget", "1"]}]}
}`

// TestMasterGrowthRefreshesMemos: a warm problem decides over its
// master data as it is now. While the catalogue lists only widget, no
// gizmo order can be added and T is strongly complete; once gizmo is
// listed, the warm problem must find the counterexample a fresh problem
// over the grown catalogue finds, although the lattice's candidates are
// unchanged and gizmo's orders were memoised as not closed.
func TestMasterGrowthRefreshesMemos(t *testing.T) {
	decide := func(p *core.Problem, ci *ctable.CInstance) string {
		t.Helper()
		ok, cex, err := p.RCDPExplain(ci, core.Strong)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v %v", ok, cex)
	}
	warm, ci, err := probjson.Decode([]byte(growingMasterDoc))
	if err != nil {
		t.Fatal(err)
	}
	warm.Options.Parallelism = 1
	if got := decide(warm, ci); got != "true <complete>" {
		t.Fatalf("before the catalogue grows: %s, want true <complete>", got)
	}
	warm.Master.MustInsert("Catalog", relation.T("gizmo"))
	fresh, freshCI, err := probjson.Decode([]byte(growingMasterDoc))
	if err != nil {
		t.Fatal(err)
	}
	fresh.Options.Parallelism = 1
	fresh.Master.MustInsert("Catalog", relation.T("gizmo"))
	want := decide(fresh, freshCI)
	if !strings.HasPrefix(want, "false ") {
		t.Fatalf("fresh problem over the grown catalogue: %s, want a counterexample", want)
	}
	if got := decide(warm, ci); got != want {
		t.Errorf("warm problem after the catalogue grows: %s, want %s", got, want)
	}
}

// TestConcurrentDecidesShareCandidateChecks decides the heavy_search
// deciders and consistency from eight goroutines at once on one fresh
// resident problem at Parallelism 2, so the decides race to build and
// share its domains, the ground prefix's CC verdict and answers, and
// the closure memo. Every result must be the sequential one. Run it
// under -race.
func TestConcurrentDecidesShareCandidateChecks(t *testing.T) {
	doc := heavySearchDocument()
	decides := append(heavySearchDecides[:len(heavySearchDecides):len(heavySearchDecides)], struct {
		name   string
		decide func(p *core.Problem, ci *ctable.CInstance) error
	}{"consistency", func(p *core.Problem, ci *ctable.CInstance) error {
		ok, err := p.Consistent(ci)
		if err == nil && !ok {
			err = fmt.Errorf("consistency = false, want consistent")
		}
		return err
	}})
	p, ci, err := probjson.Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	p.Options.Parallelism = 2
	const goroutines = 8
	errs := make(chan error, goroutines*len(decides))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range decides {
				c := decides[(i+g)%len(decides)]
				if err := c.decide(p, ci); err != nil {
					errs <- fmt.Errorf("goroutine %d %s: %w", g, c.name, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInjectedPrefixAnswersFaultNotMemoised injects an error and then a
// panic into a resident problem's first, cold evaluation of Q on T's
// ground prefix, under certain answers and under strong RCDP's bounded
// check. Both must come back typed. The same problem must then decide
// fault-free as a fresh problem does, and promptly: a failed evaluation
// memoises no answers and leaves no lock held.
func TestInjectedPrefixAnswersFaultNotMemoised(t *testing.T) {
	doc := heavySearchDocument()
	decode := func() (*core.Problem, *ctable.CInstance) {
		p, ci, err := probjson.Decode(doc)
		if err != nil {
			t.Fatal(err)
		}
		p.Options.Parallelism = 1
		return p, ci
	}
	// A model's first evaluations are V's on the ground prefix; count
	// them on a fresh problem, whose consistency decide runs only those.
	counter := fault.NewPlan(fault.Rule{Site: fault.SiteEvalAnswers, Kind: fault.KindDelay})
	p, ci := decode()
	p.Options.FaultPlan = counter
	if _, err := p.Consistent(ci); err != nil {
		t.Fatal(err)
	}
	ccVisits := counter.Visits(fault.SiteEvalAnswers)

	decides := []struct {
		name   string
		decide func(p *core.Problem, ci *ctable.CInstance) (string, error)
	}{
		{"certain", func(p *core.Problem, ci *ctable.CInstance) (string, error) {
			ans, err := p.CertainAnswers(ci)
			return fmt.Sprint(ans), err
		}},
		{"rcdp_strong", func(p *core.Problem, ci *ctable.CInstance) (string, error) {
			ok, cex, err := p.RCDPExplain(ci, core.Strong)
			return fmt.Sprint(ok, cex), err
		}},
	}
	for _, c := range decides {
		t.Run(c.name, func(t *testing.T) {
			fresh, freshCI := decode()
			want, err := c.decide(fresh, freshCI)
			if err != nil {
				t.Fatal(err)
			}
			p, ci := decode()
			// The first fault lands after the prefix's CC check, which
			// is then memoised, so the second lands on the first visit.
			for i, kind := range []fault.Kind{fault.KindError, fault.KindPanic} {
				after := int64(0)
				if i == 0 {
					after = ccVisits
				}
				plan := fault.NewPlan(fault.Rule{Site: fault.SiteEvalAnswers, Kind: kind, After: after})
				p.Options.FaultPlan = plan
				_, err := c.decide(p, ci)
				p.Options.FaultPlan = nil
				if got := plan.Visits(fault.SiteEvalAnswers); got != after+1 {
					t.Fatalf("%v: %d evaluations, want the prefix's CC check (%d) and Q on the prefix", kind, got, after)
				}
				var pe *search.PanicError
				switch {
				case kind == fault.KindError && !errors.Is(err, fault.ErrInjected):
					t.Fatalf("injected error came back as %v", err)
				case kind == fault.KindPanic && !errors.As(err, &pe):
					t.Fatalf("injected panic came back as %v", err)
				case kind == fault.KindPanic:
					if _, ok := pe.Recovered.(fault.PanicValue); !ok {
						t.Fatalf("recovered %v, want the injected panic", pe.Recovered)
					}
				}
			}
			var got string
			done := make(chan struct{})
			go func() {
				defer close(done)
				got, err = c.decide(p, ci)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("the fault-free decide did not return: a lock was left held")
			}
			if err != nil || got != want {
				t.Errorf("fault-free decide after the faults: %s, %v; a fresh problem decides %s", got, err, want)
			}
		})
	}
}
