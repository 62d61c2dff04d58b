package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"relcomplete/internal/probjson"
)

// everyProperty lists one decide request per property and model.
var everyProperty = []DecideRequest{
	{Property: "consistency"},
	{Property: "extensibility"},
	{Property: "rcdp", Model: "strong"},
	{Property: "rcdp", Model: "weak"},
	{Property: "rcdp", Model: "viable"},
	{Property: "rcqp", Model: "strong"},
	{Property: "rcqp", Model: "weak"},
	{Property: "rcqp", Model: "viable"},
	{Property: "minp", Model: "strong"},
	{Property: "minp", Model: "weak"},
	{Property: "minp", Model: "viable"},
	{Property: "certain"},
}

// outcome is the part of a decide answer that must not depend on which
// problem instance served it: status, verdict, counterexample, certain
// answers, error kind and the budget detail.
type outcome struct {
	Status         int
	Verdict        *bool
	Counterexample string
	CertainAnswers []string
	Kind           string
	Budget         *BudgetInfo
}

func (o outcome) String() string {
	v := "null"
	if o.Verdict != nil {
		v = fmt.Sprint(*o.Verdict)
	}
	return fmt.Sprintf("status=%d verdict=%s kind=%q budget=%+v cex=%q certain=%q",
		o.Status, v, o.Kind, o.Budget, o.Counterexample, o.CertainAnswers)
}

// overrideQueries are the query overrides the tables send: none (a
// plain or budget-only decide), the orders document's own query, one
// that no model satisfies, and one whose constant is a master value.
var overrideQueries = []string{"", "Q(i) := Order(i)", "Q(i) := Order(i) & Order('zzz')", "Q(i) := Order(i) & i != 'widget'"}

// refSeq names the reference problems.
var refSeq atomic.Int64

// reference is the outcome req must have, from a decide that shares
// nothing with any other: a fresh PUT of the orders document with req's
// query and budget written into it, decided cold with no override.
func reference(t *testing.T, base string, req DecideRequest) outcome {
	t.Helper()
	doc, err := DecodeDocument(ordersDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if req.Query != "" {
		doc.Query = probjson.QueryDoc{Calc: req.Query}
	}
	if b := req.Budget; b != nil {
		doc.Options = probjson.OptionsDoc{MaxValuations: b.MaxValuations, MaxSubsets: b.MaxSubsets,
			RCQPSizeBound: b.RCQPSizeBound, MaxDerived: b.MaxDerived}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("ref-%d", refSeq.Add(1))
	if resp := doJSON(t, http.MethodPut, base+"/v1/problems/"+name, raw, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT %s: status %d", name, resp.StatusCode)
	}
	return outcomeOf(t, base, name, DecideRequest{Property: req.Property, Model: req.Model})
}

func outcomeOf(t *testing.T, base, name string, req DecideRequest) outcome {
	t.Helper()
	o, err := tryOutcome(base, name, req)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// tryOutcome is outcomeOf for goroutines other than the test's own,
// which must not call t.Fatal.
func tryOutcome(base, name string, req DecideRequest) (outcome, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return outcome{}, err
	}
	resp, err := http.Post(base+"/v1/problems/"+name+"/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{}, err
	}
	defer resp.Body.Close()
	var dr DecideResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return outcome{}, fmt.Errorf("decide %s: decoding body: %w", name, err)
	}
	return outcome{Status: resp.StatusCode, Verdict: dr.Verdict, Counterexample: dr.Counterexample,
		CertainAnswers: dr.CertainAnswers, Kind: dr.Kind, Budget: dr.Budget}, nil
}

// A budget-only override decides on a view of the resident problem,
// which shares the memoised state earlier decides left behind; a query
// override decides on the resident master data, CCs and c-instance,
// which earlier decides have warmed too. Either outcome must be the
// reference's — the same verdict, or the same budget error with the
// same detail — for every property at every budget, on a cold resident
// problem and on a warm one. The overrides must leave the resident
// state as the PUTs left it.
func TestBudgetOverrideIndependentOfWarmth(t *testing.T) {
	// One worker: the budget detail of a parallel search may shift by
	// the dispatch window, and this table compares it exactly.
	s, ts := newTestServer(t, Config{Workers: 1})
	_, ref := newTestServer(t, Config{Workers: 1})
	putOrders(t, ts.URL, "warm")
	for _, req := range everyProperty {
		outcomeOf(t, ts.URL, "warm", req)
	}
	budgets := []*BudgetRequest{nil}
	for _, mv := range []int{1, 2, 3, 5, 8, 13} {
		budgets = append(budgets, &BudgetRequest{MaxValuations: mv})
	}
	type cell struct {
		req  DecideRequest
		cold string
	}
	var cells []cell
	for qi, q := range overrideQueries {
		for bi, budget := range budgets {
			if q == "" && budget == nil {
				continue // no override
			}
			for i, req := range everyProperty {
				req.Query, req.Budget = q, budget
				cold := fmt.Sprintf("cold-%d-%d-%d", qi, bi, i)
				putOrders(t, ts.URL, cold)
				cells = append(cells, cell{req, cold})
			}
		}
	}
	warm, _ := s.Registry().Get("warm")
	resident := s.Registry().ResidentBytes()
	masterSize, masterBytes := warm.Problem.Master.Size(), warm.Problem.Master.ResidentBytes()

	sawBudget := false
	for _, c := range cells {
		want := reference(t, ref.URL, c.req)
		if got := outcomeOf(t, ts.URL, c.cold, c.req); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s query=%q budget=%+v:\n cold      %v\n reference %v", c.req.Property, c.req.Model, c.req.Query, c.req.Budget, got, want)
		}
		if got := outcomeOf(t, ts.URL, "warm", c.req); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s query=%q budget=%+v:\n warm      %v\n reference %v", c.req.Property, c.req.Model, c.req.Query, c.req.Budget, got, want)
		}
		sawBudget = sawBudget || want.Kind == KindBudget
	}
	if !sawBudget {
		t.Fatal("no decide hit its budget: the table checks nothing")
	}
	if got := s.Registry().ResidentBytes(); got != resident {
		t.Errorf("registry resident bytes %d after the overrides, %d before", got, resident)
	}
	if got := warm.Problem.Master.Size(); got != masterSize {
		t.Errorf("warm master has %d rows after the overrides, %d before", got, masterSize)
	}
	if got := warm.Problem.Master.ResidentBytes(); got != masterBytes {
		t.Errorf("warm master resident bytes %d after the overrides, %d before", got, masterBytes)
	}
}

// Resident decides, budget overrides and query overrides run against
// one problem at the same time and must return the reference's outcome.
// The race detector watches the state they share with the resident
// problem: the memo for views, the master data, CCs and c-instance for
// every decide.
func TestConcurrentViewsAgreeWithRebuild(t *testing.T) {
	budgets := []*BudgetRequest{nil, {MaxValuations: 1 << 20, MaxSubsets: 1 << 20}, {MaxValuations: 1}}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: workers, MaxConcurrent: 4, MaxQueue: 256})
			putOrders(t, ts.URL, "shared")
			type key struct{ prop, budget, query int }
			want := map[key]outcome{}
			for q, query := range overrideQueries {
				for b, budget := range budgets {
					if workers > 1 && budget != nil && budget.MaxValuations == 1 {
						continue // where a parallel search trips its budget may vary
					}
					for i, req := range everyProperty {
						req.Query, req.Budget = query, budget
						want[key{i, b, q}] = reference(t, ts.URL, req)
					}
				}
			}
			cells := len(everyProperty) * len(budgets) * len(overrideQueries)
			var wg sync.WaitGroup
			errs := make(chan string, 4*cells)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for n := 0; n < cells; n++ {
						// Each goroutine walks the whole table from its own
						// offset.
						c := (g*cells/4 + n) % cells
						k := key{c % len(everyProperty), c / len(everyProperty) % len(budgets), c / len(everyProperty) / len(budgets)}
						w, ok := want[k]
						if !ok {
							continue
						}
						req := everyProperty[k.prop]
						req.Budget, req.Query = budgets[k.budget], overrideQueries[k.query]
						got, err := tryOutcome(ts.URL, "shared", req)
						if err != nil {
							errs <- err.Error()
						} else if !reflect.DeepEqual(got, w) {
							errs <- fmt.Sprintf("%s %s query=%q budget=%+v:\n got       %v\n reference %v", req.Property, req.Model, req.Query, req.Budget, got, w)
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}

// A budget-only override leaves the resident problem's own budgets
// alone: a plain decide after a failing override still succeeds.
func TestBudgetViewLeavesResidentOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	putOrders(t, ts.URL, "orders")
	req := DecideRequest{Property: "rcdp", Model: "strong", Budget: &BudgetRequest{MaxValuations: 1}}
	if o := outcomeOf(t, ts.URL, "orders", req); o.Status != http.StatusUnprocessableEntity || o.Kind != KindBudget {
		t.Fatalf("override: %v", o)
	}
	req.Budget = nil
	if o := outcomeOf(t, ts.URL, "orders", req); o.Status != http.StatusOK || o.Verdict == nil || *o.Verdict {
		t.Fatalf("resident after override: %v", o)
	}
}
