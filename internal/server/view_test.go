package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
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

// ordersQuery is the query of the orders document. A query override
// with it rebuilds the document privately: the path every override
// took before budget-only overrides were served from a view, and the
// reference the view must match.
const ordersQuery = "Q(i) := Order(i)"

func rebuilt(req DecideRequest) DecideRequest {
	req.Query = ordersQuery
	return req
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
// which shares the memoised state earlier decides left behind. Its
// outcome must still be the one a private rebuild gives — the same
// verdict, or the same budget error with the same detail — for every
// property at every budget, on a cold resident problem and on a warm
// one.
func TestBudgetOverrideIndependentOfWarmth(t *testing.T) {
	// One worker: the budget detail of a parallel search may shift by
	// the dispatch window, and this table compares it exactly.
	_, ts := newTestServer(t, Config{Workers: 1})
	putOrders(t, ts.URL, "warm")
	for _, req := range everyProperty {
		outcomeOf(t, ts.URL, "warm", req)
	}
	sawBudget := false
	for _, mv := range []int{1, 2, 3, 5, 8, 13} {
		for i, req := range everyProperty {
			req.Budget = &BudgetRequest{MaxValuations: mv}
			want := outcomeOf(t, ts.URL, "warm", rebuilt(req))
			cold := fmt.Sprintf("cold-%d-%d", mv, i)
			putOrders(t, ts.URL, cold)
			if got := outcomeOf(t, ts.URL, cold, req); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s max_valuations=%d:\n cold view %v\n rebuild   %v", req.Property, req.Model, mv, got, want)
			}
			if got := outcomeOf(t, ts.URL, "warm", req); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s max_valuations=%d:\n warm view %v\n rebuild   %v", req.Property, req.Model, mv, got, want)
			}
			sawBudget = sawBudget || want.Kind == KindBudget
		}
	}
	if !sawBudget {
		t.Fatal("no decide hit its budget: the table checks nothing")
	}
}

// Resident decides and budget-override decides run against one problem
// at the same time and must return what a private rebuild returns. The
// race detector watches the state the views share with the resident
// problem.
func TestConcurrentViewsAgreeWithRebuild(t *testing.T) {
	budgets := []*BudgetRequest{nil, {MaxValuations: 1 << 20, MaxSubsets: 1 << 20}, {MaxValuations: 1}}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: workers, MaxConcurrent: 4, MaxQueue: 256})
			putOrders(t, ts.URL, "shared")
			type key struct{ prop, budget int }
			want := map[key]outcome{}
			for b, budget := range budgets {
				if workers > 1 && budget != nil && budget.MaxValuations == 1 {
					continue // where a parallel search trips its budget may vary
				}
				for i, req := range everyProperty {
					req.Budget = budget
					want[key{i, b}] = outcomeOf(t, ts.URL, "shared", rebuilt(req))
				}
			}
			var wg sync.WaitGroup
			errs := make(chan string, 4*len(want))
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for n := 0; n < len(want); n++ {
						// Each goroutine walks the table from its own offset.
						i := (g*5 + n) % len(everyProperty)
						b := (g + n) % len(budgets)
						w, ok := want[key{i, b}]
						if !ok {
							continue
						}
						req := everyProperty[i]
						req.Budget = budgets[b]
						got, err := tryOutcome(ts.URL, "shared", req)
						if err != nil {
							errs <- err.Error()
						} else if !reflect.DeepEqual(got, w) {
							errs <- fmt.Sprintf("%s %s budget=%+v:\n got     %v\n rebuild %v", req.Property, req.Model, req.Budget, got, w)
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
