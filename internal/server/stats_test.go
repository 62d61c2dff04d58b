package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"relcomplete/internal/obs"
	"relcomplete/internal/relation"
)

// relationLayer reports whether counter name is recorded by the
// relation layer, whose counters go to one process-wide sink
// (relation.SetMetrics) rather than to a decide's metrics view.
func relationLayer(name string) bool {
	return strings.HasPrefix(name, "index_")
}

// serverLayer reports whether counter name is recorded by the server
// around decides rather than by the solver inside one.
func serverLayer(name string) bool {
	return strings.HasPrefix(name, "server_")
}

// Every decide runs on its own metrics view, and the view is folded
// into the server totals: over a fixed sequence of requests, the
// solver counters the responses report add up to exactly how much the
// server's totals grew. Answers that never reach a decider report
// empty stats, a budget failure reports its own budget error, and the
// server-layer counters appear only in the totals.
func TestDecideStatsFoldIntoTotals(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: workers})
			// As rcserved does: the relation layer reports to the server's
			// metrics, process-wide.
			relation.SetMetrics(s.Metrics())
			defer relation.SetMetrics(nil)
			putOrders(t, ts.URL, "orders")
			before := s.Metrics().Snapshot()

			type step struct {
				name   string
				body   string
				status int
			}
			steps := []step{
				{"orders", `{"property": "consistency"}`, http.StatusOK},
				{"orders", `{"property": "extensibility"}`, http.StatusOK},
				{"orders", `{"property": "rcdp", "model": "strong"}`, http.StatusOK},
				{"orders", `{"property": "rcqp", "model": "strong"}`, http.StatusOK},
				{"orders", `{"property": "minp", "model": "strong"}`, http.StatusOK},
				{"orders", `{"property": "certain"}`, http.StatusOK},
				{"orders", `{"property": "rcdp", "model": "strong", "budget": {"max_valuations": 1}}`, http.StatusUnprocessableEntity},
				{"orders", `{nope`, http.StatusBadRequest},
				{"ghost", `{"property": "rcdp"}`, http.StatusNotFound},
			}
			const decides = 7 // the steps that reach a decider
			sum := map[string]int64{}
			var wallCalls int64
			for _, st := range steps {
				var dr DecideResponse
				resp := doJSON(t, http.MethodPost, ts.URL+"/v1/problems/"+st.name+"/decide", []byte(st.body), &dr)
				if resp.StatusCode != st.status {
					t.Fatalf("%s: status %d, want %d (%s)", st.body, resp.StatusCode, st.status, dr.Error)
				}
				for name, v := range dr.Stats.Counters {
					if serverLayer(name) || relationLayer(name) {
						t.Errorf("%s: decide stats carry %s = %d", st.body, name, v)
					}
					sum[name] += v
				}
				for _, h := range dr.Stats.Histograms {
					if h.Name == obs.DeciderWallNs.String() {
						wallCalls += h.Count
					}
				}
				switch st.status {
				case http.StatusBadRequest, http.StatusNotFound:
					raw, _ := json.Marshal(dr.Stats)
					if string(raw) != `{"counters":{}}` {
						t.Errorf("%s: stats %s, want empty", st.body, raw)
					}
				case http.StatusUnprocessableEntity:
					if got := dr.Stats.Counters["budget_errors"]; got != 1 {
						t.Errorf("422 stats: budget_errors = %d, want 1", got)
					}
				}
			}

			after := s.Metrics().Snapshot()
			if len(sum) == 0 {
				t.Fatal("no response reported a solver counter")
			}
			// A snapshot omits zero counters, so every counter that grew
			// or that a response reported is a key of after.
			for name, total := range after.Counters {
				if serverLayer(name) || relationLayer(name) {
					continue
				}
				if grew := total - before.Counters[name]; grew != sum[name] {
					t.Errorf("%s: responses report %d, totals grew by %d", name, sum[name], grew)
				}
			}
			// PUT records no decider call, so the totals hold exactly the
			// calls of the sequence.
			if total := s.Metrics().HistoCount(obs.DeciderWallNs); total != wallCalls {
				t.Errorf("decider_wall_seconds: responses report %d calls, totals hold %d", wallCalls, total)
			}
			if got := after.Counters["server_requests"] - before.Counters["server_requests"]; got != int64(len(steps)) {
				t.Errorf("server_requests grew by %d, want %d", got, len(steps))
			}
			if got := after.Counters["server_decides"] - before.Counters["server_decides"]; got != decides {
				t.Errorf("server_decides grew by %d, want %d", got, decides)
			}
		})
	}
}

// stockDoc is a complete instance whose strong RCDP enumerates every
// valuation: the target item's three quantities are all present, and
// the variable rows' candidates include items outside the catalogue,
// which the CC rejects. So its decides check and prune many models.
const stockDoc = `{
  "schema": {"relations": [
    {"name": "Order", "attrs": [{"name": "item"}, {"name": "qty", "domain": ["1", "2", "3"]}]}]},
  "master": {
    "relations": [{"name": "Catalog", "attrs": [{"name": "item"}]}],
    "rows": {"Catalog": [["widget"], ["gadget"], ["gizmo"]]}},
  "ccs": [{"name": "order_in_catalog", "left": "q(i) := Order(i, q)", "right": "p(i) := Catalog(i)"}],
  "query": {"calc": "Q(q) := Order('widget', q)"},
  "cinstance": {"rows": [
    {"rel": "Order", "terms": ["widget", "1"]},
    {"rel": "Order", "terms": ["widget", "2"]},
    {"rel": "Order", "terms": ["widget", "3"]},
    {"rel": "Order", "terms": ["?w", "?v"]},
    {"rel": "Order", "terms": ["?u", "1"]}]}
}`

// histoSum returns the sum of histogram h in st (0 when unobserved).
func histoSum(st obs.Stats, h obs.Histo) int64 {
	for _, hs := range st.Histograms {
		if hs.Name == h.String() {
			return int64(hs.Sum)
		}
	}
	return 0
}

// Concurrent decides no longer share counters, so each answer's
// per-call histograms are exact: the models its strong RCDP call
// admitted and pruned add up to the models the decide itself checked
// and admitted, even while another tenant's decides run beside it.
func TestConcurrentDecideStatsExact(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxConcurrent: 4, MaxQueue: 256})
	putOrders(t, ts.URL, "orders")
	if resp := doJSON(t, http.MethodPut, ts.URL+"/v1/problems/stock", []byte(stockDoc), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT stock: status %d", resp.StatusCode)
	}
	want := map[string]bool{"orders": false, "stock": true}

	const goroutines, perGoroutine = 4, 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []string
	var pruned int64
	report := func(format string, args ...any) {
		mu.Lock()
		errs = append(errs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < perGoroutine; n++ {
				name := "orders"
				if (g+n)%2 == 1 {
					name = "stock"
				}
				body := strings.NewReader(`{"property": "rcdp", "model": "strong"}`)
				resp, err := http.Post(ts.URL+"/v1/problems/"+name+"/decide", "application/json", body)
				if err != nil {
					report("%s: %v", name, err)
					return
				}
				var dr DecideResponse
				err = json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || dr.Verdict == nil || *dr.Verdict != want[name] {
					report("%s: status %d err %v verdict %v", name, resp.StatusCode, err, dr.Verdict)
					continue
				}
				c := dr.Stats.Counters
				checked, admitted := c["models_checked"], c["models_admitted"]
				if got := histoSum(dr.Stats, obs.ModelsAdmittedPerCall); got != admitted {
					report("%s: models_admitted_per_call sums to %d, models_admitted = %d", name, got, admitted)
				}
				if got := histoSum(dr.Stats, obs.ModelsPrunedPerCall); got != checked-admitted {
					report("%s: models_pruned_per_call sums to %d, models_checked - models_admitted = %d", name, got, checked-admitted)
				}
				mu.Lock()
				pruned += checked - admitted
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for _, e := range errs {
		t.Error(e)
	}
	if pruned == 0 {
		t.Fatal("no decide pruned a model: the pruned sums check nothing")
	}
}
