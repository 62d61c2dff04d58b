package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"relcomplete/internal/fault"
	"relcomplete/internal/obs"
)

// ordersDoc loads the repo's smoke instance: RCDP(strong) = false with
// a counterexample, consistency = true, certain answers = [].
func ordersDoc(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile("../../examples/orders_rcdp.json")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// newTestServer stands a service up behind a real socket.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body []byte, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding body: %v", method, url, err)
		}
	}
	return resp
}

func putOrders(t *testing.T, base, name string) PutResponse {
	t.Helper()
	var pr PutResponse
	resp := doJSON(t, http.MethodPut, base+"/v1/problems/"+name, ordersDoc(t), &pr)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	return pr
}

func decide(t *testing.T, base, name string, req DecideRequest) (*http.Response, DecideResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var dr DecideResponse
	resp := doJSON(t, http.MethodPost, base+"/v1/problems/"+name+"/decide", body, &dr)
	return resp, dr
}

// The registry CRUD round trip over the wire.
func TestProblemCRUD(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	pr := putOrders(t, ts.URL, "orders")
	if pr.Name != "orders" || pr.Bytes == 0 || pr.Replaced {
		t.Fatalf("put response: %+v", pr)
	}

	// Replacing answers 200, not 201.
	var pr2 PutResponse
	resp := doJSON(t, http.MethodPut, ts.URL+"/v1/problems/orders", ordersDoc(t), &pr2)
	if resp.StatusCode != http.StatusOK || !pr2.Replaced {
		t.Fatalf("replace: status=%d %+v", resp.StatusCode, pr2)
	}

	var info Info
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/problems/orders", nil, &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	if info.Name != "orders" || info.Relations != 1 || info.CRows != 1 {
		t.Fatalf("info: %+v", info)
	}

	var lst ListResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/problems", nil, &lst)
	if len(lst.Problems) != 1 || lst.ResidentBytes != pr2.Bytes {
		t.Fatalf("list: %+v", lst)
	}

	if resp := doJSON(t, http.MethodDelete, ts.URL+"/v1/problems/orders", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	var er ErrorResponse
	if resp := doJSON(t, http.MethodDelete, ts.URL+"/v1/problems/orders", nil, &er); resp.StatusCode != http.StatusNotFound || er.Kind != KindNotFound {
		t.Fatalf("second DELETE: status=%d %+v", resp.StatusCode, er)
	}
}

func TestPutRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var er ErrorResponse
	resp := doJSON(t, http.MethodPut, ts.URL+"/v1/problems/ok%20not", ordersDoc(t), &er)
	if resp.StatusCode != http.StatusBadRequest || er.Kind != KindBadRequest {
		t.Fatalf("bad name: status=%d %+v", resp.StatusCode, er)
	}
	resp = doJSON(t, http.MethodPut, ts.URL+"/v1/problems/bad", []byte(`{"nope": 1}`), &er)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status=%d", resp.StatusCode)
	}
	if !strings.Contains(er.Error, "probjson") {
		t.Fatalf("error should name the decoder: %+v", er)
	}

	// A document followed by anything but white space is rejected whole:
	// nothing is stored or charged.
	for _, tail := range []string{`{"nope": 1}`, ` trailing garbage`, `}`} {
		body := append(ordersDoc(t), tail...)
		var er ErrorResponse
		resp := doJSON(t, http.MethodPut, ts.URL+"/v1/problems/tail", body, &er)
		if resp.StatusCode != http.StatusBadRequest || er.Kind != KindBadRequest {
			t.Fatalf("document + %q: status=%d %+v", tail, resp.StatusCode, er)
		}
	}
	var lst ListResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/problems", nil, &lst)
	if len(lst.Problems) != 0 || lst.ResidentBytes != 0 {
		t.Fatalf("rejected documents were stored: %+v", lst)
	}
}

// The decide round trip: decode → decide → encode, verdicts matching
// the engine's own (see the probe oracle values asserted below), with
// the stats object carried along like rcheck -json. The stats are the
// decide's own: its phases are the decider it ran and the deciders
// that one calls, and the deciders that check candidate models report
// at least one.
func TestDecideRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	putOrders(t, ts.URL, "orders")

	cases := []struct {
		req          DecideRequest
		verdict      bool
		phases       []string // sorted
		checksModels bool
	}{
		{DecideRequest{Property: "rcdp", Model: "strong"}, false, []string{"rcdp_strong"}, true},
		{DecideRequest{Property: "rcdp", Model: "weak"}, false, []string{"certain_answers", "rcdp_weak"}, true},
		{DecideRequest{Property: "consistency"}, true, []string{"consistency"}, true},
		{DecideRequest{Property: "minp", Model: "strong"}, false, []string{"minp_strong", "rcdp_strong"}, true},
		{DecideRequest{Property: "rcqp", Model: "strong"}, true, []string{"rcqp"}, false},
	}
	for _, c := range cases {
		resp, dr := decide(t, ts.URL, "orders", c.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status=%d error=%s", c.req, resp.StatusCode, dr.Error)
		}
		if dr.Verdict == nil || *dr.Verdict != c.verdict {
			t.Fatalf("%+v: verdict=%v want %v", c.req, dr.Verdict, c.verdict)
		}
		if dr.Problem != "orders" || dr.Property != c.req.Property {
			t.Fatalf("%+v: echo fields wrong: %+v", c.req, dr)
		}
		var phases []string
		for _, ph := range dr.Stats.Phases {
			if ph.Count != 1 {
				t.Errorf("%+v: phase %s ran %d times, want once", c.req, ph.Name, ph.Count)
			}
			phases = append(phases, ph.Name)
		}
		if !reflect.DeepEqual(phases, c.phases) {
			t.Errorf("%+v: phases %v, want %v", c.req, phases, c.phases)
		}
		if c.checksModels && dr.Stats.Counters["models_checked"] < 1 {
			t.Errorf("%+v: stats missing solver counters: %v", c.req, dr.Stats.Counters)
		}
	}

	// The failing RCDP must carry its counterexample.
	_, dr := decide(t, ts.URL, "orders", DecideRequest{Property: "rcdp", Model: "strong"})
	if dr.Counterexample == "" {
		t.Fatal("rcdp strong = false must explain itself")
	}

	// Certain answers: empty list, not null.
	resp, dr := decide(t, ts.URL, "orders", DecideRequest{Property: "certain"})
	if resp.StatusCode != http.StatusOK || dr.CertainAnswers == nil || len(dr.CertainAnswers) != 0 {
		t.Fatalf("certain: status=%d answers=%#v", resp.StatusCode, dr.CertainAnswers)
	}
}

// 400s: malformed body, unknown property, unknown model, unknown
// fields, a bad query override, data after the request object; 404:
// missing problem.
func TestDecideBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putOrders(t, ts.URL, "orders")

	var dr DecideResponse
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/problems/orders/decide", []byte(`{nope`), &dr)
	if resp.StatusCode != http.StatusBadRequest || dr.Kind != KindBadRequest {
		t.Fatalf("malformed: status=%d %+v", resp.StatusCode, dr)
	}

	for _, body := range []string{
		`{"property": "frobnicate"}`,
		`{"property": "rcdp", "model": "quantum"}`,
		`{"property": "rcdp", "unknown_field": 1}`,
		`{"property": "rcdp", "query": "Q(i) := NoSuchRel(i)"}`,
		`{"property": "rcdp"} {"property": "certain"}`,
		`{"property": "rcdp"}}`,
	} {
		var dr DecideResponse
		resp := doJSON(t, http.MethodPost, ts.URL+"/v1/problems/orders/decide", []byte(body), &dr)
		if resp.StatusCode != http.StatusBadRequest || dr.Kind != KindBadRequest || dr.Error == "" {
			t.Fatalf("%s: status=%d kind=%q", body, resp.StatusCode, dr.Kind)
		}
	}

	resp, dr2 := decide(t, ts.URL, "ghost", DecideRequest{Property: "rcdp"})
	if resp.StatusCode != http.StatusNotFound || dr2.Kind != KindNotFound {
		t.Fatalf("missing problem: status=%d %+v", resp.StatusCode, dr2)
	}
}

// An exhausted enumeration budget answers 422 with the BudgetError
// detail, verdict null — the same contract as rcheck exit code 2.
func TestDecideBudget422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putOrders(t, ts.URL, "orders")
	resp, dr := decide(t, ts.URL, "orders", DecideRequest{
		Property: "rcdp", Model: "strong",
		Budget: &BudgetRequest{MaxValuations: 1},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d (error=%s)", resp.StatusCode, dr.Error)
	}
	if dr.Kind != KindBudget || dr.Verdict != nil {
		t.Fatalf("kind=%q verdict=%v", dr.Kind, dr.Verdict)
	}
	if dr.Budget == nil || dr.Budget.Cap != "MaxValuations" || dr.Budget.Limit != 1 {
		t.Fatalf("budget detail: %+v", dr.Budget)
	}
	// The budget override must not have touched the resident problem.
	resp, dr = decide(t, ts.URL, "orders", DecideRequest{Property: "rcdp", Model: "strong"})
	if resp.StatusCode != http.StatusOK || dr.Verdict == nil || *dr.Verdict {
		t.Fatalf("resident problem polluted: status=%d %+v", resp.StatusCode, dr)
	}
}

// An expired per-request deadline answers 408 with the DeadlineError
// detail. An injected 5ms delay on every query evaluation makes the
// 1ms deadline deterministic without a heavyweight instance.
func TestDecideDeadline408(t *testing.T) {
	plan := fault.NewPlan(fault.Rule{
		Site: fault.SiteEvalAnswers, Kind: fault.KindDelay, Delay: 5 * time.Millisecond, Every: 1,
	})
	_, ts := newTestServer(t, Config{FaultPlan: plan})
	putOrders(t, ts.URL, "orders")
	resp, dr := decide(t, ts.URL, "orders", DecideRequest{
		Property: "rcdp", Model: "strong", TimeoutMS: 1,
	})
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d (error=%s)", resp.StatusCode, dr.Error)
	}
	if dr.Kind != KindDeadline || dr.Verdict != nil {
		t.Fatalf("kind=%q verdict=%v", dr.Kind, dr.Verdict)
	}
	if dr.Deadline == nil || dr.Deadline.Op == "" || dr.Deadline.Elapsed == "" {
		t.Fatalf("deadline detail: %+v", dr.Deadline)
	}
}

// A full admission queue answers 429 with Retry-After and the typed
// overload body. Concurrency 1 + queue 0: the first decide (slowed by
// an injected delay) holds the only slot, everything else bounces.
func TestDecideOverload429(t *testing.T) {
	plan := fault.NewPlan(fault.Rule{
		Site: fault.SiteEvalAnswers, Kind: fault.KindDelay, Delay: 30 * time.Millisecond, Every: 1,
	})
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1, FaultPlan: plan})
	putOrders(t, ts.URL, "orders")

	first := make(chan DecideResponse, 1)
	go func() {
		_, dr := decide(t, ts.URL, "orders", DecideRequest{Property: "rcdp", Model: "strong"})
		first <- dr
	}()
	// Wait until the slow decide holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.Admission().InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first decide never claimed a slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, dr := decide(t, ts.URL, "orders", DecideRequest{Property: "consistency"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (error=%s)", resp.StatusCode, dr.Error)
	}
	if dr.Kind != KindOverload || dr.RetryAfterMS == 0 {
		t.Fatalf("overload body: %+v", dr)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if got := s.Metrics().Get(obs.ServerOverloads); got == 0 {
		t.Fatal("overload counter not incremented")
	}

	if dr := <-first; dr.Verdict == nil || *dr.Verdict {
		t.Fatalf("slow decide corrupted by the rejected one: %+v", dr)
	}
}

// A query override decides on a fresh build and leaves the resident
// problem untouched. Q(i) := Order('zzz') can never produce answers —
// the CC pins Order inside the catalog — so it is strongly complete.
func TestDecideQueryOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putOrders(t, ts.URL, "orders")
	resp, dr := decide(t, ts.URL, "orders", DecideRequest{
		Property: "rcdp", Model: "strong", Query: "Q(i) := Order(i) & Order('zzz')",
	})
	if resp.StatusCode != http.StatusOK || dr.Verdict == nil {
		t.Fatalf("override: status=%d error=%s", resp.StatusCode, dr.Error)
	}
	if !*dr.Verdict {
		t.Fatalf("unsatisfiable-query RCDP should hold, got %v", *dr.Verdict)
	}
	resp, dr = decide(t, ts.URL, "orders", DecideRequest{Property: "rcdp", Model: "strong"})
	if resp.StatusCode != http.StatusOK || dr.Verdict == nil || *dr.Verdict {
		t.Fatalf("resident problem polluted: status=%d %+v", resp.StatusCode, dr)
	}
}

// Draining: /healthz flips to 503 so load balancers route away, while
// the API keeps answering in-flight work.
func TestHealthzDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var body map[string]any
	if resp := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	s.StartDrain()
	s.StartDrain() // idempotent
	var er ErrorResponse
	if resp := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &er); resp.StatusCode != http.StatusServiceUnavailable || er.Kind != KindDraining {
		t.Fatalf("draining healthz: status=%d %+v", resp.StatusCode, er)
	}
}

// The error DTOs must round-trip through JSON: what the handler
// encodes, a client decodes back field for field.
func TestErrorBodyRoundTrip(t *testing.T) {
	in := DecideResponse{
		Problem: "p", Property: "rcdp", Model: "strong",
		Error: "boom", Kind: KindDeadline,
		Deadline: &DeadlineInfo{Op: "rcdp_strong", Elapsed: "1ms", ModelsChecked: 7},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out DecideResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Deadline == nil || out.Deadline.ModelsChecked != 7 {
		t.Fatalf("round trip lost fields: %+v", out)
	}
	if out.Verdict != nil {
		t.Fatal("null verdict must stay null")
	}
	for _, req := range []DecideRequest{
		{Property: "rcdp", Model: "weak", TimeoutMS: 250},
		{Property: "minp", Budget: &BudgetRequest{MaxValuations: 9}},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var back DecideRequest
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		raw2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("request round trip: %s != %s", raw2, raw)
		}
	}
}

// A timeout_ms past the server's maximum is capped to it, however
// large: one whose nanoseconds overflow int64 must not wrap into an
// already expired deadline.
func TestDecideTimeoutCapped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putOrders(t, ts.URL, "orders")
	for _, ms := range []int64{60_000, 1 << 53, 1<<63 - 1} {
		resp, dr := decide(t, ts.URL, "orders", DecideRequest{Property: "consistency", TimeoutMS: ms})
		if resp.StatusCode != http.StatusOK || dr.Verdict == nil || !*dr.Verdict {
			t.Errorf("timeout_ms %d: status=%d kind=%q error=%s", ms, resp.StatusCode, dr.Kind, dr.Error)
		}
	}
}
