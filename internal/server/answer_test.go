package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relcomplete/internal/fault"
	"relcomplete/internal/obs"
)

// inconsistentDoc is the orders document with a ground order no
// catalogue row covers, so it has no model: extensibility answers 409.
const inconsistentDoc = `{
  "schema": {"relations": [{"name": "Order", "attrs": [{"name": "item"}]}]},
  "master": {
    "relations": [{"name": "Catalog", "attrs": [{"name": "item"}]}],
    "rows": {"Catalog": [["widget"]]}},
  "ccs": [{"name": "order_in_catalog", "left": "q(i) := Order(i)", "right": "p(i) := Catalog(i)"}],
  "query": {"calc": "Q(i) := Order(i)"},
  "cinstance": {"rows": [{"rel": "Order", "terms": ["sprocket"]}]}
}`

// serveOne sends one request straight to s and returns the recorder.
func serveOne(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// requireReencodes decodes a served decide answer into DecideResponse,
// every field known, and requires encoding/json to write it back byte
// for byte.
func requireReencodes(t *testing.T, what string, body []byte) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var dr DecideResponse
	if err := dec.Decode(&dr); err != nil {
		t.Fatalf("%s: decoding %s: %v", what, body, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(dr); err != nil {
		t.Fatalf("%s: encoding: %v", what, err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("%s: answer differs from encoding/json's\n got: %s\nwant: %s", what, body, want.Bytes())
	}
}

// Every decide answer, for every property and model and every error
// kind, with and without ?trace=1, is exactly what encoding/json
// writes for the DecideResponse it decodes to.
func TestDecideAnswerMatchesEncodingJSON(t *testing.T) {
	plain := New(Config{Workers: 1})
	limited := New(Config{Workers: 1, Tenant: TenantLimits{Rate: 0.001, Burst: 1}})
	slow := New(Config{Workers: 1, FaultPlan: fault.NewPlan(fault.Rule{
		Site: fault.SiteEvalAnswers, Kind: fault.KindDelay, Delay: 5 * time.Millisecond, Every: 1,
	})})
	doc := string(ordersDoc(t))
	for _, put := range []struct {
		s          *Server
		name, body string
	}{{plain, "orders", doc}, {plain, "broken", inconsistentDoc}, {limited, "orders", doc}, {slow, "orders", doc}} {
		if w := serveOne(t, put.s, http.MethodPut, "/v1/problems/"+put.name, put.body); w.Code != http.StatusCreated {
			t.Fatalf("PUT %s: status %d: %s", put.name, w.Code, w.Body)
		}
	}
	// The limited server's one token goes here, so its decides below
	// answer 429.
	if w := serveOne(t, limited, http.MethodPost, "/v1/problems/orders/decide", `{"property": "consistency"}`); w.Code != http.StatusOK {
		t.Fatalf("first limited decide: status %d: %s", w.Code, w.Body)
	}

	cases := []struct {
		s       *Server
		problem string
		body    string
		status  int
		detail  string // a key the answer must carry
	}{
		{plain, "orders", `{"property": "consistency"}`, http.StatusOK, ""},
		{plain, "orders", `{"property": "extensibility"}`, http.StatusOK, ""},
		{plain, "orders", `{"property": "rcdp", "model": "strong"}`, http.StatusOK, `"counterexample":`},
		{plain, "orders", `{"property": "rcdp", "model": "weak"}`, http.StatusOK, ""},
		{plain, "orders", `{"property": "rcdp", "model": "viable"}`, http.StatusOK, ""},
		{plain, "orders", `{"property": "rcqp", "model": "strong"}`, http.StatusOK, ""},
		{plain, "orders", `{"property": "rcqp", "model": "weak"}`, http.StatusOK, ""},
		{plain, "orders", `{"property": "minp", "model": "strong"}`, http.StatusOK, ""},
		{plain, "orders", `{"property": "minp", "model": "weak"}`, http.StatusOK, ""},
		{plain, "orders", `{"property": "certain"}`, http.StatusOK, `"certain_answers":[`},
		{plain, "orders", `{"property": "rcdp", "query": "Q(i) := Order(i) & Order('zzz')"}`, http.StatusOK, ""},
		{plain, "orders", `{nope`, http.StatusBadRequest, ""},
		{plain, "orders", `{"property": "nope"}`, http.StatusBadRequest, ""},
		{plain, "orders", `{"property": "rcdp", "model": "nope"}`, http.StatusBadRequest, ""},
		{plain, "orders", `{"property": "rcdp", "query": "Q(i) := <&>"}`, http.StatusBadRequest, ""},
		{plain, "ghost", `{"property": "rcdp"}`, http.StatusNotFound, `"kind":"not_found"`},
		{slow, "orders", `{"property": "rcdp", "timeout_ms": 1}`, http.StatusRequestTimeout, `"deadline":{`},
		{plain, "broken", `{"property": "extensibility"}`, http.StatusConflict, `"kind":"inconsistent"`},
		{plain, "orders", `{"property": "rcdp", "budget": {"max_valuations": 1}}`, http.StatusUnprocessableEntity, `"budget":{`},
		{limited, "orders", `{"property": "consistency"}`, http.StatusTooManyRequests, `"retry_after_ms":`},
	}
	for _, c := range cases {
		for _, query := range []string{"", "?trace=1"} {
			what := c.problem + query + " " + c.body
			w := serveOne(t, c.s, http.MethodPost, "/v1/problems/"+c.problem+"/decide"+query, c.body)
			if w.Code != c.status {
				t.Fatalf("%s: status %d, want %d: %s", what, w.Code, c.status, w.Body)
			}
			if !strings.Contains(w.Body.String(), c.detail) {
				t.Fatalf("%s: answer lacks %s: %s", what, c.detail, w.Body)
			}
			if query != "" && !strings.Contains(w.Body.String(), `"trace":{`) {
				t.Fatalf("%s: answer lacks its trace: %s", what, w.Body)
			}
			requireReencodes(t, what, w.Body.Bytes())
		}
	}
}

// hostile are strings encoding/json escapes: HTML characters, quotes
// and backslashes, control bytes, invalid UTF-8 and the JavaScript
// line separators.
var hostile = []string{
	"orders", "<script>&amp;</script>", `q"uote\back`, "tab\there\n\r\b\f", "\x00\x1f\x7f",
	"bad\xffutf8\xc3", "line\u2028sep\u2029", "ünïcode ∀x", "",
}

// answerMetrics returns a request view holding counters, phases with
// hostile names and histograms whose sums take the exponent form.
func answerMetrics(i int) *obs.Metrics {
	m := obs.NewMetrics()
	m.Add(obs.ModelsChecked, int64(i+1))
	m.Add(obs.CCViolations, -int64(i))
	m.ObservePhase(hostile[i%len(hostile)], time.Duration(i)*time.Microsecond+1)
	m.ObservePhase("rcdp_strong", 58027*time.Nanosecond)
	m.Observe(obs.PlanExecNs, 850)
	m.Observe(obs.DeciderWallNs, int64(i)*1e9)
	return m
}

// answerSpans returns finished spans with hostile names, statuses and
// multi-key attributes.
func answerSpans(i int) []obs.SpanData {
	start := time.Date(2026, 10, 19, 22, 9, 45, 123456789, time.FixedZone("x", -(3*3600+30*60)))
	var spans []obs.SpanData
	for j := 0; j <= i%4; j++ {
		h := hostile[(i+j)%len(hostile)]
		sp := obs.SpanData{
			TraceID:    "4bf92f3577b34da6a3ce929d0e0e4736",
			SpanID:     "00f067aa0ba902b7",
			Name:       h,
			Start:      start.Add(time.Duration(j) * time.Microsecond),
			DurationMS: float64(j) * 1e-7,
		}
		if j > 0 {
			sp.ParentID, sp.Status = "00f067aa0ba902b8", h
			sp.Attrs = map[string]string{"workers": "1", h: h, "<k>": "v&", "a": hostile[j]}
		}
		spans = append(spans, sp)
	}
	return spans
}

// Generated answers and ring records, with hostile strings, spans,
// multi-key attributes and every detail object, encode exactly as
// json.Marshal encodes them.
func TestGeneratedAnswersMatchEncodingJSON(t *testing.T) {
	yes, no := true, false
	for i := 0; i < 3*len(hostile); i++ {
		h := hostile[i%len(hostile)]
		resp := DecideResponse{
			Problem: h, Property: hostile[(i+1)%len(hostile)], Model: h, Counterexample: h,
			Error: h, Kind: h, TraceID: h, RetryAfterMS: int64(i - 3),
			ElapsedMS: float64(i) * 1e-7, QueueWaitMS: float64(i) * 1e20,
		}
		switch i % 3 {
		case 0:
			resp.Verdict = &yes
			resp.CertainAnswers = []string{}
		case 1:
			resp.Verdict = &no
			resp.CertainAnswers = []string{h, "(widget)"}
			resp.Budget = &BudgetInfo{Op: h, Cap: "MaxValuations", Limit: 1, Consumed: 2}
			resp.Trace = &TraceInfo{TraceID: h, Dropped: int64(i)}
		case 2:
			resp.Deadline = &DeadlineInfo{Op: h, Elapsed: "1.5ms", Partial: h, ModelsChecked: 3}
			resp.Trace = &TraceInfo{TraceID: h, Spans: answerSpans(i)}
		}
		var stats *obs.Metrics
		if i%4 != 0 {
			stats = answerMetrics(i)
		}
		resp.Stats = stats.Snapshot()
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.appendJSON(nil, stats); !bytes.Equal(got, want) {
			t.Fatalf("answer %d:\n got: %s\nwant: %s", i, got, want)
		}

		rec := RequestRecord{
			Time:    time.Date(2026, 1, 2, 3, 4, 5, i*1000, time.UTC),
			TraceID: h, Problem: h, Property: h, Decider: h, Status: 200 + i, Kind: h,
			Verdict: resp.Verdict, QueueWaitMS: float64(i) * 1e-9, WallMS: float64(i) / 3,
			Spans: answerSpans(i + 1), SpansDropped: int64(i % 2),
		}
		if i%5 == 0 {
			rec.Spans = []obs.SpanData{}
		}
		if want, _ := json.Marshal(rec); !bytes.Equal(rec.appendJSON(nil), want) {
			t.Fatalf("record %d:\n got: %s\nwant: %s", i, rec.appendJSON(nil), want)
		}
	}
}

// The ring keeps each record as exactly the bytes json.Marshal writes,
// and /debug/requests serves them back unchanged.
func TestRequestRingMatchesEncodingJSON(t *testing.T) {
	ring := NewRequestRing(4)
	var want [][]byte
	for i := 0; i < 4; i++ {
		rec := RequestRecord{
			Time: time.Now(), TraceID: hostile[i], Problem: hostile[i+1], Status: 200,
			WallMS: 0.066119, Spans: answerSpans(i),
		}
		b, _ := json.Marshal(rec)
		want = append(want, b)
		ring.Add(rec)
	}
	for i, b := range ring.recs {
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("record %d:\n got: %s\nwant: %s", i, b, want[i])
		}
		if len(b) != cap(b) {
			t.Fatalf("record %d keeps %d bytes of capacity for %d", i, cap(b), len(b))
		}
	}
}

// FuzzAnswerJSON holds the string and float helpers, and the answer
// and record writers built on them, to encoding/json on arbitrary
// strings and float bit patterns.
func FuzzAnswerJSON(f *testing.F) {
	f.Add("orders", math.Float64bits(0.075))
	f.Add("<a&b>", math.Float64bits(8.5e-7))
	f.Add("bad\xff\u2028", math.Float64bits(1e21))
	f.Add("\x00\"\\", math.Float64bits(-0.0))
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		x := math.Float64frombits(bits)
		if want, _ := json.Marshal(s); !bytes.Equal(obs.AppendJSONString(nil, s), want) {
			t.Fatalf("string %q: got %s, want %s", s, obs.AppendJSONString(nil, s), want)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return // encoding/json refuses them
		}
		if want, _ := json.Marshal(x); !bytes.Equal(obs.AppendJSONFloat(nil, x), want) {
			t.Fatalf("float %v: got %s, want %s", x, obs.AppendJSONFloat(nil, x), want)
		}
		resp := DecideResponse{
			Problem: s, Property: s, Counterexample: s, CertainAnswers: []string{s},
			ElapsedMS: x, QueueWaitMS: -x, Stats: obs.NewMetrics().Snapshot(), TraceID: s,
		}
		if want, _ := json.Marshal(resp); !bytes.Equal(resp.appendJSON(nil, obs.NewMetrics()), want) {
			t.Fatalf("answer:\n got: %s\nwant: %s", resp.appendJSON(nil, obs.NewMetrics()), want)
		}
		rec := RequestRecord{Problem: s, Kind: s, WallMS: x, Spans: []obs.SpanData{{
			Name: s, DurationMS: x, Attrs: map[string]string{s: s, "k": s},
		}}}
		if want, _ := json.Marshal(rec); !bytes.Equal(rec.appendJSON(nil), want) {
			t.Fatalf("record:\n got: %s\nwant: %s", rec.appendJSON(nil), want)
		}
	})
}
