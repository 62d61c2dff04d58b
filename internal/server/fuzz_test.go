package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"relcomplete/internal/probjson"
)

// wireKinds are the error kinds of dto.go: every non-200 decide answer
// names one of them.
var wireKinds = map[string]bool{
	KindBadRequest: true, KindNotFound: true, KindTooLarge: true, KindOverload: true,
	KindRateLimited: true, KindBreakerOpen: true, KindDeadline: true, KindBudget: true,
	KindUndecidable: true, KindInconsistent: true, KindInjected: true, KindPanic: true,
	KindDraining: true, KindNotReady: true, KindStorage: true, KindInternal: true,
}

// FuzzDecideBody sends arbitrary bytes as the body of a decide on
// examples/orders_rcdp.json, through Server.ServeHTTP. No panic may
// escape the handler, and none may be contained into a 500: no answer
// has kind panic or internal. Every answer is one line of JSON that
// decodes strictly into DecideResponse; a 200 carries a verdict or a
// certain-answer list, and any other status names a kind of dto.go's
// list. The server's default and maximum timeouts are 100 ms, so a
// heavy query override ends in a deadline answer instead of stalling
// the fuzzer. Seeds: the decide bodies of the server tests and of
// README's examples.
func FuzzDecideBody(f *testing.F) {
	for _, req := range everyProperty {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, q := range overrideQueries[1:] {
		raw, err := json.Marshal(DecideRequest{Property: "rcdp", Model: "strong", Query: q})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, body := range []string{
		`{"property": "rcdp", "model": "strong", "budget": {"max_valuations": 1}}`,
		`{"property": "minp", "budget": {"max_valuations": 9}}`,
		`{"property": "rcdp", "model": "weak", "timeout_ms": 250}`,
		`{"property": "rcdp", "timeout_ms": 500}`,
		`{"property": "rcdp", "budget": {"max_valuations": 1000}}`,
		`{"property": "rcdp", "query": "Q(i) := Order(i)"}`,
		`{"property": "rcdp", "query": "Q(i) := NoSuchRel(i)"}`,
		`{"property": "frobnicate"}`,
		`{"property": "rcdp", "model": "quantum"}`,
		`{"property": "rcdp", "unknown_field": 1}`,
		`{"property": "rcdp"} {"property": "certain"}`,
		`{"property": "rcdp"}}`,
		`{nope`,
	} {
		f.Add([]byte(body))
	}

	s := New(Config{Workers: 1, DefaultTimeout: 100 * time.Millisecond, MaxTimeout: 100 * time.Millisecond})
	put := httptest.NewRecorder()
	s.ServeHTTP(put, httptest.NewRequest(http.MethodPut, "/v1/problems/orders", bytes.NewReader(ordersDoc(f))))
	if put.Code != http.StatusCreated {
		f.Fatalf("PUT: status %d: %s", put.Code, put.Body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/problems/orders/decide", bytes.NewReader(body)))
		answer := w.Body.Bytes()
		if !bytes.HasSuffix(answer, []byte("\n")) || bytes.Count(answer, []byte("\n")) != 1 {
			t.Fatalf("status %d: answer is not one line: %q", w.Code, answer)
		}
		var dr DecideResponse
		if err := probjson.DecodeStrict(bytes.NewReader(answer), &dr); err != nil {
			t.Fatalf("status %d: answer does not decode as a DecideResponse: %v: %s", w.Code, err, answer)
		}
		switch {
		case w.Code == http.StatusOK:
			if dr.Verdict == nil && dr.CertainAnswers == nil {
				t.Fatalf("200 without a verdict or certain answers: %s", answer)
			}
		case dr.Kind == KindPanic || dr.Kind == KindInternal:
			t.Fatalf("status %d: kind %s: %s", w.Code, dr.Kind, dr.Error)
		case !wireKinds[dr.Kind]:
			t.Fatalf("status %d: kind %q is not one of dto.go's: %s", w.Code, dr.Kind, answer)
		}
	})
}
