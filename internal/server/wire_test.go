package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Every JSON answer is one line of compact JSON and a newline: decides
// of each property and their typed failures, PUT, GET, the list, the
// probes and the debug endpoints. The decide bodies end in a newline,
// which is white space after the request object, not data.
func TestAnswersAreOneCompactLine(t *testing.T) {
	s := New(Config{Workers: 1})
	doc := string(ordersDoc(t))
	decide := "/v1/problems/orders/decide"
	for _, c := range []struct {
		method, path, body string
		status             int
	}{
		{http.MethodPut, "/v1/problems/orders", doc, http.StatusCreated},
		{http.MethodPut, "/v1/problems/orders", doc, http.StatusOK},
		{http.MethodPut, "/v1/problems/bad", `{"nope": 1}`, http.StatusBadRequest},
		{http.MethodGet, "/v1/problems/orders", "", http.StatusOK},
		{http.MethodGet, "/v1/problems", "", http.StatusOK},
		{http.MethodPost, decide, `{"property": "consistency"}` + "\n", http.StatusOK},
		{http.MethodPost, decide, `{"property": "extensibility"}` + "\n", http.StatusOK},
		{http.MethodPost, decide, `{"property": "rcdp", "model": "strong"}` + "\n", http.StatusOK},
		{http.MethodPost, decide, `{"property": "rcqp", "model": "strong"}` + "\n", http.StatusOK},
		{http.MethodPost, decide, `{"property": "minp", "model": "strong"}` + "\n", http.StatusOK},
		{http.MethodPost, decide, `{"property": "certain"}` + "\n", http.StatusOK},
		{http.MethodPost, decide, `{nope`, http.StatusBadRequest},
		{http.MethodPost, "/v1/problems/ghost/decide", `{"property": "rcdp"}`, http.StatusNotFound},
		{http.MethodPost, decide, `{"property": "rcdp", "budget": {"max_valuations": 1}}`, http.StatusUnprocessableEntity},
		{http.MethodGet, "/healthz", "", http.StatusOK},
		{http.MethodGet, "/readyz", "", http.StatusOK},
		{http.MethodGet, "/debug/requests", "", http.StatusOK},
		{http.MethodGet, "/debug/plans", "", http.StatusOK},
	} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		what := c.method + " " + c.path + " " + strings.TrimSpace(c.body)
		if len(what) > 80 {
			what = what[:80]
		}
		if w.Code != c.status {
			t.Fatalf("%s: status %d, want %d: %s", what, w.Code, c.status, w.Body)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, w.Body.Bytes()); err != nil {
			t.Fatalf("%s: answer is not JSON: %v", what, err)
		}
		compact.WriteByte('\n')
		if !bytes.Equal(compact.Bytes(), w.Body.Bytes()) {
			t.Errorf("%s: answer is not one compact line:\n%s", what, w.Body)
		}
	}
}
