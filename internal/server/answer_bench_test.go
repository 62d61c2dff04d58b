package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// BenchmarkDecideAnswer serves one decide per op through
// Server.ServeHTTP on examples/orders_rcdp.json, for each decider of
// the served benchmark's hot_small mix: decode, admission, the decider
// on the resident problem, the stats snapshot and the encoded answer.
// answer_bytes is the size of one answer body. The problem has decided
// once before timing, so its plans and domains are warm.
func BenchmarkDecideAnswer(b *testing.B) {
	raw, err := os.ReadFile("../../examples/orders_rcdp.json")
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Workers: 1})
	put := httptest.NewRecorder()
	s.ServeHTTP(put, httptest.NewRequest(http.MethodPut, "/v1/problems/orders", bytes.NewReader(raw)))
	if put.Code != http.StatusCreated {
		b.Fatalf("PUT: status %d: %s", put.Code, put.Body)
	}
	for _, c := range []struct{ name, body string }{
		{"consistency", `{"property": "consistency"}`},
		{"rcdp_strong", `{"property": "rcdp", "model": "strong"}`},
		{"rcdp_weak", `{"property": "rcdp", "model": "weak"}`},
		{"certain", `{"property": "certain"}`},
		{"minp_strong", `{"property": "minp", "model": "strong"}`},
		{"rcqp_strong", `{"property": "rcqp", "model": "strong"}`},
	} {
		body := []byte(c.body)
		serve := func(b *testing.B) int {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/problems/orders/decide", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", c.name, w.Code, w.Body)
			}
			return w.Body.Len()
		}
		serve(b)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			answer := 0
			for i := 0; i < b.N; i++ {
				answer = serve(b)
			}
			b.ReportMetric(float64(answer), "answer_bytes")
		})
	}
}
