package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"relcomplete/internal/httpx"
	"relcomplete/internal/obs"
	"relcomplete/internal/promcheck"
)

// End-to-end load test: the full rcserved stack — httpx listener,
// debug mux, service handlers, admission, registry, engine — under
// 8 concurrent clients × 200 decide requests each. Asserts zero wrong
// verdicts, zero goroutine leaks, a sane p99 decider latency read from
// the obs histogram, and a grammatically valid /metrics scrape, then
// drains cleanly.
func TestLoadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	base := runtime.NumGoroutine()

	metrics := obs.NewMetrics()
	svc := New(Config{
		Workers:       2,
		MaxConcurrent: 4,
		MaxQueue:      4096, // deep enough that admission never rejects this run
		Metrics:       metrics,
	})
	mux := http.NewServeMux()
	mux.Handle("/", svc)
	httpx.RegisterDebug(mux, metrics)
	srv, err := httpx.Serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	baseURL := "http://" + srv.Addr().String()

	client := &http.Client{}
	defer client.CloseIdleConnections()

	raw, err := os.ReadFile("../../examples/orders_rcdp.json")
	if err != nil {
		t.Fatal(err)
	}
	putReq, _ := http.NewRequest(http.MethodPut, baseURL+"/v1/problems/orders", bytes.NewReader(raw))
	putResp, err := client.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, putResp.Body)
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", putResp.StatusCode)
	}

	// Pre-burst goroutine level, read the way an operator would: from
	// the relcomplete_go_goroutines gauge on /metrics.
	gaugeBase, ok := scrapeGauge(t, client, baseURL, obs.MetricPrefix+"go_goroutines")
	if !ok {
		t.Fatal("/metrics exposes no goroutine gauge")
	}

	// The request mix and its fault-free oracle (verdict pointer nil
	// means the property answers via certain_answers instead).
	type step struct {
		req     DecideRequest
		verdict *bool
	}
	vf, vt := false, true
	mix := []step{
		{DecideRequest{Property: "rcdp", Model: "strong"}, &vf},
		{DecideRequest{Property: "rcdp", Model: "weak"}, &vf},
		{DecideRequest{Property: "consistency"}, &vt},
		{DecideRequest{Property: "certain"}, nil},
	}

	const clients = 8
	const perClient = 200
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				s := mix[(c+i)%len(mix)]
				body, _ := json.Marshal(s.req)
				resp, err := client.Post(
					baseURL+"/v1/problems/orders/decide", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- fmt.Errorf("client %d req %d: %w", c, i, err)
					return
				}
				var dr DecideResponse
				decErr := json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if decErr != nil {
					errCh <- fmt.Errorf("client %d req %d: decode: %w", c, i, decErr)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("client %d req %d (%s): status %d kind=%s error=%s",
						c, i, s.req.Property, resp.StatusCode, dr.Kind, dr.Error)
					return
				}
				if s.verdict != nil {
					if dr.Verdict == nil || *dr.Verdict != *s.verdict {
						errCh <- fmt.Errorf("client %d req %d (%s/%s): WRONG VERDICT %v, want %v",
							c, i, s.req.Property, s.req.Model, dr.Verdict, *s.verdict)
						return
					}
				} else if dr.CertainAnswers == nil || len(dr.CertainAnswers) != 0 {
					errCh <- fmt.Errorf("client %d req %d: wrong certain answers %#v",
						c, i, dr.CertainAnswers)
					return
				}
			}
			errCh <- nil
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every decide ran exactly one decider entry point; p99 comes from
	// the obs histogram, the same number /metrics exposes. The bound is
	// deliberately loose (1s) — the orders instance decides in well
	// under a millisecond; the assertion catches pathologies (lock
	// convoys, queue collapse), not micro-regressions.
	snap := metrics.Snapshot()
	var wall *obs.HistogramStat
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "decider_wall_seconds" {
			wall = &snap.Histograms[i]
		}
	}
	if wall == nil {
		t.Fatal("decider_wall_seconds histogram missing from snapshot")
	}
	if wall.Count < clients*perClient {
		t.Fatalf("decider calls = %d, want >= %d", wall.Count, clients*perClient)
	}
	p99, ok := wall.Quantile(0.99)
	if !ok {
		t.Fatal("p99 unavailable")
	}
	if p99 > 1.0 {
		t.Fatalf("p99 decider latency = %v s, want <= 1s", p99)
	}
	t.Logf("load: %d decides, p99 <= %gs, queued-peak=%d",
		wall.Count, p99, svc.Admission().Queued())

	// The live /metrics scrape must stay within the exposition grammar
	// and carry the server counters this run incremented.
	mresp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err := promcheck.ValidatePrometheusText(mbody); err != nil {
		t.Fatalf("/metrics under load: %v\n%s", err, mbody)
	}
	if !bytes.Contains(mbody, []byte(obs.MetricPrefix+"server_decides_total")) {
		t.Fatal("/metrics missing server_decides_total")
	}
	if got := metrics.Get(obs.ServerDecides); got != clients*perClient {
		t.Fatalf("server_decides = %d, want %d", got, clients*perClient)
	}
	if got := metrics.Get(obs.ServerOverloads); got != 0 {
		t.Fatalf("load run must not shed: overloads = %d", got)
	}

	// Leak-freedom from the outside: once the burst drains and the
	// client keep-alives are gone, the goroutine gauge on /metrics must
	// settle back to its pre-burst level plus scheduler slack (the
	// scrape's own connection and a GC worker or two).
	client.CloseIdleConnections()
	settleDeadline := time.Now().Add(3 * time.Second)
	for {
		g, ok := scrapeGauge(t, client, baseURL, obs.MetricPrefix+"go_goroutines")
		if ok && g <= gaugeBase+8 {
			break
		}
		if time.Now().After(settleDeadline) {
			t.Fatalf("goroutine gauge stuck at %v after burst, baseline %v", g, gaugeBase)
		}
		time.Sleep(10 * time.Millisecond)
		client.CloseIdleConnections() // each scrape opens a fresh conn
	}

	// Clean drain — every server conn is genuinely idle now — then no
	// goroutine may outlive the server (in-process backstop; /metrics is
	// gone once the listener closes).
	if err := srv.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	assertServerNoGoroutineLeak(t, base)
}

// scrapeGauge fetches /metrics and returns the value of the named
// unlabelled sample.
func scrapeGauge(t *testing.T, client *http.Client, baseURL, name string) (float64, bool) {
	t.Helper()
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		val, found := strings.CutPrefix(line, name+" ")
		if !found {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			t.Fatalf("gauge %s has unparsable value %q", name, val)
		}
		return f, true
	}
	return 0, false
}

// Queue-wait visibility: a load spike beyond the concurrency cap must
// show up in queue_wait_seconds, the operator's signal to raise
// MaxConcurrent before raising MaxQueue.
func TestLoadQueueWaitObserved(t *testing.T) {
	metrics := obs.NewMetrics()
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 64, Metrics: metrics})
	putOrders(t, ts.URL, "orders")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			decide(t, ts.URL, "orders", DecideRequest{Property: "consistency"})
		}()
	}
	wg.Wait()
	if metrics.HistoCount(obs.QueueWaitNs) < 8 {
		t.Fatalf("queue wait observations = %d, want >= 8", metrics.HistoCount(obs.QueueWaitNs))
	}
}
