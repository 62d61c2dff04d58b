package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// connections is both the number of client connections and of sender
// goroutines: a fixed, small client, so capacity is the server's and
// not the load generator's.
const connections = 2

// client drives one workload's requests against an instance over
// loopback HTTP and checks every answer against the oracle.
type client struct {
	hc      *http.Client
	tr      *http.Transport
	w       *workload
	in      *inputs
	or      *oracle
	bodies  [][]byte // decide request body per template
	tenants []tenantState
	decide  []string // decide URL per tenant
	put     []string // PUT URL per tenant

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failures  []string // the first few, for the report
}

// tenantState tracks which document versions a decide may see. PUTs to
// one tenant are serialised, so they apply in the order they are
// sent and the registry holds the version of PUT number done, or of
// one still in flight.
type tenantState struct {
	putMu   sync.Mutex
	started atomic.Int64 // PUTs sent after the initial load
	done    atomic.Int64 // of those, acknowledged
}

// decideReply is the part of server.DecideResponse rcload reads.
type decideReply struct {
	Verdict        *bool    `json:"verdict"`
	CertainAnswers []string `json:"certain_answers"`
	Kind           string   `json:"kind"`
	Error          string   `json:"error"`
	QueueWaitMS    float64  `json:"queue_wait_ms"`
}

// sample is one finished request.
type sample struct {
	put       bool
	ok        bool
	latency   time.Duration // open loop: from due; otherwise from send
	late      time.Duration // open loop: how late the generator sent it
	queueWait float64       // ms, as the decide response reports it
	bytes     int           // response body
}

func newClient(w *workload, in *inputs, or *oracle) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
		DisableCompression:  true,
	}
	c := &client{
		hc:      &http.Client{Transport: tr},
		tr:      tr,
		w:       w,
		in:      in,
		or:      or,
		tenants: make([]tenantState, len(w.Tenants)),
		decide:  make([]string, len(w.Tenants)),
		put:     make([]string, len(w.Tenants)),
	}
	for _, t := range w.Templates {
		c.bodies = append(c.bodies, t.body())
	}
	return c
}

// target points the client's operations at the instance serving base.
func (c *client) target(base string) {
	for t, name := range c.in.names {
		c.decide[t] = base + "/v1/problems/" + name + "/decide"
		c.put[t] = base + "/v1/problems/" + name
	}
}

func (c *client) fail(err error) {
	c.failed.Add(1)
	c.failMu.Lock()
	if len(c.failures) < 10 {
		c.failures = append(c.failures, err.Error())
	}
	c.failMu.Unlock()
}

// send makes one request; id ≥ 0 tags it for the handler timer.
func (c *client) send(method, url string, body []byte, id int) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set(requestIDHeader, strconv.Itoa(id))
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	return res.StatusCode, b, err
}

// do sends one op, checks its answer and returns its sample (latency
// from send to the end of the response).
func (c *client) do(o op, id int) sample {
	c.attempted.Add(1)
	s := sample{put: o.Tmpl == putOp}
	start := time.Now()
	var err error
	if s.put {
		err = c.doPut(o.Tenant, id, &s)
	} else {
		err = c.doDecide(o, id, &s)
	}
	s.latency = time.Since(start)
	if err != nil {
		c.fail(err)
	} else {
		s.ok = true
	}
	return s
}

func (c *client) doDecide(o op, id int, s *sample) error {
	st := &c.tenants[o.Tenant]
	lo := st.done.Load()
	status, body, err := c.send(http.MethodPost, c.decide[o.Tenant], c.bodies[o.Tmpl], id)
	hi := st.started.Load()
	tmpl := c.w.Templates[o.Tmpl]
	what := c.in.names[o.Tenant] + " " + tmpl.name()
	if err != nil {
		return fmt.Errorf("decide %s: %w", what, err)
	}
	s.bytes = len(body)
	var r decideReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decide %s: status %d, undecodable body: %w", what, status, err)
	}
	s.queueWait = r.QueueWaitMS
	if status != http.StatusOK {
		return fmt.Errorf("decide %s: status %d kind=%s: %s", what, status, r.Kind, r.Error)
	}
	got := outcome{Verdict: r.Verdict}
	if tmpl.Property == "certain" {
		got.Answers = append([]string(nil), r.CertainAnswers...)
		slices.Sort(got.Answers)
	}
	if !c.or.check(o.Tenant, lo, hi, o.Tmpl, got) {
		return fmt.Errorf("decide %s: wrong answer %s (after PUTs %d..%d)", what, got, lo, hi)
	}
	return nil
}

// doPut replaces the tenant's document with its next version.
func (c *client) doPut(t int32, id int, s *sample) error {
	st := &c.tenants[t]
	st.putMu.Lock()
	defer st.putMu.Unlock()
	n := st.started.Add(1)
	versions := c.in.docs[t]
	status, body, err := c.send(http.MethodPut, c.put[t], versions[n%int64(len(versions))], id)
	if err != nil {
		return fmt.Errorf("put %s: %w", c.in.names[t], err)
	}
	s.bytes = len(body)
	if status != http.StatusOK {
		return fmt.Errorf("put %s: status %d: %s", c.in.names[t], status, bytes.TrimSpace(body))
	}
	st.done.Store(n)
	return nil
}

// load PUTs every tenant's first version, one after another, to the
// fresh instance serving base: its set-up.
func (c *client) load(base string) error {
	for t, name := range c.in.names {
		status, body, err := c.send(http.MethodPut, base+"/v1/problems/"+name, c.in.docs[t][0], -1)
		if err != nil {
			return fmt.Errorf("load %s: %w", name, err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("load %s: status %d: %s", name, status, bytes.TrimSpace(body))
		}
	}
	return nil
}

// closedLoop runs the connections back to back over ops for d, with
// ids ≥ 0 when traced. It returns the samples that finished within d
// and how many ops it sent in all.
func (c *client) closedLoop(ops []op, d time.Duration, traced bool) ([]sample, int64) {
	var next atomic.Int64
	var mu sync.Mutex
	var done []sample
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < connections; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Since(start) < d {
				i := next.Add(1) - 1
				id := -1
				if traced {
					id = int(i % opStreamLen)
				}
				s := c.do(ops[i%opStreamLen], id)
				if time.Since(start) < d {
					mine = append(mine, s)
				}
			}
			mu.Lock()
			done = append(done, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return done, next.Load()
}

// openLoop sends ops[i] at due[i] from now on, whatever is still in
// flight; a request's latency counts from when it was due.
func (c *client) openLoop(ops []op, due []time.Duration) []sample {
	var next atomic.Int64
	out := make([]sample, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < connections; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(due)) {
					return
				}
				at := start.Add(due[i])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				late := time.Since(at)
				s := c.do(ops[i%opStreamLen], -1)
				s.late, s.latency = late, late+s.latency
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}
