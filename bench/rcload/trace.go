package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"relcomplete/internal/core"
	"relcomplete/internal/durable"
	"relcomplete/internal/obs"
	"relcomplete/internal/probjson"
	"relcomplete/internal/server"
)

// Limits of the sequential part of a traced run.
const (
	replayDecides = 2000
	replayPuts    = 200
)

// span is one timed interval of a traced run, written as a JSONL line.
// Spans of one request share Trace; Parent 0 marks a root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the start of the run's trace
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(trace, parent int, name string, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: s, End: s + d.Nanoseconds()})
	return id
}

// end sets the end of span id, a root opened before its children.
func (t *tracer) end(id int, at time.Time) { t.spans[id-1].End = at.Sub(t.t0).Nanoseconds() }

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stopwatch times consecutive layers of one replayed request.
type stopwatch struct {
	tr     *tracer
	trace  int
	parent int
	last   time.Time
}

// lap ends the layer that began at the previous lap, records its span
// and returns its duration.
func (s *stopwatch) lap(name string) time.Duration {
	now := time.Now()
	d := now.Sub(s.last)
	s.tr.add(s.trace, s.parent, name, s.last, d)
	s.last = now
	return d
}

// decideLayers are one replayed decide's times, in handler order.
type decideLayers struct {
	decode, gate, build, core, snapshot, finish, encode time.Duration
	decider                                             string // as in core.<decider>_us
}

func (l decideLayers) sum() time.Duration {
	return l.decode + l.gate + l.build + l.core + l.snapshot + l.finish + l.encode
}

// replayDecide repeats, outside the server, the exported calls the
// access-log middleware and the decide handler make for o, in the same
// order: the request's root span, DTO decode, the gate (registry
// lookup, admission slot, counters), the problem rebuild an override
// needs, the decider under pprof labels with the span on its context,
// the stats snapshot, the finish (labelled series, span collection,
// request ring, decision log), the indented JSON encode of the response
// and, again counted as finish, the access log.
func (r *runner) replayDecide(o op, sw *stopwatch) (decideLayers, error) {
	tmpl := r.w.Templates[o.Tmpl]
	name := r.in.names[o.Tenant]
	m := r.inst.metrics
	l := decideLayers{decider: tmpl.coreName()}
	began := time.Now()

	rec := obs.NewSpanRecorder(0)
	root := rec.Root("POST /v1/problems/"+name+"/decide", "")
	ctx := obs.ContextWithSpan(context.Background(), root)
	traceID := root.Trace().String()
	var req server.DecideRequest
	dec := json.NewDecoder(bytes.NewReader(r.c.bodies[o.Tmpl]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return l, err
	}
	l.decode = sw.lap("server.dto_decode")

	m.Inc(obs.ServerRequests)
	e, ok := r.inst.svc.Registry().Get(name)
	if !ok {
		return l, fmt.Errorf("no resident problem %s", name)
	}
	qStart := time.Now()
	release, err := r.inst.svc.Admission().Acquire(ctx)
	if err != nil {
		return l, err
	}
	queueWait := time.Since(qStart)
	m.Inc(obs.ServerDecides)
	l.gate = sw.lap("server.gate")

	p, ci := e.Problem, e.CInstance
	var reqM *obs.Metrics
	if tmpl.overrides() {
		doc := withOverride(*e.Doc, tmpl)
		if p, ci, err = probjson.Build(&doc); err != nil {
			release()
			return l, err
		}
		// The server-wide overlay the registry applies to a rebuild,
		// then the request-private metrics the decide path installs.
		p.Options.Parallelism = runtime.GOMAXPROCS(0)
		reqM = obs.NewMetrics()
		p.Options.Obs = reqM
		l.build = sw.lap("probjson.build")
	}

	start := time.Now()
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	var got outcome
	pprof.Do(dctx, pprof.Labels("problem", name, "decider", req.Property, "trace_id", traceID), func(ctx context.Context) {
		got, err = decideDirect(ctx, p, ci, tmpl)
	})
	cancel()
	m.Merge(reqM)
	wall := time.Since(start)
	release()
	if err != nil {
		return l, fmt.Errorf("%s %s: %w", name, tmpl.name(), err)
	}
	l.core = sw.lap("core." + l.decider)
	n := r.c.tenants[o.Tenant].done.Load()
	if !r.c.or.check(o.Tenant, n, n, o.Tmpl, got) {
		return l, fmt.Errorf("%s %s: wrong answer %s", name, tmpl.name(), got)
	}

	resp := server.DecideResponse{
		Problem:        name,
		Property:       req.Property,
		Model:          req.Model,
		Verdict:        got.Verdict,
		CertainAnswers: got.Answers,
		ElapsedMS:      float64(wall.Microseconds()) / 1000,
		QueueWaitMS:    float64(queueWait.Nanoseconds()) / 1e6,
		TraceID:        traceID,
		Stats:          m.Snapshot(),
	}
	l.snapshot = sw.lap("obs.snapshot")

	decider := tmpl.coreName()
	r.decideVec.Inc(name, decider, "ok")
	r.wallVec.ObserveExemplar(wall.Nanoseconds(), traceID, name)
	spans := rec.Spans()
	verdict := "unknown"
	if got.Verdict != nil {
		verdict = strconv.FormatBool(*got.Verdict)
	}
	r.inst.svc.Requests().Add(server.RequestRecord{
		Time: began, TraceID: traceID, Problem: name, Property: req.Property, Decider: decider,
		Status: 200, Verdict: got.Verdict, QueueWaitMS: resp.QueueWaitMS,
		WallMS: float64(wall.Nanoseconds()) / 1e6, Spans: spans, SpansDropped: rec.Dropped(),
	})
	r.inst.logger.LogAttrs(ctx, slog.LevelInfo, "decide",
		slog.String("trace_id", traceID),
		slog.String("problem", name),
		slog.String("decider", decider),
		slog.String("verdict", verdict),
		slog.String("outcome", "ok"),
		slog.Int("status", 200),
		slog.Float64("queue_wait_ms", resp.QueueWaitMS),
		slog.Float64("wall_ms", float64(wall.Nanoseconds())/1e6),
		slog.Int64("spans_dropped", rec.Dropped()),
	)
	l.finish = sw.lap("server.finish")

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return l, err
	}
	l.encode = sw.lap("server.dto_encode")

	// After the handler returns, the access-log middleware ends the root
	// span and logs the request; that is finish work too.
	root.End()
	r.inst.logger.LogAttrs(ctx, slog.LevelInfo, "access",
		slog.String("trace_id", traceID),
		slog.String("method", http.MethodPost),
		slog.String("path", "/v1/problems/"+name+"/decide"),
		slog.Int("status", 200),
		slog.Int64("bytes", int64(buf.Len())),
		slog.Float64("duration_ms", float64(time.Since(began).Nanoseconds())/1e6),
		slog.String("remote", "127.0.0.1:40000"),
	)
	l.finish += sw.lap("server.access_log")
	return l, nil
}

// putLayers are one replayed PUT's times.
type putLayers struct{ decode, build, append, registry time.Duration }

// putReplayer repeats the PUT path outside the server: document decode
// and build on their own, the write-ahead-log append on a throwaway log,
// and the whole registry Put on a throwaway registry (with its own
// throwaway log when the workload is durable).
type putReplayer struct {
	reg     *server.Registry
	appends *durable.Log // nil when the workload is not durable
	regLog  *durable.Log
}

func newPutReplayer(w *workload, dir string) (*putReplayer, error) {
	m := obs.NewMetrics()
	base := func() core.Options { return core.Options{Parallelism: runtime.GOMAXPROCS(0), Obs: m} }
	pr := &putReplayer{reg: server.NewRegistry(256<<20, base, m)}
	if !w.Durable {
		return pr, nil
	}
	var err error
	if pr.appends, _, err = durable.Open(filepath.Join(dir, "replay-append"), durable.Options{}); err != nil {
		return nil, err
	}
	if pr.regLog, _, err = durable.Open(filepath.Join(dir, "replay-registry"), durable.Options{}); err != nil {
		pr.appends.Close()
		return nil, err
	}
	pr.reg.AttachDurable(pr.regLog)
	return pr, nil
}

func (pr *putReplayer) close() {
	if pr.appends != nil {
		pr.appends.Close()
		pr.regLog.Close()
	}
}

func (pr *putReplayer) replay(name string, raw []byte, sw *stopwatch) (putLayers, error) {
	var l putLayers
	doc, err := server.DecodeDocument(raw)
	if err != nil {
		return l, err
	}
	l.decode = sw.lap("server.decode_doc")
	if _, _, err := probjson.Build(doc); err != nil {
		return l, err
	}
	l.build = sw.lap("probjson.build_put")
	if pr.appends != nil {
		if err := pr.appends.AppendPut(name, raw); err != nil {
			return l, err
		}
		l.append = sw.lap("durable.append")
	}
	if _, _, err := pr.reg.Put(name, raw); err != nil {
		return l, err
	}
	l.registry = sw.lap("server.registry_put")
	return l, nil
}

// traced measures the per-layer metrics, each phase a quarter of the
// measured time: an untraced closed loop (the server's counters and the
// runtime), an untraced open loop at the workload's rate (latency from
// the due time, generator lateness), a closed loop
// with the handler timer on (tracing overhead), and a sequential phase
// that sends sampled decides one at a time, each then replayed layer by
// layer, followed by replayed PUTs.
func (r *runner) traced() error {
	r.timer = newHandlerTimer(opStreamLen)
	if err := r.serve(); err != nil {
		return err
	}
	quarter := r.measured / 4
	r.c.closedLoop(genOps(r.w, r.cfg.seed, streamWarmup, 0), r.phases.warm, false)

	before := r.inst.metrics.Snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	closed, sent := r.c.closedLoop(genOps(r.w, r.cfg.seed, streamClosed, 0), quarter, false)
	runtime.ReadMemStats(&m1)
	delta := counterDeltas(before, r.inst.metrics.Snapshot())
	untracedRPS := float64(countOK(closed)) / quarter.Seconds()
	decides := delta(obs.ServerDecides)
	perDecide := func(c obs.Counter) float64 {
		if decides == 0 {
			return 0
		}
		return delta(c) / decides
	}
	r.set("core.models_checked_per_decide", perDecide(obs.ModelsChecked))
	r.set("core.valuations_per_decide", perDecide(obs.ValuationsEnumerated))
	r.set("search.items_per_decide", perDecide(obs.SearchItems))
	r.set("eval.plan_compilations_per_decide", perDecide(obs.PlanCompilations))
	r.set("eval.plan_runs_per_decide", perDecide(obs.PlanRuns))
	r.set("eval.rows_probed_per_decide", perDecide(obs.RowsProbed))
	r.set("relation.index_probes_per_decide", perDecide(obs.IndexProbes))
	r.set("relation.values_interned_per_op", delta(obs.ValuesInterned)/float64(sent))
	hitRatio := 0.0
	if lookups := delta(obs.RHSCacheHits) + delta(obs.RHSCacheMisses); lookups > 0 {
		hitRatio = delta(obs.RHSCacheHits) / lookups
	}
	r.set("cc.rhs_cache_hit_ratio", hitRatio)
	r.set("runtime.gc_cycles_per_kop", float64(m1.NumGC-m0.NumGC)*1000/float64(sent))
	r.set("runtime.gc_pause_max_ms", maxPause(&m0, &m1))
	var waits []float64
	for _, s := range closed {
		if !s.put {
			waits = append(waits, s.queueWait)
		}
	}
	r.set("server.queue_wait_ms_p99", percentile(waits, 0.99))

	open := r.c.openLoop(genOps(r.w, r.cfg.seed, streamOpen, 0), arrivals(r.cfg.seed, r.w.Rate, quarter))
	var late []float64
	for _, s := range open {
		late = append(late, ms(s.late))
	}
	r.set("load.gen_late_p99_ms", percentile(late, 0.99))
	decideLat := latencies(open, func(s sample) bool { return !s.put })
	putLat := latencies(open, func(s sample) bool { return s.put })
	r.set("load.decide_p50_ms", percentile(decideLat, 0.50))
	r.set("load.decide_p90_ms", percentile(decideLat, 0.90))
	r.set("load.decide_p99_ms", percentile(decideLat, 0.99))
	r.set("load.put_p50_ms", percentile(putLat, 0.50))
	r.set("load.put_p99_ms", percentile(putLat, 0.99))

	r.timer.on.Store(true)
	tracedClosed, _ := r.c.closedLoop(genOps(r.w, r.cfg.seed, streamClosed, 0), quarter, true)
	r.set("trace.overhead_frac", 1-float64(countOK(tracedClosed))/quarter.Seconds()/untracedRPS)

	tr := &tracer{t0: time.Now()}
	if err := r.sequential(tr, quarter); err != nil {
		return err
	}
	r.timer.on.Store(false)

	reg := r.inst.svc.Registry()
	r.set("relation.resident_bytes_per_problem", float64(reg.ResidentBytes())/float64(reg.Len()))
	r.set("load.fail_frac", float64(r.c.failed.Load())/float64(r.c.attempted.Load()))
	if r.cfg.traceOut != "" {
		return tr.write(r.cfg.traceOut)
	}
	return nil
}

// maxPause is the longest GC pause among the cycles that ended between
// two MemStats readings (the runtime keeps the last 256).
func maxPause(m0, m1 *runtime.MemStats) float64 {
	first := m0.NumGC + 1
	if m1.NumGC > 256 {
		first = max(first, m1.NumGC-255)
	}
	var worst uint64
	for n := first; n <= m1.NumGC; n++ {
		worst = max(worst, m1.PauseNs[(n+255)%256])
	}
	return float64(worst) / 1e6
}

// sequential sends up to replayDecides sampled decides one at a time,
// timing each round trip and its handler, and replays each one layer
// by layer; then it replays up to replayPuts PUTs. Each part stops
// early at half of budget.
func (r *runner) sequential(tr *tracer, budget time.Duration) error {
	r.decideVec = r.inst.metrics.LabeledCounter(obs.ServerDecides, "problem", "decider", "outcome")
	r.wallVec = r.inst.metrics.LabeledHisto(obs.DeciderWallNs, "problem")
	layers := map[string][]float64{}
	add := func(name string, d time.Duration) { layers[name] = append(layers[name], us(d)) }
	// Sums over the same requests, for the shares: a median of a
	// multimodal mix (cheap and costly deciders) is no share of anything.
	var sumRTT, sumHandler, sumCore, sumBuild, sumReplayed time.Duration

	ops := genOps(r.w, r.cfg.seed, streamReplay, 0)
	deadline := time.Now().Add(budget / 2)
	for i, n := 0, 0; n < replayDecides && time.Now().Before(deadline); i++ {
		o := ops[i%opStreamLen]
		if o.Tmpl == putOp {
			continue
		}
		n++
		// Whichever of the two goes second finds the problem's data in
		// the CPU caches; alternating keeps that from biasing either.
		var s sample
		send := func() {
			start := time.Now()
			s = r.c.do(o, n)
			root := tr.add(n, 0, "client.decide", start, s.latency)
			tr.add(n, root, "server.handler", time.Unix(0, r.timer.began[n].Load()), time.Duration(r.timer.took[n].Load()))
		}
		if n%2 == 0 {
			send()
		}
		sw := &stopwatch{tr: tr, trace: n, last: time.Now()}
		sw.parent = tr.add(n, 0, "replay.decide", sw.last, 0)
		l, err := r.replayDecide(o, sw)
		if err != nil {
			r.c.fail(fmt.Errorf("replay: %w", err))
			continue
		}
		tr.end(sw.parent, sw.last)
		if n%2 == 1 {
			send()
		}
		h := time.Duration(r.timer.took[n].Load())
		add("server.handler_us", h)
		add("http.transport_us", s.latency-h)
		layers["server.response_bytes"] = append(layers["server.response_bytes"], float64(s.bytes))
		add("server.dto_decode_us", l.decode)
		add("server.gate_us", l.gate)
		add("probjson.build_us", l.build)
		add("core."+l.decider+"_us", l.core)
		add("obs.snapshot_us", l.snapshot)
		add("server.finish_us", l.finish)
		add("server.dto_encode_us", l.encode)
		sumRTT += s.latency
		sumHandler += h
		sumCore += l.core
		sumBuild += l.build
		sumReplayed += l.sum()
	}

	pr, err := newPutReplayer(r.w, r.dir)
	if err != nil {
		return err
	}
	defer pr.close()
	var sumAppend, sumPut time.Duration
	deadline = time.Now().Add(budget / 2)
	for i := 0; i < replayPuts && time.Now().Before(deadline); i++ {
		t := i % len(r.in.docs)
		sw := &stopwatch{tr: tr, trace: replayDecides + 1 + i, last: time.Now()}
		sw.parent = tr.add(sw.trace, 0, "replay.put", sw.last, 0)
		l, err := pr.replay(r.in.names[t], r.in.docs[t][i%r.w.Versions], sw)
		if err != nil {
			return fmt.Errorf("replay put %s: %w", r.in.names[t], err)
		}
		tr.end(sw.parent, sw.last)
		add("server.decode_doc_us", l.decode)
		add("probjson.build_put_us", l.build)
		add("durable.append_us", l.append)
		add("server.registry_put_us", l.registry)
		sumAppend += l.append
		sumPut += l.registry
	}

	// A layer this workload never reaches reads 0.
	for _, name := range []string{
		"server.handler_us", "http.transport_us", "server.dto_decode_us", "server.gate_us",
		"obs.snapshot_us", "server.finish_us", "server.dto_encode_us", "server.response_bytes",
		"probjson.build_us", "core.consistency_us", "core.rcdp_strong_us", "core.rcdp_weak_us",
		"core.certain_us", "core.minp_strong_us", "core.rcqp_strong_us",
		"server.decode_doc_us", "probjson.build_put_us", "durable.append_us", "server.registry_put_us",
	} {
		r.set(name, median(layers[name]))
	}
	r.set("trace.replay_coverage", ratio(sumReplayed, sumHandler))
	r.set("share.core_of_handler", ratio(sumCore, sumHandler))
	r.set("share.build_of_handler", ratio(sumBuild, sumHandler))
	r.set("share.server_of_rtt", 1-ratio(sumCore, sumRTT))
	r.set("share.append_of_put", ratio(sumAppend, sumPut))
	return nil
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
