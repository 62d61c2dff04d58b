package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"relcomplete/internal/obs"
	"relcomplete/internal/relation"
)

// runConfig holds the settings of one invocation.
type runConfig struct {
	seed     int64
	seconds  float64 // measured time per run
	trace    bool
	workDir  string // work space for write-ahead logs
	traceOut string // span JSONL of a traced run ("" = not written)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner is one workload's run: generate, decide the oracle, set up, then
// the untraced (end-to-end) or traced (per-layer) phases.
type runner struct {
	cfg   runConfig
	w     *workload
	in    *inputs
	c     *client
	inst  *instance
	timer *handlerTimer
	dir   string // this run's work directory
	res   *result
	// Phase lengths. An untraced run splits the measured time into
	// rounds of the closed loop; closed is one round's.
	measured time.Duration
	phases   struct{ warm, closed time.Duration }

	// The server's labelled decide series, which a replayed decide
	// updates as the handler does.
	decideVec *obs.CounterVec
	wallVec   *obs.HistogramVec
}

func runWorkload(w *workload, cfg runConfig) (*result, error) {
	r := &runner{cfg: cfg, w: w, res: &result{
		Workload: w.Name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]metric{},
	}}
	r.measured = time.Duration(cfg.seconds * float64(time.Second))
	r.phases.warm = min(r.measured/10, 3*time.Second)
	r.phases.closed = r.measured / rounds
	r.dir = filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)

	r.in = genInputs(w, cfg.seed)
	or, err := buildOracle(w, r.in)
	if err != nil {
		return nil, err
	}
	r.c = newClient(w, r.in, or)
	defer r.c.tr.CloseIdleConnections()

	if cfg.trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if r.inst != nil {
		if cerr := r.inst.close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	r.res.Attempted = r.c.attempted.Load()
	r.res.Failed = r.c.failed.Load()
	r.res.Failures = r.c.failures
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

func (r *runner) set(name string, v float64) {
	for _, d := range append(endToEnd, perLayer...) {
		if d.Name == name {
			r.res.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("undeclared metric " + name) // every name is a literal in this package
}

// load starts a fresh instance, durable in write-ahead-log directory k
// when the workload is, and PUTs every tenant's first document into it:
// one set-up. It returns the instance and the set-up's time.
func (r *runner) load(k int) (*instance, float64, error) {
	runtime.GC()
	start := time.Now()
	inst, err := startInstance(r.dataDir(k), r.timer)
	if err != nil {
		return nil, 0, err
	}
	if err := r.c.load(inst.base); err != nil {
		inst.close()
		return nil, 0, err
	}
	return inst, time.Since(start).Seconds(), nil
}

func (r *runner) dataDir(k int) string {
	if !r.w.Durable {
		return ""
	}
	return filepath.Join(r.dir, fmt.Sprintf("load%d", k))
}

// serve sets up the instance the run drives.
func (r *runner) serve() error {
	inst, _, err := r.load(0)
	if err != nil {
		return err
	}
	r.inst = inst
	r.c.target(inst.base)
	return nil
}

// setupOnce sets up a fresh instance beside the one the run drives,
// shuts it down, and returns the set-up's time.
func (r *runner) setupOnce(k int) (float64, error) {
	inst, took, err := r.load(k)
	if err != nil {
		return 0, err
	}
	err = inst.close()
	// startInstance pointed the relation layer's counters at the fresh
	// instance, as rcserved does at start; point them back.
	relation.SetMetrics(r.inst.metrics)
	if err == nil && r.w.Durable {
		err = os.RemoveAll(r.dataDir(k))
	}
	return took, err
}

func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// rounds is how many times an untraced run cycles through a set-up and
// the closed loop. The machine's speed drifts by tens of percent over
// tens of seconds as its other tenants come and go, so every metric
// samples the whole run rather than one stretch of it.
const rounds = 12

// untraced measures the end-to-end metrics: after a warm-up, rounds of
// a fresh set-up beside the driven instance and the closed loop
// (capacity, the latency its callers see, allocation); the heap at the
// end. Each closed loop starts right after a full GC, so where it
// happens to catch the collector's cycle does not shift its numbers.
func (r *runner) untraced() error {
	baseHeap := heapInuse()
	if err := r.serve(); err != nil {
		return err
	}
	r.c.closedLoop(genOps(r.w, r.cfg.seed, streamWarmup, 0), r.phases.warm, false)

	var setup, p50 []float64
	var alloc uint64
	var sent, ok int64
	for k := int64(0); k < rounds; k++ {
		took, err := r.setupOnce(int(k) + 1)
		if err != nil {
			return err
		}
		setup = append(setup, took)

		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		closed, n := r.c.closedLoop(genOps(r.w, r.cfg.seed, streamClosed, k), r.phases.closed, false)
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		sent += n
		ok += int64(countOK(closed))
		p50 = append(p50, median(latencies(closed, func(s sample) bool { return !s.put })))
	}
	r.set("setup_s", median(setup))
	r.set("sat_rps", float64(ok)/(rounds*r.phases.closed).Seconds())
	r.set("decide_p50_ms", median(p50))
	r.set("alloc_kb_per_op", float64(alloc)/1024/float64(sent))
	r.set("heap_mb", float64(int64(heapInuse())-int64(baseHeap))/(1<<20))
	return nil
}

func countOK(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok {
			n++
		}
	}
	return n
}

// counterDeltas returns how much each named counter of the server
// grew between two snapshots.
func counterDeltas(before, after obs.Stats) func(obs.Counter) float64 {
	return func(c obs.Counter) float64 {
		return float64(after.Counters[c.String()] - before.Counters[c.String()])
	}
}
