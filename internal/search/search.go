// Package search provides the parallel candidate-search engine the
// deciders are built on. The paper's procedures are small-model
// searches: they enumerate bounded candidate instances, valuations and
// extensions until a counterexample or witness is found, and the
// candidates are independent of one another — an embarrassingly
// parallel workload. This package fans those enumerations out over a
// bounded worker pool while keeping every observable result exactly
// what the sequential enumeration would produce.
//
// FirstHit and ForEachOrdered are two views of one engine. Candidates
// are numbered by generation order, and their outcomes reach a
// consumer strictly in that order, so the consumer observes exactly
// the prefix a sequential probe-then-consume loop would see:
//
//   - FirstHit's consumer stops at the first hit, so it returns the
//     lowest-index decisive outcome (a hit or a probe error) regardless
//     of goroutine scheduling, and repeated runs — and runs at
//     different worker counts — return bit-identical results.
//   - ForEachOrdered hands every outcome to the caller's consumer, so
//     stateful reductions (certain-answer intersections) observe the
//     sequential order; the consumer ends the search by returning
//     false.
//   - A probe error ends the search at its index, after every
//     candidate below it was consumed without stopping.
//   - workers <= 1 runs a plain inline loop: generation, probing and
//     early exit interleave exactly as a hand-written sequential search
//     would, with no goroutines at all.
//
// With several workers, the first decisive outcome to arrive (a hit or
// a probe error) stops dispatch, and the candidates below it are still
// probed, since one of them may win. Once the consumer has reached the
// stop, every probe still in flight lies above it: the engine cancels
// their context instead of letting them run to completion, and
// discards what they return, so a cancelled probe's context error
// never becomes the result.
//
// Probe panics are captured and surface as a *PanicError carrying the
// candidate index and stack, at that candidate's place in the order.
// Generator panics are contained too: they surface as a *PanicError
// with Index -1 after every dispatched candidate has been probed and
// drained, so a crashing enumeration never leaks goroutines or
// deadlocks the pool. A stop reached before the generator crashed
// still wins — the sequential loop would have exited before reaching
// the crash point.
package search

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"relcomplete/internal/obs"
)

// Generator enumerates candidates in a canonical order, calling yield
// for each; it must stop when yield returns false. Generators run on a
// single goroutine: they may close over mutable state (deduplication
// sets, budgets) without synchronisation, but must not touch state the
// probes mutate.
type Generator[T any] func(yield func(T) bool)

// Probe evaluates one candidate. hit marks the candidate decisive (the
// search stops dispatching new work); a non-nil error is decisive too.
// Probes run concurrently with one another and with the generator: they
// must only use shared state that is safe for concurrent use. A probe
// above the search's stop sees its context cancelled.
type Probe[T, R any] func(ctx context.Context, idx int, item T) (R, bool, error)

// Hit is a decisive probe result and the candidate index it came from.
type Hit[R any] struct {
	Index int
	Value R
}

// PanicError wraps a panic recovered from a probe or from the
// generator. Index is the candidate the probe was evaluating, or -1
// when the generator itself panicked (the fault then lies in candidate
// enumeration, not in any particular candidate).
type PanicError struct {
	Index     int
	Recovered any
	Stack     []byte
}

func (e *PanicError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("search: generator panicked: %v\n%s", e.Recovered, e.Stack)
	}
	return fmt.Sprintf("search: probe panicked on candidate %d: %v\n%s", e.Index, e.Recovered, e.Stack)
}

// outcome is one probed candidate's result.
type outcome[R any] struct {
	idx int
	val R
	hit bool
	err error
}

func (o outcome[R]) decisive() bool { return o.hit || o.err != nil }

// runProbe invokes the probe with panic capture.
func runProbe[T, R any](ctx context.Context, probe Probe[T, R], idx int, item T) (o outcome[R]) {
	o.idx = idx
	defer func() {
		if r := recover(); r != nil {
			o.hit = false
			o.err = &PanicError{Index: idx, Recovered: r, Stack: debug.Stack()}
		}
	}()
	o.val, o.hit, o.err = probe(ctx, idx, item)
	return o
}

// runGen invokes the generator with panic capture, mirroring runProbe.
func runGen(gen func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: -1, Recovered: r, Stack: debug.Stack()}
		}
	}()
	gen()
	return nil
}

// FirstHit probes the generator's candidates on up to workers
// goroutines and returns the lowest-index decisive outcome — the same
// one a sequential loop with early exit would return. found is false
// when no candidate hit. A probe error wins over a later (higher-index)
// hit and loses to an earlier one, exactly as in the sequential loop.
// When ctx is cancelled before a decisive outcome, ctx.Err() is
// returned. All goroutines have exited before FirstHit returns.
//
// m (nil allowed) receives engine metrics: items probed, early-stop
// signals, hits discarded for a lower-index winner and the latency
// between the stop signal and full worker drain.
func FirstHit[T, R any](ctx context.Context, workers int, m *obs.Metrics, gen Generator[T], probe Probe[T, R]) (Hit[R], bool, error) {
	var hit Hit[R]
	found, err := run(ctx, "search.first_hit", workers, m, gen, probe, func(o outcome[R]) (bool, error) {
		if o.hit {
			hit = Hit[R]{Index: o.idx, Value: o.val}
		}
		return !o.hit, nil
	})
	if err != nil || !found {
		return Hit[R]{}, false, err
	}
	return hit, true, nil
}

// ReduceProbe evaluates one candidate for ForEachOrdered; unlike Probe
// it carries no hit flag — stopping is the consumer's decision.
type ReduceProbe[T, R any] func(ctx context.Context, idx int, item T) (R, error)

// Consumer receives probe results strictly in generation order; it
// returns false to stop the search (candidates beyond the current
// index may already have been probed speculatively, but their results
// are discarded, so the consumer observes a strict sequential prefix).
type Consumer[R any] func(idx int, r R) (bool, error)

// ForEachOrdered probes the generator's candidates on up to workers
// goroutines and feeds the results to consume in generation order:
// the consumer sees exactly the prefix a sequential probe-then-consume
// loop would see, in the same order. The error returned is the
// sequentially-first failure: a probe error for candidate k is
// reported only after candidates 0..k-1 were consumed without
// stopping. stopped reports whether consume ended the search (as
// opposed to the generator running dry), so callers can distinguish
// "early verdict" from "exhausted" — the sequential loop's two exits.
func ForEachOrdered[T, R any](ctx context.Context, workers int, m *obs.Metrics, gen Generator[T], probe ReduceProbe[T, R], consume Consumer[R]) (stopped bool, err error) {
	return run(ctx, "search.for_each", workers, m, gen,
		func(ctx context.Context, idx int, item T) (R, bool, error) {
			r, err := probe(ctx, idx, item)
			return r, false, err
		},
		func(o outcome[R]) (bool, error) { return consume(o.idx, o.val) })
}

// run is the engine. It hands the outcomes to consume in generation
// order until consume returns false (stopped) or an error, or an
// outcome carries a probe error; that outcome's index is the stop. The
// error returned is the one the search stopped on, else the generator's
// failure, else (with workers) ctx.Err() when ctx is done.
func run[T, R any](ctx context.Context, span string, workers int, m *obs.Metrics, gen Generator[T], probe Probe[T, R],
	consume func(outcome[R]) (bool, error)) (stopped bool, err error) {
	if sp := obs.SpanFromContext(ctx); sp != nil {
		sp = sp.StartChild(span, time.Now())
		sp.SetAttr("workers", workers)
		ctx = obs.ContextWithSpan(ctx, sp)
		defer sp.End()
	}
	hitStop := false
	// deliver consumes one outcome in order and reports whether the
	// search goes on past it.
	deliver := func(o outcome[R]) bool {
		if o.err != nil {
			err = o.err
			return false
		}
		cont, cerr := consume(o)
		if cerr != nil {
			err = cerr
			return false
		}
		stopped, hitStop = !cont, !cont && o.hit
		return cont
	}
	var probed, races int64
	var genErr error
	if workers <= 1 {
		genErr = runGen(func() {
			gen(func(item T) bool {
				if cerr := ctx.Err(); cerr != nil {
					err = cerr
					return false
				}
				o := runProbe(ctx, probe, int(probed), item)
				probed++
				return deliver(o)
			})
		})
	} else {
		probed, races, genErr = pool(ctx, workers, m, gen, probe, deliver)
	}
	m.Add(obs.SearchItems, probed)
	m.Add(obs.SearchRacesResolved, races)
	if hitStop {
		m.Observe(obs.SearchItemsPerHit, probed)
	}
	if err == nil && !stopped {
		err = genErr
	}
	return stopped, err
}

// pool runs the generator on a dispatcher goroutine and the probes on
// workers goroutines, and passes their outcomes to deliver in
// generation order until deliver returns false. It reports the
// candidates probed, the hits discarded above the stop, and the
// generator's failure, else ctx.Err().
func pool[T, R any](ctx context.Context, workers int, m *obs.Metrics, gen Generator[T], probe Probe[T, R],
	deliver func(outcome[R]) bool) (probed, races int64, genErr error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type task struct {
		idx  int
		item T
	}
	dispatch := make(chan task)
	results := make(chan outcome[R])
	stop := make(chan struct{})
	var stopOnce sync.Once
	var haltedAt time.Time
	halt := func() {
		stopOnce.Do(func() {
			haltedAt = time.Now()
			close(stop)
			m.Inc(obs.SearchCancellations)
		})
	}

	// Dispatcher: runs the generator, numbering candidates, until the
	// search halts or ctx is done. A generator panic is captured into
	// genErr, which is safe to read once results has closed: the
	// assignment happens before the deferred close(dispatch), which
	// happens before the workers exit, which happens before
	// close(results).
	go func() {
		defer close(dispatch)
		idx := 0
		genErr = runGen(func() {
			gen(func(item T) bool {
				select {
				case <-stop:
					return false
				case <-ctx.Done():
					return false
				case dispatch <- task{idx: idx, item: item}:
					idx++
					return true
				}
			})
		})
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Adopt the caller's pprof labels (problem/decider/trace_id
			// under a served decide), so CPU profiles attribute worker
			// time to the tenant that spawned the search.
			pprof.SetGoroutineLabels(ctx)
			for t := range dispatch {
				o := runProbe(pctx, probe, t.idx, t.item)
				if o.decisive() {
					halt()
				}
				results <- o
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder the outcomes into generation order; only those that
	// arrive ahead of their turn wait in pending. Candidates are
	// dispatched in order and every dispatched one is probed, so the
	// order fills up to the stop; once deliver has reached it, every
	// probe still in flight lies above it and is cancelled.
	pending := map[int]outcome[R]{}
	next, live := 0, true
	for o := range results {
		probed++
		if o.hit {
			races++
		}
		if !live {
			continue
		}
		if o.idx != next {
			pending[o.idx] = o
			continue
		}
		for { // o is candidate next: deliver it and what it unblocks
			next++
			if !deliver(o) {
				if o.hit {
					races-- // the winner
				}
				live = false
				halt()
				cancel()
				break
			}
			var ok bool
			if o, ok = pending[next]; !ok {
				break
			}
			delete(pending, next)
		}
	}
	if !haltedAt.IsZero() {
		// results is closed, so every worker has drained.
		m.Add(obs.SearchCancelNs, time.Since(haltedAt).Nanoseconds())
	}
	if genErr == nil {
		genErr = ctx.Err()
	}
	return probed, races, genErr
}
