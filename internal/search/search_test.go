package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relcomplete/internal/obs"
)

// intRange yields 0..n-1.
func intRange(n int) Generator[int] {
	return func(yield func(int) bool) error {
		for i := 0; i < n; i++ {
			if !yield(i) {
				return nil
			}
		}
		return nil
	}
}

// jitter sleeps a few microseconds to shuffle goroutine scheduling.
// The top-level rand functions are safe for concurrent probes.
func jitter() {
	time.Sleep(time.Duration(rand.Intn(50)) * time.Microsecond)
}

func TestFirstHitMatchesSequentialOnRandomInstances(t *testing.T) {
	// The workers=1 path IS the sequential loop; every other worker
	// count must return bit-identical results on randomized instances.
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(80)
		hits := map[int]bool{}
		for i := 0; i < n; i++ {
			if r.Intn(6) == 0 {
				hits[i] = true
			}
		}
		probe := func(ctx context.Context, idx int, item int) (string, bool, error) {
			return fmt.Sprintf("r%d", item), hits[item], nil
		}
		seqHit, seqFound, seqErr := FirstHit(context.Background(), 1, nil, intRange(n), probe)
		if seqErr != nil {
			t.Fatal(seqErr)
		}
		for _, workers := range []int{2, 4, 8} {
			got, found, err := FirstHit(context.Background(), workers, nil, intRange(n), probe)
			if err != nil {
				t.Fatal(err)
			}
			if found != seqFound || got != seqHit {
				t.Fatalf("trial %d workers=%d: got (%v, %v), sequential (%v, %v)",
					trial, workers, got, found, seqHit, seqFound)
			}
		}
	}
}

func TestFirstHitDeterministicUnderScheduling(t *testing.T) {
	// Several hits at different indices, probes with randomized delays:
	// the lowest-index hit must win on every run.
	hits := map[int]bool{7: true, 23: true, 31: true, 58: true}
	for run := 0; run < 25; run++ {
		var probed atomic.Int64
		probe := func(ctx context.Context, idx int, item int) (int, bool, error) {
			probed.Add(1)
			jitter()
			return item * 10, hits[item], nil
		}
		hit, found, err := FirstHit(context.Background(), 8, nil, intRange(64), probe)
		if err != nil || !found {
			t.Fatal(found, err)
		}
		if hit.Index != 7 || hit.Value != 70 {
			t.Fatalf("run %d: got %+v, want index 7 value 70", run, hit)
		}
	}
}

func TestFirstHitStopsGeneratorOnHit(t *testing.T) {
	// An unbounded generator must not be exhausted: the first hit has
	// to cancel generation. The generator's own return proves the
	// engine told it to stop (FirstHit joins all goroutines, so genDone
	// is closed by the time it returns).
	for _, workers := range []int{1, 4} {
		genDone := make(chan struct{})
		var dispatched atomic.Int64
		gen := Generator[int](func(yield func(int) bool) error {
			defer close(genDone)
			for i := 0; ; i++ {
				dispatched.Add(1)
				if !yield(i) {
					return nil
				}
			}
		})
		probe := func(ctx context.Context, idx int, item int) (struct{}, bool, error) {
			return struct{}{}, item == 10, nil
		}
		hit, found, err := FirstHit(context.Background(), workers, nil, gen, probe)
		if err != nil || !found || hit.Index != 10 {
			t.Fatalf("workers=%d: %+v %v %v", workers, hit, found, err)
		}
		select {
		case <-genDone:
		default:
			t.Fatalf("workers=%d: generator still running after FirstHit returned", workers)
		}
	}
}

func TestFirstHitPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		probe := func(ctx context.Context, idx int, item int) (int, bool, error) {
			if item == 13 {
				panic("boom on 13")
			}
			return 0, false, nil
		}
		_, found, err := FirstHit(context.Background(), workers, nil, intRange(40), probe)
		if found {
			t.Fatalf("workers=%d: unexpected hit", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want PanicError, got %v", workers, err)
		}
		if pe.Index != 13 {
			t.Fatalf("workers=%d: panic index %d, want 13", workers, pe.Index)
		}
	}
}

func TestFirstHitLowestIndexOutcomeWins(t *testing.T) {
	sentinel := errors.New("probe failed")
	cases := []struct {
		name     string
		errAt    int
		hitAt    int
		wantHit  bool
		wantErrs bool
	}{
		{"hit_before_error", 50, 3, true, false},
		{"error_before_hit", 2, 40, false, true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 6} {
			probe := func(ctx context.Context, idx int, item int) (int, bool, error) {
				if item == tc.errAt {
					return 0, false, sentinel
				}
				return item, item == tc.hitAt, nil
			}
			hit, found, err := FirstHit(context.Background(), workers, nil, intRange(64), probe)
			if tc.wantHit {
				if !found || hit.Index != tc.hitAt || err != nil {
					t.Fatalf("%s workers=%d: %+v %v %v", tc.name, workers, hit, found, err)
				}
			}
			if tc.wantErrs {
				if found || !errors.Is(err, sentinel) {
					t.Fatalf("%s workers=%d: %+v %v %v", tc.name, workers, hit, found, err)
				}
			}
		}
	}
}

func TestFirstHitContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var probed atomic.Int64
		gen := Generator[int](func(yield func(int) bool) error {
			for i := 0; ; i++ {
				if !yield(i) {
					return nil
				}
			}
		})
		probe := func(ctx context.Context, idx int, item int) (struct{}, bool, error) {
			if probed.Add(1) == 20 {
				cancel()
			}
			return struct{}{}, false, nil
		}
		_, found, err := FirstHit(ctx, workers, nil, gen, probe)
		cancel()
		if found || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: found=%v err=%v, want context.Canceled", workers, found, err)
		}
	}
}

func TestFirstHitNoCandidates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, found, err := FirstHit(context.Background(), workers, nil, intRange(0),
			func(ctx context.Context, idx int, item int) (int, bool, error) { return 0, true, nil })
		if found || err != nil {
			t.Fatalf("workers=%d: %v %v", workers, found, err)
		}
	}
}

func TestForEachOrderedDeliversInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var got []int
		stopped, err := ForEachOrdered(context.Background(), workers, nil, intRange(100),
			func(ctx context.Context, idx int, item int) (int, error) {
				jitter()
				return item * 2, nil
			},
			func(idx int, v int) (bool, error) {
				got = append(got, v)
				return true, nil
			})
		if err != nil || stopped {
			t.Fatalf("workers=%d: stopped=%v err=%v", workers, stopped, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*2 {
				t.Fatalf("workers=%d: out of order at %d: %d", workers, i, v)
			}
		}
	}
}

func TestForEachOrderedEarlyStopSeesSequentialPrefix(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var got []int
		stopped, err := ForEachOrdered(context.Background(), workers, nil, intRange(1000),
			func(ctx context.Context, idx int, item int) (int, error) { return item, nil },
			func(idx int, v int) (bool, error) {
				got = append(got, v)
				return v < 5, nil
			})
		if err != nil || !stopped {
			t.Fatalf("workers=%d: stopped=%v err=%v", workers, stopped, err)
		}
		want := []int{0, 1, 2, 3, 4, 5}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: consumed %v, want %v", workers, got, want)
		}
	}
}

func TestForEachOrderedErrorAtIndexAfterCleanPrefix(t *testing.T) {
	sentinel := errors.New("probe failed")
	for _, workers := range []int{1, 4} {
		consumed := 0
		stopped, err := ForEachOrdered(context.Background(), workers, nil, intRange(64),
			func(ctx context.Context, idx int, item int) (int, error) {
				if item == 9 {
					return 0, sentinel
				}
				return item, nil
			},
			func(idx int, v int) (bool, error) {
				consumed++
				return true, nil
			})
		if stopped || !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: stopped=%v err=%v", workers, stopped, err)
		}
		if consumed != 9 {
			t.Fatalf("workers=%d: consumed %d before the error, want 9", workers, consumed)
		}
	}
}

func TestForEachOrderedPanicCaptured(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := ForEachOrdered(context.Background(), workers, nil, intRange(32),
			func(ctx context.Context, idx int, item int) (int, error) {
				if item == 4 {
					panic("reduce boom")
				}
				return item, nil
			},
			func(idx int, v int) (bool, error) { return true, nil })
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 4 {
			t.Fatalf("workers=%d: want PanicError at 4, got %v", workers, err)
		}
	}
}

func TestFirstHitStressRace(t *testing.T) {
	// Exercised with -race in CI: many concurrent searches over shared
	// read-only state, each must return the canonical lowest hit.
	gen := intRange(200)
	probe := func(ctx context.Context, idx int, item int) (int, bool, error) {
		return item, item%37 == 36, nil // lowest hit at 36
	}
	for i := 0; i < 30; i++ {
		hit, found, err := FirstHit(context.Background(), 8, nil, gen, probe)
		if err != nil || !found || hit.Index != 36 {
			t.Fatalf("iteration %d: %+v %v %v", i, hit, found, err)
		}
	}
}

func TestFirstHitMetrics(t *testing.T) {
	for _, workers := range []int{1, 8} {
		m := obs.NewMetrics()
		hit, found, err := FirstHit(context.Background(), workers, m, intRange(64),
			func(ctx context.Context, idx int, item int) (int, bool, error) {
				return item, item == 20, nil
			})
		if err != nil || !found || hit.Index != 20 {
			t.Fatalf("workers=%d: hit=%v found=%v err=%v", workers, hit, found, err)
		}
		// At least candidates 0..20 were probed; the engine may probe a
		// few more speculatively before the stop signal lands.
		if got := m.Get(obs.SearchItems); got < 21 || got > 64 {
			t.Errorf("workers=%d: SearchItems = %d, want in [21, 64]", workers, got)
		}
		if workers > 1 {
			if got := m.Get(obs.SearchCancellations); got != 1 {
				t.Errorf("workers=%d: SearchCancellations = %d, want 1", workers, got)
			}
			if got := m.Get(obs.SearchCancelNs); got <= 0 {
				t.Errorf("workers=%d: SearchCancelNs = %d, want > 0", workers, got)
			}
		}
	}
}

func TestForEachOrderedMetrics(t *testing.T) {
	m := obs.NewMetrics()
	stopped, err := ForEachOrdered(context.Background(), 4, m, intRange(100),
		func(ctx context.Context, idx int, item int) (int, error) { return item, nil },
		func(idx int, r int) (bool, error) { return r < 10, nil })
	if err != nil || !stopped {
		t.Fatalf("stopped=%v err=%v", stopped, err)
	}
	if got := m.Get(obs.SearchItems); got < 11 {
		t.Errorf("SearchItems = %d, want >= 11", got)
	}
	if got := m.Get(obs.SearchCancellations); got != 1 {
		t.Errorf("SearchCancellations = %d, want 1", got)
	}
}

// errEnumeration is the failure a generator of failAfter returns.
var errEnumeration = errors.New("enumeration failed")

// genFailures are the two ways a generator fails: a panic, or a
// returned error.
var genFailures = []struct {
	name   string
	panics bool
}{{"panic", true}, {"error", false}}

// failAfter yields 0..n-1 and then fails: it panics when panics is
// set, and otherwise returns errEnumeration.
func failAfter(n int, panics bool) Generator[int] {
	return func(yield func(int) bool) error {
		for i := 0; i < n; i++ {
			if !yield(i) {
				return nil
			}
		}
		if panics {
			panic("generator exploded")
		}
		return errEnumeration
	}
}

// isGenFailure reports whether err is the failure of a failAfter
// generator: a PanicError with Index -1, or errEnumeration.
func isGenFailure(err error, panics bool) bool {
	var pe *PanicError
	if panics {
		return errors.As(err, &pe) && pe.Index == -1
	}
	return errors.Is(err, errEnumeration)
}

func TestFirstHitGeneratorPanicContained(t *testing.T) {
	// A generator that crashes or fails mid-enumeration must surface
	// its failure (a panic as a PanicError with Index -1) after the
	// pool drains — never a deadlock or an unrecovered panic on an
	// engine goroutine.
	for _, f := range genFailures {
		for _, workers := range []int{1, 4, 8} {
			probe := func(ctx context.Context, idx int, item int) (int, bool, error) {
				jitter()
				return item, false, nil
			}
			_, found, err := FirstHit(context.Background(), workers, nil, failAfter(5, f.panics), probe)
			if found {
				t.Fatalf("%s workers=%d: unexpected hit", f.name, workers)
			}
			if !isGenFailure(err, f.panics) {
				t.Fatalf("%s workers=%d: want the generator's failure, got %v", f.name, workers, err)
			}
		}
	}
}

func TestFirstHitHitBeatsGeneratorPanic(t *testing.T) {
	// A decisive hit found before the generator crashed or failed wins:
	// the sequential loop would have exited before reaching the failure.
	for _, f := range genFailures {
		for _, workers := range []int{1, 4} {
			probe := func(ctx context.Context, idx int, item int) (int, bool, error) {
				return item, item == 1, nil
			}
			hit, found, err := FirstHit(context.Background(), workers, nil, failAfter(3, f.panics), probe)
			if err != nil || !found || hit.Index != 1 {
				t.Fatalf("%s workers=%d: %+v %v %v", f.name, workers, hit, found, err)
			}
		}
	}
}

func TestForEachOrderedGeneratorPanicContained(t *testing.T) {
	for _, f := range genFailures {
		for _, workers := range []int{1, 4, 8} {
			probe := func(ctx context.Context, idx int, item int) (int, error) {
				jitter()
				return item, nil
			}
			var got []int
			stopped, err := ForEachOrdered(context.Background(), workers, nil, failAfter(4, f.panics), probe,
				func(idx int, r int) (bool, error) {
					got = append(got, r)
					return true, nil
				})
			if stopped {
				t.Fatalf("%s workers=%d: unexpected stop", f.name, workers)
			}
			if !isGenFailure(err, f.panics) {
				t.Fatalf("%s workers=%d: want the generator's failure, got %v", f.name, workers, err)
			}
			// Everything dispatched before the failure is still delivered
			// in order (the prefix semantics hold even on a failing
			// generator).
			for i, v := range got {
				if v != i {
					t.Fatalf("%s workers=%d: out-of-order delivery %v", f.name, workers, got)
				}
			}
		}
	}
}

func TestForEachOrderedConsumerStopBeatsGeneratorPanic(t *testing.T) {
	// The consumer stopping is the sequential loop's early exit; a
	// generator crash or failure beyond the stop point is unobservable.
	for _, f := range genFailures {
		for _, workers := range []int{1, 4} {
			probe := func(ctx context.Context, idx int, item int) (int, error) { return item, nil }
			stopped, err := ForEachOrdered(context.Background(), workers, nil, failAfter(3, f.panics), probe,
				func(idx int, r int) (bool, error) { return idx < 1, nil })
			if err != nil || !stopped {
				t.Fatalf("%s workers=%d: stopped=%v err=%v, want clean stop", f.name, workers, stopped, err)
			}
		}
	}
}

func TestSearchCancelsProbesAboveStop(t *testing.T) {
	// Once the search has reached its stop (a hit at k, or a consumer
	// that stops at k), every probe still in flight lies above it and
	// must be cancelled, not run to completion. Probes above k block
	// until their context is done, with a 10 s fallback; with several
	// workers the probe at k waits until one of them has started, so
	// one is surely in flight at the stop. The search must return
	// within 1 s with the sequential loop's outcome: a cancelled
	// probe's context error never becomes the result.
	const (
		k        = 5
		fallback = 10 * time.Second
		bound    = time.Second
	)
	type result struct {
		index int // the hit, or the last candidate consumed
		done  bool
		err   error
	}
	// probeAt returns the probe's error for candidate item under a
	// search at the given worker count.
	probeAt := func(workers int) func(ctx context.Context, item int) error {
		above := make(chan struct{})
		var once sync.Once
		return func(ctx context.Context, item int) error {
			switch {
			case item == k && workers > 1:
				select {
				case <-above:
				case <-time.After(fallback):
				}
			case item > k:
				once.Do(func() { close(above) })
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(fallback):
				}
			}
			return nil
		}
	}
	searches := []struct {
		name string
		run  func(workers int) result
	}{
		{"FirstHit", func(workers int) result {
			probe := probeAt(workers)
			hit, found, err := FirstHit(context.Background(), workers, nil, intRange(64),
				func(ctx context.Context, idx int, item int) (int, bool, error) {
					err := probe(ctx, item)
					return item, item == k, err
				})
			return result{hit.Index, found, err}
		}},
		{"ForEachOrdered", func(workers int) result {
			probe := probeAt(workers)
			last := -1
			stopped, err := ForEachOrdered(context.Background(), workers, nil, intRange(64),
				func(ctx context.Context, idx int, item int) (int, error) {
					return item, probe(ctx, item)
				},
				func(idx int, v int) (bool, error) {
					last = idx
					return v < k, nil
				})
			return result{last, stopped, err}
		}},
	}
	for _, s := range searches {
		want := s.run(1)
		if want != (result{index: k, done: true}) {
			t.Fatalf("%s workers=1: %+v, want a stop at %d", s.name, want, k)
		}
		for _, workers := range []int{2, 8} {
			start := time.Now()
			got := s.run(workers)
			if elapsed := time.Since(start); elapsed > bound {
				t.Errorf("%s workers=%d: returned after %v, want within %v", s.name, workers, elapsed, bound)
			}
			if got != want {
				t.Errorf("%s workers=%d: %+v, want %+v", s.name, workers, got, want)
			}
		}
	}
}
