package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"relcomplete/internal/ctable"
	"relcomplete/internal/fault"
	"relcomplete/internal/relation"
	"relcomplete/internal/search"
)

// Robustness suite: deadline propagation, panic containment and the
// deterministic fault-injection harness. The invariant under test is
// the graceful-degradation contract — a decider under injected faults,
// cancellation or panics returns either the fault-free verdict or a
// typed error (DeadlineError, BudgetError, ErrInjected, PanicError),
// never a wrong answer, a deadlock or a leaked goroutine.

// assertNoGoroutineLeak polls until the goroutine count returns to the
// baseline (plus slack for the runtime's own background goroutines),
// failing with a full stack dump if it does not settle.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, base, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runContained invokes fn with panic capture: injected panics on the
// sequential (non-search) paths propagate to the caller by design, and
// the chaos suite must treat them as contained typed failures.
func runContained[T any](fn func() (T, error)) (v T, err error, panicked any) {
	defer func() {
		if r := recover(); r != nil {
			panicked = r
		}
	}()
	v, err = fn()
	return v, err, nil
}

// chaosAcceptable reports whether err is a typed failure the chaos
// contract allows instead of the fault-free outcome.
func chaosAcceptable(err error) bool {
	if errors.Is(err, fault.ErrInjected) {
		return true
	}
	var pe *search.PanicError
	if errors.As(err, &pe) {
		_, isInjected := pe.Recovered.(fault.PanicValue)
		return isInjected
	}
	return errors.Is(err, ErrBudget) || errors.Is(err, ErrInconclusive) || errors.Is(err, ErrDeadline)
}

// chaosSeeds is the fixed seed matrix; RELCOMPLETE_CHAOS_SEED adds one
// more for reproducing a CI failure locally.
func chaosSeeds(t *testing.T) []int64 {
	seeds := []int64{11, 29, 53}
	if s := os.Getenv("RELCOMPLETE_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("RELCOMPLETE_CHAOS_SEED: %v", err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// TestChaosCorrectVerdictOrTypedError decides random problems under
// each seed's fault plan in two passes: a cold one, on fresh problems
// whose memos fill under the faults, and a warm one, on problems that
// decided fault-free first. Every decide must return the fault-free
// verdict or a typed error. After the cold pass its problems decide
// again fault-free and must return the fault-free verdicts exactly: no
// memo keeps what a fault left behind.
func TestChaosCorrectVerdictOrTypedError(t *testing.T) {
	base := runtime.NumGoroutine()
	const seed, n = 909, 12
	deciders := []struct {
		name   string
		decide func(p *Problem, ci *ctable.CInstance) (string, error)
	}{
		{"rcdp_strong", func(p *Problem, ci *ctable.CInstance) (string, error) {
			ok, err := p.RCDP(ci, Strong)
			return fmt.Sprint(ok), err
		}},
		{"rcdp_weak", func(p *Problem, ci *ctable.CInstance) (string, error) {
			ok, err := p.RCDP(ci, Weak)
			return fmt.Sprint(ok), err
		}},
		{"rcdp_viable", func(p *Problem, ci *ctable.CInstance) (string, error) {
			ok, err := p.RCDP(ci, Viable)
			return fmt.Sprint(ok), err
		}},
		{"minp_strong", func(p *Problem, ci *ctable.CInstance) (string, error) {
			ok, err := p.MINP(ci, Strong)
			return fmt.Sprint(ok), err
		}},
		{"certain", func(p *Problem, ci *ctable.CInstance) (string, error) {
			ans, err := p.CertainAnswers(ci)
			return fmt.Sprint(ans), err
		}},
	}

	// Fault-free baselines, sequential (the reference execution).
	type verdict struct {
		out string
		err error
	}
	warm := randomProblems(t, seed, n)
	baseline := make([][]verdict, len(warm))
	for i, rp := range warm {
		baseline[i] = make([]verdict, len(deciders))
		for j, d := range deciders {
			out, err := d.decide(rp.p, rp.ci)
			baseline[i][j] = verdict{out: out, err: err}
		}
	}

	decideAll := func(pass string, probs []randomProblem, plan *fault.Plan) {
		for i, rp := range probs {
			rp.p.Options.FaultPlan = plan
			rp.p.Options.Parallelism = parWorkers
			for j, d := range deciders {
				label := fmt.Sprintf("%s case %d %s", pass, i, d.name)
				want := baseline[i][j]
				got, err, panicked := runContained(func() (string, error) { return d.decide(rp.p, rp.ci) })
				switch {
				case panicked != nil:
					// A panic that escaped the decider must be the
					// injected one, propagated from a sequential path.
					if _, isInjected := panicked.(fault.PanicValue); !isInjected || plan == nil {
						t.Fatalf("%s: foreign panic %v", label, panicked)
					}
				case err != nil:
					if plan != nil && chaosAcceptable(err) {
						break
					}
					// The fault-free error (e.g. ErrInconsistent) may
					// survive injection unchanged.
					if want.err != nil && errors.Is(err, ErrInconsistent) && errors.Is(want.err, ErrInconsistent) {
						break
					}
					t.Fatalf("%s: untyped error %v (baseline %v)", label, err, want.err)
				default:
					if want.err != nil {
						t.Fatalf("%s: clean verdict %s but baseline errored with %v", label, got, want.err)
					}
					if got != want.out {
						t.Fatalf("%s: verdict %s, fault-free %s", label, got, want.out)
					}
				}
			}
			rp.p.Options.FaultPlan = nil
			rp.p.Options.Parallelism = 0
		}
	}
	defer relation.SetFaultPlan(nil)
	for _, s := range chaosSeeds(t) {
		plan := fault.Chaos(s)
		relation.SetFaultPlan(plan)
		cold := randomProblems(t, seed, n)
		decideAll(fmt.Sprintf("seed %d cold", s), cold, plan)
		decideAll(fmt.Sprintf("seed %d warm", s), warm, plan)
		relation.SetFaultPlan(nil)
		decideAll(fmt.Sprintf("seed %d fault-free after the cold pass", s), cold, nil)
	}
	assertNoGoroutineLeak(t, base)
}

func TestInjectedWorkerPanicContained(t *testing.T) {
	// A panic on every model probe must surface as a *search.PanicError
	// wrapping the injected PanicValue, at any worker count, with the
	// pool fully drained.
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, parWorkers} {
		plan := fault.NewPlan(fault.Rule{Site: fault.SiteSearchWorker, Kind: fault.KindPanic})
		hit := false
		for i, rp := range randomProblems(t, 911, 8) {
			rp.p.Options.FaultPlan = plan
			rp.p.Options.Parallelism = workers
			_, err := rp.p.Consistent(rp.ci)
			rp.p.Options.FaultPlan = nil
			rp.p.Options.Parallelism = 0
			if err == nil {
				t.Fatalf("workers=%d case %d: no error despite a panicking probe", workers, i)
			}
			var pe *search.PanicError
			if errors.As(err, &pe) {
				if _, isInjected := pe.Recovered.(fault.PanicValue); !isInjected {
					t.Fatalf("workers=%d case %d: recovered %v, want the injected PanicValue", workers, i, pe.Recovered)
				}
				hit = true
				continue
			}
			// A problem whose candidate enumeration is empty fails with
			// ErrInconsistent before any probe runs.
			if !errors.Is(err, ErrInconsistent) {
				t.Fatalf("workers=%d case %d: %v", workers, i, err)
			}
		}
		if !hit {
			t.Fatalf("workers=%d: no instance exercised the panicking probe", workers)
		}
	}
	assertNoGoroutineLeak(t, base)
}

func TestInjectedEvalErrorIsTyped(t *testing.T) {
	// An error injected at the eval layer must reach the caller still
	// unwrapping to ErrInjected — no decider swallows or rewraps it
	// into a verdict.
	plan := fault.NewPlan(fault.Rule{Site: fault.SiteEvalAnswers, Kind: fault.KindError})
	found := false
	for i, rp := range randomProblems(t, 915, 8) {
		rp.p.Options.FaultPlan = plan
		_, err := rp.p.RCDP(rp.ci, Strong)
		rp.p.Options.FaultPlan = nil
		if err == nil {
			t.Fatalf("case %d: no error despite eval faults on every call", i)
		}
		if errors.Is(err, fault.ErrInjected) {
			found = true
			continue
		}
		if !errors.Is(err, ErrInconsistent) {
			t.Fatalf("case %d: untyped error %v", i, err)
		}
	}
	if !found {
		t.Fatal("no instance surfaced the injected eval error")
	}
}

func TestRelationProbeFaultDegradesGracefully(t *testing.T) {
	// An injected index-probe error demotes lookups to scans; verdicts
	// must be unchanged.
	probs := randomProblems(t, 916, 10)
	type verdict struct {
		ok  bool
		err error
	}
	baselines := make([]verdict, len(probs))
	for i, rp := range probs {
		ok, err := rp.p.RCDP(rp.ci, Weak)
		baselines[i] = verdict{ok: ok, err: err}
	}
	relation.SetFaultPlan(fault.NewPlan(fault.Rule{Site: fault.SiteRelationProbe, Kind: fault.KindError}))
	defer relation.SetFaultPlan(nil)
	for i, rp := range probs {
		ok, err := rp.p.RCDP(rp.ci, Weak)
		if (err == nil) != (baselines[i].err == nil) || (err == nil && ok != baselines[i].ok) {
			t.Fatalf("case %d: verdict (%v, %v) under probe faults, fault-free (%v, %v)",
				i, ok, err, baselines[i].ok, baselines[i].err)
		}
	}
}

func TestCancelledContextDeterministicAcrossWorkers(t *testing.T) {
	// A pre-cancelled context yields the same typed error — same
	// dynamic type, same op, same sentinels — at workers 1 and 8.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, rp := range randomProblems(t, 910, 10) {
		for _, workers := range []int{1, parWorkers} {
			rp.p.Options.Parallelism = workers
			_, err := rp.p.ConsistentCtx(ctx, rp.ci)
			rp.p.Options.Parallelism = 0
			var de *DeadlineError
			if !errors.As(err, &de) {
				t.Fatalf("case %d workers=%d: want DeadlineError, got %v", i, workers, err)
			}
			if de.Op != "consistency" {
				t.Fatalf("case %d workers=%d: op %q, want consistency", i, workers, de.Op)
			}
			if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
				t.Fatalf("case %d workers=%d: sentinels missing from %v", i, workers, err)
			}
		}
	}
}

func TestMidflightCancellationNoWrongAnswerNoLeak(t *testing.T) {
	// Cancel concurrently with a workers=8 decision: the decider must
	// return either the fault-free verdict (it won the race) or a
	// DeadlineError — and every goroutine must drain either way.
	base := runtime.NumGoroutine()
	probs := randomProblems(t, 912, 15)
	type verdict struct {
		ok  bool
		err error
	}
	baselines := make([]verdict, len(probs))
	for i, rp := range probs {
		ok, err := rp.p.RCDP(rp.ci, Weak)
		baselines[i] = verdict{ok: ok, err: err}
	}
	for i, rp := range probs {
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(time.Duration(i*37) * time.Microsecond)
		rp.p.Options.Parallelism = parWorkers
		ok, err := rp.p.RCDPCtx(ctx, rp.ci, Weak)
		rp.p.Options.Parallelism = 0
		cancel()
		want := baselines[i]
		switch {
		case err == nil:
			if want.err != nil || ok != want.ok {
				t.Fatalf("case %d: verdict (%v, nil) under cancellation, fault-free (%v, %v)", i, ok, want.ok, want.err)
			}
		case errors.Is(err, ErrDeadline):
			// Cancellation won; the verdict stays unknown.
		case want.err != nil && errors.Is(err, ErrInconsistent) && errors.Is(want.err, ErrInconsistent):
			// Inconsistency detected before the cancel landed.
		default:
			t.Fatalf("case %d: unexpected error %v (baseline %v)", i, err, want.err)
		}
	}
	assertNoGoroutineLeak(t, base)
}

func TestDeadlineErrorDetail(t *testing.T) {
	rp := randomProblems(t, 913, 5)[0]

	// Cancellation: the cause sentinel is context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rp.p.ConsistentCtx(ctx, rp.ci)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlineError, got %v", err)
	}
	if de.Op != "consistency" || de.Partial == "" {
		t.Fatalf("incomplete detail: op=%q partial=%q", de.Op, de.Partial)
	}
	if !errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wrong cause in %v", err)
	}

	// Expired deadline: the cause sentinel is DeadlineExceeded.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	_, err = rp.p.ConsistentCtx(ctx2, rp.ci)
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlineError, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wrong cause in %v", err)
	}
}

func TestContextFreeWrappersUnaffected(t *testing.T) {
	// The context-free methods are thin Background delegates: no
	// deadline machinery may engage, whatever the outcome.
	for i, rp := range randomProblems(t, 914, 10) {
		for _, m := range []Model{Strong, Weak, Viable} {
			_, err := rp.p.RCDP(rp.ci, m)
			if err != nil && errors.Is(err, ErrDeadline) {
				t.Fatalf("case %d model %s: deadline error without a deadline: %v", i, m, err)
			}
		}
	}
}
