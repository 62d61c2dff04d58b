package core

import (
	"errors"
	"fmt"
	"testing"
)

// Parallel equivalence: every decider must return bit-identical
// results at Parallelism: 1 (the exact sequential code path) and
// Parallelism: N. The searches dispatch candidates in enumeration
// order and accept only the lowest-index decisive outcome (see
// internal/search), so this holds not just for verdicts but for the
// counterexamples and certain-answer slices too.

const parWorkers = 8

// atWorkers runs fn twice on the same problem, first sequentially then
// with the worker pool, and hands both results to compare.
func atWorkers[R any](t *testing.T, p *Problem, fn func() (R, error)) (seq R, seqErr error, par R, parErr error) {
	t.Helper()
	p.Options.Parallelism = 1
	seq, seqErr = fn()
	p.Options.Parallelism = parWorkers
	par, parErr = fn()
	p.Options.Parallelism = 0
	return seq, seqErr, par, parErr
}

func sameErr(t *testing.T, label string, seqErr, parErr error) {
	t.Helper()
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("%s: sequential err %v, parallel err %v", label, seqErr, parErr)
	}
	if seqErr != nil && seqErr.Error() != parErr.Error() {
		t.Fatalf("%s: error text diverged:\n  seq: %v\n  par: %v", label, seqErr, parErr)
	}
}

func TestParallelRCDPMatchesSequential(t *testing.T) {
	for i, rp := range randomProblems(t, 301, 80) {
		for _, m := range []Model{Strong, Weak, Viable} {
			label := fmt.Sprintf("case %d model %s", i, m)
			type res struct {
				ok  bool
				cex string
			}
			seq, seqErr, par, parErr := atWorkers(t, rp.p, func() (res, error) {
				ok, cex, err := rp.p.RCDPExplain(rp.ci, m)
				return res{ok: ok, cex: cex.String()}, err
			})
			sameErr(t, label, seqErr, parErr)
			if seq != par {
				t.Fatalf("%s: sequential %+v, parallel %+v", label, seq, par)
			}
		}
	}
}

func TestParallelCertainAnswersMatchSequential(t *testing.T) {
	for i, rp := range randomProblems(t, 302, 60) {
		label := fmt.Sprintf("case %d", i)
		seq, seqErr, par, parErr := atWorkers(t, rp.p, func() (string, error) {
			ans, err := rp.p.CertainAnswers(rp.ci)
			return fmt.Sprint(ans), err
		})
		sameErr(t, label, seqErr, parErr)
		if seq != par {
			t.Fatalf("%s: sequential %s, parallel %s (order included)", label, seq, par)
		}
	}
}

func TestParallelCertainExtensionsMatchSequential(t *testing.T) {
	for i, rp := range randomProblems(t, 303, 50) {
		label := fmt.Sprintf("case %d", i)
		type res struct {
			ans    string
			anyExt bool
		}
		seq, seqErr, par, parErr := atWorkers(t, rp.p, func() (res, error) {
			ans, anyExt, err := rp.p.CertainAnswersOfExtensions(rp.ci)
			return res{ans: fmt.Sprint(ans), anyExt: anyExt}, err
		})
		sameErr(t, label, seqErr, parErr)
		if seq != par {
			t.Fatalf("%s: sequential %+v, parallel %+v", label, seq, par)
		}
	}
}

func TestParallelMINPMatchesSequential(t *testing.T) {
	for i, rp := range randomProblems(t, 304, 40) {
		for _, m := range []Model{Strong, Weak, Viable} {
			label := fmt.Sprintf("case %d model %s", i, m)
			seq, seqErr, par, parErr := atWorkers(t, rp.p, func() (bool, error) {
				return rp.p.MINP(rp.ci, m)
			})
			if errors.Is(seqErr, ErrInconsistent) && errors.Is(parErr, ErrInconsistent) {
				continue
			}
			sameErr(t, label, seqErr, parErr)
			if seq != par {
				t.Fatalf("%s: sequential %v, parallel %v", label, seq, par)
			}
		}
	}
}

func TestParallelConsistentMatchesSequential(t *testing.T) {
	for i, rp := range randomProblems(t, 305, 60) {
		scans := []struct {
			name string
			scan func() (string, error)
		}{
			{"consistency", func() (string, error) {
				ok, err := rp.p.Consistent(rp.ci)
				return fmt.Sprint(ok), err
			}},
			{"any model", func() (string, error) {
				db, err := rp.p.AnyModel(rp.ci)
				return fmt.Sprint(db), err
			}},
			{"all models", func() (string, error) {
				dbs, err := rp.p.Models(rp.ci, 0)
				return fmt.Sprint(dbs), err
			}},
			{"one model", func() (string, error) {
				dbs, err := rp.p.Models(rp.ci, 1)
				return fmt.Sprint(dbs), err
			}},
		}
		for _, s := range scans {
			label := fmt.Sprintf("case %d %s", i, s.name)
			seq, seqErr, par, parErr := atWorkers(t, rp.p, s.scan)
			sameErr(t, label, seqErr, parErr)
			if seq != par {
				t.Fatalf("%s: sequential %v, parallel %v", label, seq, par)
			}
		}
	}
}

func TestParallelRCQPMatchesSequential(t *testing.T) {
	for i, rp := range randomProblems(t, 306, 30) {
		for _, m := range []Model{Strong, Viable} {
			label := fmt.Sprintf("case %d model %s", i, m)
			seq, seqErr, par, parErr := atWorkers(t, rp.p, func() (bool, error) {
				return rp.p.RCQP(m)
			})
			if errors.Is(seqErr, ErrInconclusive) && errors.Is(parErr, ErrInconclusive) {
				continue
			}
			sameErr(t, label, seqErr, parErr)
			if seq != par {
				t.Fatalf("%s: sequential %v, parallel %v", label, seq, par)
			}
		}
	}
}

func TestParallelOracleMatchesSequential(t *testing.T) {
	for i, rp := range randomProblems(t, 307, 25) {
		for _, m := range []Model{Strong, Weak, Viable} {
			label := fmt.Sprintf("case %d model %s", i, m)
			seq, seqErr, par, parErr := atWorkers(t, rp.p, func() (bool, error) {
				return rp.p.ReferenceRCDP(rp.ci, m, 2)
			})
			if errors.Is(seqErr, ErrInconsistent) && errors.Is(parErr, ErrInconsistent) {
				continue
			}
			sameErr(t, label, seqErr, parErr)
			if seq != par {
				t.Fatalf("%s: sequential %v, parallel %v", label, seq, par)
			}
		}
	}
}

// TestParallelCounterexampleDeterministic re-runs failing RCDPs at
// workers=N: the counterexample must be the same object on every run
// (the lowest-index decisive candidate, regardless of scheduling).
func TestParallelCounterexampleDeterministic(t *testing.T) {
	var failing []randomProblem
	for _, rp := range randomProblems(t, 308, 60) {
		rp.p.Options.Parallelism = 1
		ok, cex, err := rp.p.RCDPExplain(rp.ci, Strong)
		rp.p.Options.Parallelism = 0
		if err == nil && !ok && cex != nil {
			failing = append(failing, rp)
		}
		if len(failing) >= 5 {
			break
		}
	}
	if len(failing) == 0 {
		t.Fatal("no failing RCDP instance found; weaken the corpus filter")
	}
	for i, rp := range failing {
		rp.p.Options.Parallelism = parWorkers
		var first string
		for run := 0; run < 6; run++ {
			_, cex, err := rp.p.RCDPExplain(rp.ci, Strong)
			if err != nil {
				t.Fatal(err)
			}
			s := cex.String()
			if run == 0 {
				first = s
			} else if s != first {
				t.Fatalf("case %d run %d: counterexample changed:\n  first: %s\n  now:   %s", i, run, first, s)
			}
		}
		rp.p.Options.Parallelism = 0
	}
}
