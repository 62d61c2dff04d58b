package core_test

import (
	"errors"
	"testing"

	"relcomplete/internal/core"
	"relcomplete/internal/probjson"
)

// finiteColumnDoc is strong RCQP over R(a, b, c), b in {0, 1}, whose
// CC bounds a by a six-row master. Q's head variable c is bounded by no
// finite domain or CC, so RCQP runs the satisfiability check, and no
// valuation satisfies V because 'zz' is no master value: the check
// enumerates every valuation of the tableau's variables y and c.
const finiteColumnDoc = `{
  "schema": {"relations": [{"name": "R", "attrs": [{"name": "a"}, {"name": "b", "domain": ["0", "1"]}, {"name": "c"}]}]},
  "master": {"relations": [{"name": "M", "attrs": [{"name": "a"}]}],
             "rows": {"M": [["m1"], ["m2"], ["m3"], ["m4"], ["m5"], ["m6"]]}},
  "ccs": [{"name": "a_bound", "left": "q(a) := R(a, b, c)", "right": "p(a) := M(a)"}],
  "query": {"calc": "Q(c) := R(x, y, c) & x = 'zz'"},
  "cinstance": {"rows": []}
}`

// TestRCQPSatisfiabilityRangesFiniteColumns pins the valuations RCQP's
// satisfiability check needs on finiteColumnDoc: y ranges over its
// column's two values and c over the 13-value Adom, 26 valuations, so
// the check passes under MaxValuations 26 and fails under 25. Giving y
// the whole Adom too needed 169.
func TestRCQPSatisfiabilityRangesFiniteColumns(t *testing.T) {
	for _, c := range []struct {
		limit  int
		budget bool
	}{{25, true}, {26, false}} {
		p, _, err := probjson.Decode([]byte(finiteColumnDoc))
		if err != nil {
			t.Fatal(err)
		}
		p.Options.Parallelism = 1
		p.Options.MaxValuations = c.limit
		ok, err := p.RCQP(core.Strong)
		if got := errors.Is(err, core.ErrBudget); got != c.budget {
			t.Fatalf("MaxValuations %d: RCQP = %v, %v; budget error %v, want %v", c.limit, ok, err, got, c.budget)
		}
		if !c.budget && (err != nil || !ok) {
			t.Errorf("MaxValuations %d: RCQP = %v, %v; want true (Q is unsatisfiable under V)", c.limit, ok, err)
		}
	}
}
