package core_test

import (
	"testing"

	"relcomplete/internal/core"
	"relcomplete/internal/probjson"
)

// twoTableauDoc is built so that the bounded check meets equal tuples
// in two relations: Q's tableaux R(x) and S(x), tried in that order,
// both pick (b), the only master-bounded value. I ∪ {R(b)} breaks the
// CC forbidding R beside a T row, while I ∪ {S(b)} is partially closed
// and gains the answer b. An extension key that dropped the relation
// would skip the second as already seen and call I complete.
const twoTableauDoc = `{
  "schema": {"relations": [
    {"name": "R", "attrs": [{"name": "a"}]},
    {"name": "S", "attrs": [{"name": "a"}]},
    {"name": "T", "attrs": [{"name": "a"}]}]},
  "master": {
    "relations": [{"name": "M", "attrs": [{"name": "a"}]},
                  {"name": "Mempty", "attrs": [{"name": "a"}]}],
    "rows": {"M": [["b"]]}},
  "ccs": [{"name": "r_bounded", "left": "q(x) := R(x)", "right": "p(x) := M(x)"},
          {"name": "s_bounded", "left": "q(x) := S(x)", "right": "p(x) := M(x)"},
          {"name": "no_r_beside_t", "left": "q(x) := exists y: R(x) & T(y)", "right": "p(x) := Mempty(x)"}],
  "query": {"calc": "Q(x) := S(x) | R(x)"},
  "cinstance": {"rows": [{"rel": "T", "terms": ["z"]}]}
}`

func TestBoundedCheckKeysExtensionsByRelation(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p, ci, err := probjson.Decode([]byte(twoTableauDoc))
		if err != nil {
			t.Fatal(err)
		}
		p.Options.Parallelism = workers
		ok, cex, err := p.RCDPExplain(ci, core.Strong)
		if err != nil {
			t.Fatal(err)
		}
		const want = "model R{}; S{}; T{(z)} extended to R{}; S{(b)}; T{(z)} gains answers [(b)]"
		if ok || cex.String() != want {
			t.Fatalf("workers %d: complete=%v, counterexample %s; want incomplete with %s", workers, ok, cex, want)
		}
	}
}
