package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/probjson"
)

// modelScans are the entry points that scan ModAdom(T, Dm, V), each
// rendering its result as a string.
var modelScans = []struct {
	name   string
	decide func(p *core.Problem, ci *ctable.CInstance) (string, error)
}{
	{"consistency", func(p *core.Problem, ci *ctable.CInstance) (string, error) {
		ok, err := p.Consistent(ci)
		return fmt.Sprint(ok), err
	}},
	{"any_model", func(p *core.Problem, ci *ctable.CInstance) (string, error) {
		db, err := p.AnyModel(ci)
		return fmt.Sprint(db), err
	}},
	{"models", func(p *core.Problem, ci *ctable.CInstance) (string, error) {
		dbs, err := p.Models(ci, 0)
		parts := make([]string, len(dbs))
		for i, db := range dbs {
			parts[i] = db.String()
		}
		return strings.Join(parts, " | "), err
	}},
	{"rcdp_strong", func(p *core.Problem, ci *ctable.CInstance) (string, error) {
		ok, cex, err := p.RCDPExplain(ci, core.Strong)
		return fmt.Sprint(ok, " ", cex), err
	}},
	{"rcdp_viable", func(p *core.Problem, ci *ctable.CInstance) (string, error) {
		ok, cex, err := p.RCDPExplain(ci, core.Viable)
		return fmt.Sprint(ok, " ", cex), err
	}},
	{"rcdp_weak", func(p *core.Problem, ci *ctable.CInstance) (string, error) {
		ok, err := p.RCDP(ci, core.Weak)
		return fmt.Sprint(ok), err
	}},
	{"minp_strong", func(p *core.Problem, ci *ctable.CInstance) (string, error) {
		ok, err := p.MINP(ci, core.Strong)
		return fmt.Sprint(ok), err
	}},
	{"minp_viable", func(p *core.Problem, ci *ctable.CInstance) (string, error) {
		ok, err := p.MINP(ci, core.Viable)
		return fmt.Sprint(ok), err
	}},
	{"certain", func(p *core.Problem, ci *ctable.CInstance) (string, error) {
		ans, err := p.CertainAnswers(ci)
		return fmt.Sprint(ans), err
	}},
	{"certain_of_extensions", func(p *core.Problem, ci *ctable.CInstance) (string, error) {
		ans, anyExt, err := p.CertainAnswersOfExtensions(ci)
		return fmt.Sprint(ans, " ", anyExt), err
	}},
}

// TestModelScanBudgetPrecedence decides every ModAdom scan on
// counterDoc and heavySearchDocument under MaxValuations 1 to 40. An
// enumeration that runs out of budget fails the scan only when no
// decisive candidate comes before the failure, as in the sequential
// loop, so at every cap Parallelism 2 returns exactly what
// Parallelism 1 returns, result and error. Below the pinned cap each
// scan fails with a BudgetError; from it on (0: at no cap up to 40) it
// returns what the unlimited scan returns.
func TestModelScanBudgetPrecedence(t *testing.T) {
	const maxCap = 40
	docs := []struct {
		name  string
		doc   []byte
		first map[string]int // the smallest cap that returns a result
	}{
		{"counterDoc", []byte(counterDoc), map[string]int{
			"consistency": 9, "any_model": 9, "models": 0,
			"rcdp_strong": 0, "rcdp_viable": 9, "rcdp_weak": 13,
			"minp_strong": 0, "minp_viable": 0,
			"certain": 9, "certain_of_extensions": 13,
		}},
		{"heavySearchDocument", heavySearchDocument(), map[string]int{
			"consistency": 1, "any_model": 1, "models": 16,
			"rcdp_strong": 16, "rcdp_viable": 4, "rcdp_weak": 16,
			"minp_strong": 16, "minp_viable": 16,
			"certain": 16, "certain_of_extensions": 0,
		}},
	}
	for _, d := range docs {
		p, ci, err := probjson.Decode(d.doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range modelScans {
			label := d.name + " " + s.name
			want, err := s.decide(p.WithOptions(core.Options{Parallelism: 1}), ci)
			if err != nil {
				t.Fatalf("%s unlimited: %v", label, err)
			}
			first := 0
			for limit := 1; limit <= maxCap; limit++ {
				var got [2]string
				var errs [2]error
				for i, workers := range []int{1, 2} {
					v := p.WithOptions(core.Options{MaxValuations: limit, Parallelism: workers})
					got[i], errs[i] = s.decide(v, ci)
				}
				if got[0] != got[1] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
					t.Fatalf("%s MaxValuations %d: Parallelism 1 returns %q, %v; Parallelism 2 returns %q, %v",
						label, limit, got[0], errs[0], got[1], errs[1])
				}
				var be *core.BudgetError
				switch {
				case errs[0] == nil && first == 0:
					first = limit
					fallthrough
				case errs[0] == nil:
					if got[0] != want {
						t.Fatalf("%s MaxValuations %d: %q, want the unlimited %q", label, limit, got[0], want)
					}
				case !errors.As(errs[0], &be):
					t.Fatalf("%s MaxValuations %d: %v, want a result or a BudgetError", label, limit, errs[0])
				case first != 0:
					t.Fatalf("%s MaxValuations %d: %v after a result at %d", label, limit, errs[0], first)
				}
			}
			if first != d.first[s.name] {
				t.Errorf("%s: first result at MaxValuations %d, want %d", label, first, d.first[s.name])
			}
		}
	}
}
