package core_test

import (
	"testing"

	"relcomplete/internal/core"
	"relcomplete/internal/paperex"
	"relcomplete/internal/query"
)

// The compact Adom and typed candidates equal the set-based
// construction on every query of both scenarios of the running example.
func TestDomainsMatchSetConstructionOnPaperex(t *testing.T) {
	for _, sc := range []*paperex.Scenario{paperex.Full(), paperex.Reduced()} {
		for _, q := range []*query.Query{sc.Q1, sc.Q2, sc.Q4} {
			p, err := sc.Problem(q, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			core.CheckDomainsAgainstSets(t, p, sc.T)
			core.CheckDomainsAgainstSets(t, p, nil)
		}
	}
}
