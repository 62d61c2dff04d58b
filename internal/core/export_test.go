package core

import (
	"testing"

	"relcomplete/internal/ctable"
)

// CheckDomainsAgainstSets exposes checkDomainsAgainstSets to the tests
// over the paper's running example, which live in package core_test
// because internal/paperex imports core.
var CheckDomainsAgainstSets = checkDomainsAgainstSets

// CheckDomainsMatchReference exposes checkDomainsMatchReference to the
// parity test, which decodes documents through internal/probjson.
var CheckDomainsMatchReference = checkDomainsMatchReference

// RandomProblemInputs exposes the problems and c-instances of the
// property tests' generators: randomProblems (Boolean domains) and
// randomInfiniteDomainCases (typed, infinite domains).
func RandomProblemInputs(t testing.TB, seed int64, n int) ([]*Problem, []*ctable.CInstance) {
	var ps []*Problem
	var cis []*ctable.CInstance
	for _, rp := range randomProblems(t, seed, n) {
		ps, cis = append(ps, rp.p), append(cis, rp.ci)
	}
	for _, tc := range randomInfiniteDomainCases(t, seed, n) {
		ps, cis = append(ps, tc.typed), append(cis, tc.ci)
	}
	return ps, cis
}
