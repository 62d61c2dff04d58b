package core

// CheckDomainsAgainstSets exposes checkDomainsAgainstSets to the tests
// over the paper's running example, which live in package core_test
// because internal/paperex imports core.
var CheckDomainsAgainstSets = checkDomainsAgainstSets
