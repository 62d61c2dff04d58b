package main

import (
	"encoding/json"
	"fmt"

	"relcomplete/internal/server"
)

// template is one kind of decide request a workload sends: a property
// and model, optionally with the per-request overrides that make the
// server rebuild the problem instead of using the resident one.
type template struct {
	Property string
	Model    string
	Budget   bool   // budget-only override: caps far above what any decide uses
	Query    string // query override
}

// name is the template's label in the oracle table and the traces.
func (t template) name() string {
	n := t.Property
	if t.Model != "" {
		n += "_" + t.Model
	}
	switch {
	case t.Query != "":
		n += "+query"
	case t.Budget:
		n += "+budget"
	}
	return n
}

// overrides reports whether the server rebuilds the problem for t.
func (t template) overrides() bool { return t.Budget || t.Query != "" }

// coreName names the decider a template reaches, as in the per-layer
// metric core.<name>_us.
func (t template) coreName() string {
	if t.Model != "" {
		return t.Property + "_" + t.Model
	}
	return t.Property
}

func (t template) request() server.DecideRequest {
	req := server.DecideRequest{Property: t.Property, Model: t.Model, Query: t.Query}
	if t.Budget {
		req.Budget = &server.BudgetRequest{MaxValuations: 1 << 20, MaxSubsets: 1 << 20}
	}
	return req
}

func (t template) body() []byte {
	b, err := json.Marshal(t.request())
	if err != nil {
		panic(err) // a DecideRequest holds only strings, ints and a pointer
	}
	return b
}

// workload is one traffic mix: a fixed tenant population (the shape of
// each tenant's documents), how requests spread over the tenants, and
// which requests they are.
type workload struct {
	Name string
	Why  string
	// Tenants fixes each tenant's document shape; the seed draws the
	// contents (see docSpec).
	Tenants []docSpec
	// Versions is how many document versions each tenant has; a PUT
	// replaces a tenant's document with its next version, cyclically.
	Versions int
	// Zipf is the popularity exponent over tenants (0 = uniform).
	Zipf float64
	// Templates are the decide requests, drawn uniformly.
	Templates []template
	// PutFrac is the share of operations that are PUTs.
	PutFrac float64
	// Durable runs the server with a write-ahead log, as rcserved
	// -data-dir does: every PUT is appended and fsynced before its ack.
	Durable bool
	// Rate is the open-loop arrival rate of a traced run in requests per
	// second, frozen at 40% of the median closed-loop capacity (sat_rps)
	// of the baseline runs (see bench/README.md).
	Rate float64
}

// The six deciders a resident problem serves cheaply on tiny tenants.
var residentMix = []template{
	{Property: "consistency"},
	{Property: "rcdp", Model: "strong"},
	{Property: "rcdp", Model: "weak"},
	{Property: "certain"},
	{Property: "minp", Model: "strong"},
	{Property: "rcqp", Model: "strong"},
}

// overrideQueries replace the document's query on override_rebuild.
// They name no constant, so they are valid for every tenant.
var overrideQueries = []string{
	"Q(i) := Order(i, q)",
	"Q(i, q) := Order(i, q)",
	"Q(q) := Order(i, q)",
}

func overrideMix() []template {
	// Two thirds budget-only, one third query overrides, each over the
	// two deciders whose own cost is small next to the rebuild.
	var ts []template
	for i := 0; i < 2*len(overrideQueries); i++ {
		ts = append(ts,
			template{Property: "consistency", Budget: true},
			template{Property: "certain", Budget: true})
	}
	for _, q := range overrideQueries {
		ts = append(ts,
			template{Property: "consistency", Query: q},
			template{Property: "certain", Query: q})
	}
	return ts
}

func hotSmallTenants() []docSpec {
	ts := make([]docSpec, 64)
	for i := range ts {
		covered := 2 + i%2
		ts[i] = docSpec{Catalogue: 5 + i*45/63, Qty: 3, Covered: covered, Other: i % 6, Vars: 1}
	}
	return ts
}

// heavyTenants cover every quantity of their target: on a tenant that
// misses one, weak RCDP's parallel extension scan sometimes runs to the
// end (about 40 times the cost) depending on which worker finishes
// first, and that lottery would swamp the workload's spread.
func heavyTenants() []docSpec {
	ts := make([]docSpec, 4)
	for i := range ts {
		ts[i] = docSpec{Catalogue: 300, Qty: 4, Covered: 4, Other: 46, Vars: 2}
	}
	return ts
}

func overrideTenants() []docSpec {
	ts := make([]docSpec, 4)
	for i := range ts {
		ts[i] = docSpec{Catalogue: 2000, ItemLen: 24, Qty: 4, Covered: 4 - i%2, Other: 4, Vars: 1}
	}
	return ts
}

func churnTenants() []docSpec {
	ts := make([]docSpec, 128)
	for i := range ts {
		ts[i] = docSpec{Catalogue: 50 + i*450/127, ItemLen: 16, Qty: 3, Covered: 2 + i%2, Other: 8, Vars: 1}
	}
	return ts
}

// workloads lists the benchmark's traffic mixes, in run order.
var workloads = []*workload{
	{
		Name:      "hot_small",
		Why:       "64 tiny tenants, zipf popularity, six cheap deciders on resident problems: per-request server cost (HTTP, DTO, stats snapshot, encode) dominates",
		Tenants:   hotSmallTenants(),
		Versions:  1,
		Zipf:      1.1,
		Templates: residentMix,
		Rate:      1080,
	},
	{
		Name:      "override_rebuild",
		Why:       "every decide overrides budget or query, so each one rebuilds a 2000-row string-heavy problem; the only workload on that path",
		Tenants:   overrideTenants(),
		Versions:  1,
		Templates: overrideMix(),
		Rate:      88,
	},
	{
		Name:    "heavy_search",
		Why:     "300-item catalogue, 50 rows, 2 variables: the deciders, evaluator and search take nearly all handler time, so server overhead changes should not show",
		Tenants: heavyTenants(),
		Templates: []template{
			{Property: "rcdp", Model: "strong"},
			{Property: "rcdp", Model: "weak"},
			{Property: "certain"},
			{Property: "minp", Model: "strong"},
		},
		Versions: 1,
		Rate:     152,
	},
	{
		Name:     "churn_write",
		Why:      "128 tenants, 20% PUTs of a next document version through a fsynced WAL beside decides: write path and cold caches after replace",
		Tenants:  churnTenants(),
		Versions: 4,
		Templates: []template{
			{Property: "consistency"},
			{Property: "rcdp", Model: "strong"},
			{Property: "certain"},
		},
		PutFrac: 0.2,
		Durable: true,
		Rate:    547,
	},
}

// spec is a tenant's document shape at one version. Odd versions flip
// whether all of the target's quantities are covered, so a replace
// flips the strong-RCDP verdict and the certain answers, and a decide
// answered from the wrong version is caught.
func (w *workload) spec(tenant, version int) docSpec {
	s := w.Tenants[tenant]
	if version%2 == 1 {
		if s.Covered == s.Qty {
			s.Covered--
		} else {
			s.Covered = s.Qty
		}
	}
	return s
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
