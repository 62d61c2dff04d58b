// Package core implements the paper's primary contribution: deciding
// relative information completeness for partially closed c-instances.
//
// It provides the two basic analyses of Proposition 3.3 (consistency
// and extensibility), and the three decision problems RCDP, RCQP and
// MINP in each of the paper's three completeness models — strong, weak
// and viable — for the query languages CQ, UCQ, ∃FO+, FO and FP.
//
// Every decidable cell of the paper's Table I is implemented as an
// exact procedure built on the paper's own small-model
// characterisations (active-domain valuations, Lemmas 4.2/4.3/4.7,
// Lemma 5.2, Lemma 5.7); every undecidable cell returns ErrUndecidable,
// and the paper's open problem (RCQP, weak model, FO, c-instances)
// returns ErrOpen. The procedures are exponential in the worst case —
// they decide Πp2- to Πp4-complete problems — and polynomial in the
// paper's tractable special cases (see internal/tractable).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"relcomplete/internal/adom"
	"relcomplete/internal/cc"
	"relcomplete/internal/ctable"
	"relcomplete/internal/eval"
	"relcomplete/internal/fault"
	"relcomplete/internal/obs"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// Model selects one of the paper's three completeness models.
type Model int

// The completeness models of Section 2.2.
const (
	Strong Model = iota
	Weak
	Viable
)

// String names the model.
func (m Model) String() string {
	switch m {
	case Strong:
		return "strong"
	case Weak:
		return "weak"
	default:
		return "viable"
	}
}

// Lang is the query-language parameter LQ of the decision problems.
type Lang int

// The query languages of the paper.
const (
	CQ Lang = iota
	UCQ
	EFOPlus
	FO
	FP
)

// String names the language as in the paper.
func (l Lang) String() string {
	switch l {
	case CQ:
		return "CQ"
	case UCQ:
		return "UCQ"
	case EFOPlus:
		return "∃FO+"
	case FO:
		return "FO"
	default:
		return "FP"
	}
}

// Sentinel errors.
var (
	// ErrUndecidable marks a (problem, model, language) combination the
	// paper proves undecidable.
	ErrUndecidable = errors.New("relcomplete: problem undecidable for this language and model (Table I)")
	// ErrOpen marks the paper's open problem: RCQP in the weak model
	// for FO over c-instances.
	ErrOpen = errors.New("relcomplete: precise status open (RCQP, weak model, FO, c-instances)")
	// ErrInconsistent is returned when a decider requires Mod(T, Dm, V)
	// to be non-empty (a partially closed c-instance) and it is empty.
	ErrInconsistent = errors.New("relcomplete: c-instance is inconsistent (Mod(T, Dm, V) is empty)")
	// ErrBudget is returned when a configured enumeration or FP
	// fixpoint cap is hit.
	ErrBudget = errors.New("relcomplete: search budget exceeded")
	// ErrInconclusive is returned by the bounded RCQP search when no
	// witness exists within the configured size bound (the general
	// problem is NEXPTIME-complete; see Options.RCQPSizeBound).
	ErrInconclusive = errors.New("relcomplete: no witness within the configured RCQP size bound")
)

// Qry wraps a query of any of the paper's languages: a relational
// calculus query (CQ/UCQ/∃FO+/FO) or an FP program.
type Qry struct {
	Calc *query.Query
	Prog *query.Program
}

// CalcQuery wraps a relational-calculus query.
func CalcQuery(q *query.Query) Qry { return Qry{Calc: q} }

// FPQuery wraps an FP program.
func FPQuery(p *query.Program) Qry { return Qry{Prog: p} }

// Lang returns the smallest language tier containing the query.
func (q Qry) Lang() Lang {
	if q.Prog != nil {
		return FP
	}
	switch query.Classify(q.Calc) {
	case query.ClassCQ:
		return CQ
	case query.ClassUCQ:
		return UCQ
	case query.ClassEFOPlus:
		return EFOPlus
	default:
		return FO
	}
}

// Monotone reports whether the query language guarantees monotonicity.
func (q Qry) Monotone() bool { return q.Lang() != FO }

// Arity returns the query's output arity.
func (q Qry) Arity() int {
	if q.Prog != nil {
		return q.Prog.OutputArity()
	}
	return q.Calc.Arity()
}

// Name returns the query's name for diagnostics.
func (q Qry) Name() string {
	if q.Prog != nil {
		return q.Prog.Name
	}
	return q.Calc.Name
}

// Constants collects the query's constants into dst.
func (q Qry) Constants(dst *relation.ValueSet) *relation.ValueSet {
	if q.Prog != nil {
		return q.Prog.Constants(dst)
	}
	return query.QueryConstants(q.Calc, dst)
}

// String renders the query.
func (q Qry) String() string {
	if q.Prog != nil {
		return q.Prog.String()
	}
	return q.Calc.String()
}

// Options tunes the deciders.
type Options struct {
	// MaxValuations caps each valuation enumeration (0 = unlimited).
	// Enumerations beyond the cap fail with ErrBudget.
	MaxValuations int
	// MaxSubsets caps subset enumerations in the generic weak-model
	// MINP algorithm (0 = unlimited).
	MaxSubsets int
	// RCQPSizeBound bounds the candidate-instance size of the general
	// strong/viable RCQP search (default 2 when zero). The search is
	// sound: a "yes" is always correct; when no witness of the bounded
	// size exists the search returns ErrInconclusive (the exact bound
	// of the paper's NEXPTIME procedure is exponential).
	RCQPSizeBound int
	// MaxDerived caps FP fixpoint derivations (0 = unlimited). A
	// fixpoint beyond the cap fails with ErrBudget.
	MaxDerived int
	// NoTypedDomains disables the typed-domain pruning (see
	// internal/core/typing.go) and enumerates every variable and
	// lattice column over the full Adom, as the paper's procedures are
	// stated. The default (typed) is exact; the flag exists for the
	// differential test-suite and the ablation benchmark.
	NoTypedDomains bool
	// Parallelism is the worker count for the candidate searches
	// (counterexample, witness and certain-answer enumerations). 0
	// defaults to runtime.GOMAXPROCS(0); 1 forces the exact sequential
	// code path. Verdicts, counterexamples and certain answers are
	// identical at every setting (see internal/search); only the
	// point at which a search budget triggers may shift by at most the
	// dispatch window when MaxValuations is set.
	Parallelism int
	// Obs receives solver metrics: valuation/model/extension counts,
	// plan and index statistics, search engine activity and per-phase
	// timings. nil (the default) disables collection; every
	// instrumentation site is nil-safe and the disabled path costs a
	// single pointer test.
	Obs *obs.Metrics
	// SlowOpThreshold, when > 0, turns on the slow-op log: any decider
	// call whose wall time meets the threshold dumps its
	// span tree (when the context carries a trace, see obs.WriteSlowOp)
	// and the histogram snapshot to SlowOpSink.
	SlowOpThreshold time.Duration
	// SlowOpSink receives slow-op dumps (nil → os.Stderr).
	SlowOpSink io.Writer
	// FaultPlan arms the deterministic fault-injection harness at the
	// deciders' instrumented sites (internal/fault) — tests only. nil
	// (the default, always in production) is inert and costs one nil
	// test per site.
	FaultPlan *fault.Plan
	// Profiles overrides the per-problem plan-profile registry with a
	// shared one, aggregating sampled plan-node timings across problems
	// that come and go (rcbench builds a fresh problem per experiment
	// but serves one /debug/plans). nil (the default) keeps profiles
	// per-problem; either way profiling is armed only while Obs is set.
	Profiles *eval.ProfileRegistry
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) rcqpSizeBound() int {
	if o.RCQPSizeBound <= 0 {
		return 2
	}
	return o.RCQPSizeBound
}

// Problem bundles the fixed inputs of the paper's decision problems: a
// data schema, a query Q, master data Dm and a set V of CCs.
type Problem struct {
	Schema  *relation.DBSchema
	Query   Qry
	Master  *relation.Database
	CCs     *cc.Set
	Options Options

	// memo is the state derived from the fixed inputs, shared with every
	// view of the problem (WithOptions).
	memo *memo
}

// memo holds what a problem derives from its fixed inputs and reuses
// across calls. None of it depends on budgets or observability, which
// is what lets views with other Options share it. The one entry over
// budget-counted work, the pinned lattices of atomCands, records that
// work so a hit fails under a smaller budget exactly as the cold
// enumeration does (see atomCandidates).
//
// mu guards every field. Search probes run on worker goroutines
// (internal/search) and share the memo; every access goes through a
// compute-under-lock accessor, and the computations never take mu
// again, so the single mutex cannot recurse.
type memo struct {
	mu        sync.Mutex
	plan      *eval.Plan                // compiled query plan (positive existential only)
	planTried bool                      // whether plan compilation was attempted
	disjTabs  []*query.Tableau          // renamed disjunct tableaux
	domains   map[domainsKey]*domains   // adom, typing, variable candidates per (c-instance, flags)
	sigs      map[string]int            // typing signature -> small id
	atomCands map[atomCandKey]atomCands // constant-pinned closed lattice per atom
	closure   map[string]bool           // single-tuple closure verdicts

	// closureMaster is the master's row count that atomCands and closure
	// were computed against. Master data only grows, and a grown master
	// can close a tuple that was not closed, so both memos are dropped
	// when the count moves (refreshClosureLocked).
	closureMaster int

	// local classifies the CCs and the query as tuple-local or not
	// (delta.go), once: both are fixed inputs.
	localOnce sync.Once
	local     locality

	// profiles aggregates sampled per-node wall-time profiles of the
	// plans the problem executes (eval/profile.go). Profiling rides the
	// observability switch: it is armed only while Options.Obs is set,
	// so the uninstrumented path never touches it. The zero value is
	// ready; read through PlanProfiles.
	profiles eval.ProfileRegistry
}

// domainsKey fingerprints a domainsFor computation: the c-instance
// identity and mode flags, plus the row counts of the c-instance and
// the master data. Row counts are a sound freshness check because both
// structures are append-only — the same convention the plan and RHS
// answer-set caches rely on.
type domainsKey struct {
	ci           *ctable.CInstance
	queryVars    bool
	extRow       bool
	ciRows       int
	master       *relation.Database
	masterTuples int
}

// WithOptions returns a view of p that decides under opts. The view
// shares p's inputs and everything p has derived from them — plan,
// tableaux, domains, lattices, closure verdicts and plan profiles — so
// it costs one allocation and starts as warm as p. Budgets,
// parallelism, observability and fault injection come from opts; the
// field that shapes the shared state, NoTypedDomains, stays p's. p and
// its views may decide concurrently.
func (p *Problem) WithOptions(opts Options) *Problem {
	opts.NoTypedDomains = p.Options.NoTypedDomains
	v := *p
	v.Options = opts
	return &v
}

// NewProblem validates and builds a problem instance.
func NewProblem(schema *relation.DBSchema, q Qry, master *relation.Database, ccs *cc.Set, opts Options) (*Problem, error) {
	if schema == nil {
		return nil, fmt.Errorf("relcomplete: nil schema")
	}
	if q.Calc == nil && q.Prog == nil {
		return nil, fmt.Errorf("relcomplete: empty query")
	}
	if q.Calc != nil && q.Prog != nil {
		return nil, fmt.Errorf("relcomplete: query must be calculus or FP, not both")
	}
	if q.Calc != nil {
		for _, rel := range query.RelationsUsed(q.Calc) {
			if schema.Relation(rel) == nil {
				return nil, fmt.Errorf("relcomplete: query uses unknown relation %s", rel)
			}
		}
	}
	if q.Prog != nil {
		for _, rel := range q.Prog.EDBRelations() {
			if schema.Relation(rel) == nil {
				return nil, fmt.Errorf("relcomplete: FP program reads unknown relation %s", rel)
			}
		}
	}
	if master == nil {
		// An absent master data instance is the fully open-world case.
		master = relation.NewDatabase(relation.MustDBSchema())
	}
	return &Problem{Schema: schema, Query: q, Master: master, CCs: ccs, Options: opts, memo: &memo{}}, nil
}

// MustProblem is NewProblem that panics on error.
func MustProblem(schema *relation.DBSchema, q Qry, master *relation.Database, ccs *cc.Set, opts Options) *Problem {
	p, err := NewProblem(schema, q, master, ccs, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// evalOpts builds the evaluation options used throughout.
func (p *Problem) evalOpts() eval.Options {
	o := eval.Options{MaxDerived: p.Options.MaxDerived, Obs: p.Options.Obs, Fault: p.Options.FaultPlan}
	if p.Options.Obs != nil {
		if p.Options.Profiles != nil {
			o.Profiles = p.Options.Profiles
		} else {
			o.Profiles = &p.memo.profiles
		}
	}
	return o
}

// PlanProfiles exposes the problem's sampled plan-profile registry for
// the /debug/plans endpoints — the Options.Profiles override when set,
// the problem's own otherwise. Never nil; it only accumulates data
// while Options.Obs is set (profiling rides the observability switch).
func (p *Problem) PlanProfiles() *eval.ProfileRegistry {
	if p.Options.Profiles != nil {
		return p.Options.Profiles
	}
	return &p.memo.profiles
}

// evalOptsCtx is evalOpts with the context's cancellation wired into
// the evaluator's Interrupt hook, so that a deadline interrupts even a
// single long evaluation (an FP fixpoint on a large model) instead of
// waiting for it to finish. The Background fast path (no Done channel)
// leaves the hook nil and costs nothing.
func (p *Problem) evalOptsCtx(ctx context.Context) eval.Options {
	o := p.evalOpts()
	if ctx != nil && ctx.Done() != nil {
		o.Interrupt = ctx.Err
	}
	o.Span = obs.SpanFromContext(ctx)
	return o
}

// queryPlan returns the compiled plan for the problem's calculus query,
// compiling it on first use. It returns nil when the query is outside
// the compiled fragment (FP, full FO); the caller then takes the
// generic eval path. Safe for concurrent use: the deciders evaluate the
// same query on thousands of candidate databases from worker
// goroutines, and compiling once is the point of plans.
func (p *Problem) queryPlan() *eval.Plan {
	if p.Query.Calc == nil || !query.IsPositiveExistential(p.Query.Calc) {
		return nil
	}
	m := p.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.planTried {
		m.planTried = true
		m.plan, _ = eval.Compile(p.Query.Calc) // nil on error: generic path
		if m.plan != nil {
			p.Options.Obs.Inc(obs.PlanCompilations)
		}
	} else if m.plan != nil {
		p.Options.Obs.Inc(obs.PlanCacheHits)
	}
	return m.plan
}

// answers evaluates the problem's query on a ground database.
// An FP fixpoint that derives more than Options.MaxDerived facts fails
// with a BudgetError, as every other cap does.
func (p *Problem) answers(ctx context.Context, db *relation.Database) ([]relation.Tuple, error) {
	if p.Query.Prog != nil {
		ans, err := eval.FPAnswers(db, p.Query.Prog, p.evalOptsCtx(ctx))
		if errors.Is(err, eval.ErrBudget) {
			limit := int64(p.Options.MaxDerived)
			return nil, p.budgetErr("FP fixpoint of "+p.Query.Prog.Name, "MaxDerived", limit, limit+1)
		}
		return ans, err
	}
	if plan := p.queryPlan(); plan != nil {
		return plan.Answers(db, p.evalOptsCtx(ctx))
	}
	return eval.Answers(db, p.Query.Calc, p.evalOptsCtx(ctx))
}

// diffTuples returns the tuples of b missing from a, sorted.
func diffTuples(a, b []relation.Tuple) []relation.Tuple {
	seen := make(map[string]bool, len(a))
	for _, t := range a {
		seen[t.Key()] = true
	}
	var out []relation.Tuple
	for _, t := range b {
		if !seen[t.Key()] {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// intersectTuples intersects a (nil = universe) with b.
func intersectTuples(a []relation.Tuple, universe bool, b []relation.Tuple) ([]relation.Tuple, bool) {
	if universe {
		return append([]relation.Tuple(nil), b...), false
	}
	seen := make(map[string]bool, len(b))
	for _, t := range b {
		seen[t.Key()] = true
	}
	var out []relation.Tuple
	for _, t := range a {
		if seen[t.Key()] {
			out = append(out, t)
		}
	}
	return out, false
}

// disjunctTableaux returns the tableaux of the query's CQ disjuncts,
// with variables renamed into a reserved namespace so they cannot
// collide with c-instance variables. Only valid for ∃FO+ and below.
// Safe for concurrent use: the first caller computes under the memo
// lock.
func (p *Problem) disjunctTableaux() ([]*query.Tableau, error) {
	m := p.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.disjTabs != nil {
		return m.disjTabs, nil
	}
	if p.Query.Calc == nil {
		return nil, fmt.Errorf("relcomplete: FP queries have no disjunct tableaux")
	}
	it := query.NewDisjunctIterator(p.Query.Calc)
	if it == nil {
		return nil, fmt.Errorf("relcomplete: query %s is not positive existential", p.Query.Name())
	}
	var tabs []*query.Tableau
	for d := it.Next(); d != nil; d = it.Next() {
		renamed := query.RenameQuery(d, "qv_")
		tab, err := query.TableauOf(renamed)
		if err != nil {
			return nil, err
		}
		tab, alive := propagateEqualities(tab)
		if !alive {
			continue // contradictory conditions: the disjunct is dead
		}
		tabs = append(tabs, tab)
	}
	m.disjTabs = tabs
	return tabs, nil
}

// propagateEqualities folds the tableau's equality conditions into its
// atoms and head: x = 'c' pins the variable, x = y merges the
// variables. Contradictory equalities (c = c' with distinct constants)
// kill the disjunct. Inequalities are kept. Pinned columns shrink the
// counterexample search space dramatically — an equality selection
// behaves like an atom constant.
func propagateEqualities(tab *query.Tableau) (*query.Tableau, bool) {
	// Union-find over variable names with an optional constant per class.
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if p, ok := parent[x]; ok && p != x {
			r := find(p)
			parent[x] = r
			return r
		}
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		return x
	}
	pinned := map[string]relation.Value{}
	for _, c := range tab.Compares {
		if c.Op != query.Eq {
			continue
		}
		switch {
		case c.L.IsVar && c.R.IsVar:
			parent[find(c.L.Name)] = find(c.R.Name)
		case c.L.IsVar && !c.R.IsVar:
			pinned[find(c.L.Name)] = c.R.Const
		case !c.L.IsVar && c.R.IsVar:
			pinned[find(c.R.Name)] = c.L.Const
		default:
			if c.L.Const != c.R.Const {
				return nil, false
			}
		}
	}
	// Re-root pins (pins recorded against possibly stale roots).
	val := map[string]relation.Value{}
	for v, c := range pinned {
		r := find(v)
		if prev, ok := val[r]; ok && prev != c {
			return nil, false
		}
		val[r] = c
	}
	subst := func(t query.Term) query.Term {
		if !t.IsVar {
			return t
		}
		r := find(t.Name)
		if c, ok := val[r]; ok {
			return query.C(c)
		}
		return query.V(r)
	}
	out := &query.Tableau{}
	for _, h := range tab.Head {
		out.Head = append(out.Head, subst(h))
	}
	for _, a := range tab.Atoms {
		terms := make([]query.Term, len(a.Terms))
		for i, t := range a.Terms {
			terms[i] = subst(t)
		}
		out.Atoms = append(out.Atoms, query.NewAtom(a.Rel, terms...))
	}
	for _, c := range tab.Compares {
		l, r := subst(c.L), subst(c.R)
		if !l.IsVar && !r.IsVar {
			if (c.Op == query.Eq) != (l.Const == r.Const) {
				return nil, false // condition statically false
			}
			continue // statically true: drop
		}
		out.Compares = append(out.Compares, &query.Compare{Op: c.Op, L: l, R: r})
	}
	seen := map[string]bool{}
	add := func(t query.Term) {
		if t.IsVar && !seen[t.Name] {
			seen[t.Name] = true
			out.Vars = append(out.Vars, t.Name)
		}
	}
	for _, a := range out.Atoms {
		for _, t := range a.Terms {
			add(t)
		}
	}
	for _, c := range out.Compares {
		add(c.L)
		add(c.R)
	}
	for _, h := range out.Head {
		add(h)
	}
	sort.Strings(out.Vars)
	return out, true
}

// adomFor builds the paper's Adom for this problem and a c-instance
// (which may be nil). withQueryVars additionally mints fresh values for
// the query's tableau variables (the Theorem 4.1 construction); it is
// ignored for FP and FO queries, whose procedures do not use tableaux.
//
// When withExtRow is set, one synthetic variable per column of the
// widest relation is additionally contributed: they represent the
// tuple a procedure constructs (the single-tuple extension of the
// extensibility check and of the Lemma 5.2 weak-model stream), so
// fresh values exist even for ground inputs. The paper obtains the
// same effect from the New values of V's variables; the synthetic row
// is the lean sufficient stand-in. The strong-model procedures build
// their extensions from query tableaux instead and do not need it.
func (p *Problem) adomFor(ci *ctable.CInstance, withQueryVars, withExtRow bool) (*adom.Adom, error) {
	b := adom.NewBuilder().
		AddCInstance(ci).
		AddDatabase(p.Master).
		AddCCs(p.CCs).
		AddSchemaFiniteDomains(p.Schema)
	if withExtRow {
		maxArity := 0
		for _, r := range p.Schema.Relations() {
			if r.Arity() > maxArity {
				maxArity = r.Arity()
			}
		}
		rowVars := make([]string, maxArity)
		for i := range rowVars {
			rowVars[i] = fmt.Sprintf("xrow%d", i)
		}
		b.AddVars(rowVars)
	}
	qc := relation.NewValueSet()
	p.Query.Constants(qc)
	b.AddConstants(qc)
	if withQueryVars && p.Query.Calc != nil && query.IsPositiveExistential(p.Query.Calc) {
		tabs, err := p.disjunctTableaux()
		if err != nil {
			return nil, err
		}
		for _, tab := range tabs {
			b.AddVars(tab.Vars)
		}
	}
	return b.Build(), nil
}

// satisfiesCCs reports (I, Dm) ⊨ V.
func (p *Problem) satisfiesCCs(ctx context.Context, db *relation.Database) (bool, error) {
	m := p.Options.Obs
	m.Inc(obs.CCChecks)
	ok, err := p.CCs.Satisfied(db, p.Master, p.evalOptsCtx(ctx))
	if err == nil && !ok {
		m.Inc(obs.CCViolations)
	}
	return ok, err
}

// traceCCViolation re-runs the CC check constraint by constraint to
// name the one that pruned db, emitting a cc_violation event on sp.
// Callers run it only while sp streams events: the extra evaluation is
// the price of the diagnosis, which an unwatched decide must not pay.
func (p *Problem) traceCCViolation(ctx context.Context, sp *obs.Span, db *relation.Database) {
	if p.CCs == nil {
		return
	}
	for _, c := range p.CCs.Constraints {
		ok, err := c.Satisfied(db, p.Master, p.evalOptsCtx(ctx))
		if err == nil && !ok {
			sp.Event("cc_violation", obs.F("cc", c.String()))
			return
		}
	}
}

// checkModel checks a candidate model µ(T) of the c-instance against V:
// the verdict of satisfiesCCs on µ(T), with the candidate-level
// counters and decision events attached. Every decider probe routes its
// model admission through here. With tuple-local CCs (delta.go) the
// candidate is checked by what it adds: T's ground prefix once per d,
// which must be the c-instance's domains, then each added tuple alone.
// Otherwise µ(T) is built and checked whole. µ(T) is returned built
// when the candidate is admitted, nil otherwise.
func (p *Problem) checkModel(ctx context.Context, d *domains, c ctable.Candidate) (*relation.Database, bool, error) {
	if err := p.Options.FaultPlan.Visit(fault.SiteSearchWorker); err != nil {
		return nil, false, err
	}
	m := p.Options.Obs
	m.Inc(obs.ModelsChecked)
	var db *relation.Database
	var ok bool
	var err error
	if p.locality().ccs {
		ok, err = p.prefixClosed(ctx, d, c.Prefix())
		if err == nil && ok {
			ok, err = p.tuplesClosed(ctx, c.Added)
		}
	} else {
		db = c.Build()
		ok, err = p.satisfiesCCs(ctx, db)
	}
	if err != nil {
		return nil, false, err
	}
	if ok {
		m.Inc(obs.ModelsAdmitted)
	}
	if sp := obs.SpanFromContext(ctx); sp.Streaming() {
		if db == nil {
			db = c.Build()
		}
		if ok {
			sp.Event("model", obs.F("db", db))
		} else {
			sp.Event("model_pruned", obs.F("db", db))
			p.traceCCViolation(ctx, sp, db)
		}
	}
	if !ok {
		return nil, false, nil
	}
	if db == nil {
		db = c.Build()
	}
	return db, true, nil
}

// domains bundles an active domain with its typed pruning (nil under
// Options.NoTypedDomains) and the candidates of the c-instance's
// variables: cands[i] are the values vars[i] ranges over.
type domains struct {
	a     *adom.Adom
	ty    *typing
	vars  []string
	cands [][]relation.Value

	// sig is the id of the typing signature (typingSignature), the
	// lattice caches' key: computed on first use, once per domains.
	sigOnce sync.Once
	sig     int

	// prefixOK and prefixAns are V's verdict and Q's answers on the
	// c-instance's ground prefix, the base every candidate model adds to
	// (prefixClosed, modelAnswers).
	prefixOK  prefixMemo[bool]
	prefixAns prefixMemo[[]relation.Tuple]
}

// domainsCacheCap bounds the memoised domains computations; the cache
// is wiped wholesale when full (deciders cycle over a handful of
// c-instances, so eviction order is irrelevant).
const domainsCacheCap = 32

// domainsFor builds the Adom, its typing and the variables' candidates
// for a c-instance. The result is memoised per (c-instance, flags):
// deciders are routinely re-run against the same inputs (the
// reductions call several deciders over one gadget, benchmarks and
// servers repeat calls), and domains are read-only after construction,
// so cached values are shared freely across concurrent runs. Freshness
// rides on the append-only row counts, as for the plan caches. A
// decider that wraps a ground instance in a c-instance of its own calls
// buildDomains instead: no later call could hit that entry, and each
// would push the resident ones towards the wipe at domainsCacheCap.
func (p *Problem) domainsFor(ci *ctable.CInstance, withQueryVars, withExtRow bool) (*domains, error) {
	key := domainsKey{
		ci:           ci,
		queryVars:    withQueryVars,
		extRow:       withExtRow,
		master:       p.Master,
		masterTuples: p.Master.Size(),
	}
	if ci != nil {
		key.ciRows = ci.Size()
	}
	m := p.memo
	m.mu.Lock()
	d, ok := m.domains[key]
	m.mu.Unlock()
	if ok {
		return d, nil
	}
	d, err := p.buildDomains(ci, withQueryVars, withExtRow)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if len(m.domains) >= domainsCacheCap {
		m.domains = nil
	}
	if m.domains == nil {
		m.domains = make(map[domainsKey]*domains, 8)
	}
	m.domains[key] = d
	m.mu.Unlock()
	return d, nil
}

// buildDomains builds the Adom for a c-instance and the domains over
// it without memoising them.
func (p *Problem) buildDomains(ci *ctable.CInstance, withQueryVars, withExtRow bool) (*domains, error) {
	a, err := p.adomFor(ci, withQueryVars, withExtRow)
	if err != nil {
		return nil, err
	}
	return p.domainsOver(ci, a)
}

// domainsOver types the positions over a, unless
// Options.NoTypedDomains, and lists the candidates of ci's variables
// (ci may be nil).
func (p *Problem) domainsOver(ci *ctable.CInstance, a *adom.Adom) (*domains, error) {
	d := &domains{a: a}
	if !p.Options.NoTypedDomains {
		cp, err := p.classify(ci, a)
		if err != nil {
			return nil, err
		}
		d.ty = cp.compact()
	}
	if ci != nil {
		sites, doms := ciVarSiteMap(ci), ci.VarDomains()
		d.vars = ci.Vars()
		d.cands = make([][]relation.Value, len(d.vars))
		for i, v := range d.vars {
			d.cands[i] = d.ty.varCandidates(sites[v], doms[v], a)
		}
	}
	return d, nil
}

// latticeSig returns the id of d's typing signature. Equal signatures
// mean equal per-column candidates, so domains built for different
// c-instances share their pinned lattices (the RCQP search checks
// thousands of candidate instances against one lattice). Ids are
// interned per problem, so lattice keys stay small however long the
// signature is.
func (p *Problem) latticeSig(d *domains) int {
	d.sigOnce.Do(func() {
		sig := p.typingSignature(d.a, d.ty)
		m := p.memo
		m.mu.Lock()
		id, ok := m.sigs[sig]
		if !ok {
			if m.sigs == nil {
				m.sigs = map[string]int{}
			}
			id = len(m.sigs)
			m.sigs[sig] = id
		}
		m.mu.Unlock()
		d.sig = id
	})
	return d.sig
}
