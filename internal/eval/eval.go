// Package eval implements query evaluation over ground instances for
// every language of the paper: conjunctive queries and their positive
// extensions (CQ, UCQ, ∃FO+) by backtracking homomorphism search,
// full first-order queries (FO) by active-domain model checking, and
// FP programs by inflational fixpoint iteration.
//
// All evaluation uses the active-domain semantics standard in the
// incomplete-information literature: quantifiers range over the
// constants of the instance and the query (plus any extra values the
// caller supplies), which is the semantics under which the paper's
// small-model characterisations are stated.
package eval

import (
	"fmt"
	"sort"
	"strings"

	"relcomplete/internal/fault"
	"relcomplete/internal/obs"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// factSource abstracts where relation tuples come from: a plain
// database for relational-calculus queries, or database + IDB store for
// FP programs.
type factSource interface {
	tuples(rel string) ([]relation.Tuple, error)
}

type dbSource struct{ db *relation.Database }

func (s dbSource) tuples(rel string) ([]relation.Tuple, error) {
	inst := s.db.Relation(rel)
	if inst == nil {
		return nil, fmt.Errorf("eval: unknown relation %s", rel)
	}
	return inst.Tuples(), nil
}

// Options tunes evaluation.
type Options struct {
	// ExtraDomain adds values to the quantification domain beyond the
	// active domain of instance and query. The completeness deciders
	// use this to evaluate over the paper's Adom.
	ExtraDomain *relation.ValueSet
	// MaxDerived caps the number of facts an FP fixpoint may derive
	// (0 = no cap); exceeded caps return ErrBudget.
	MaxDerived int
	// Obs receives evaluation metrics (plan compilations and runs, rows
	// probed/emitted, short circuits, derived FP facts). nil disables
	// collection at negligible cost.
	Obs *obs.Metrics
	// Fault arms the fault-injection harness at the evaluation entry
	// points (internal/fault) — tests only; nil is inert.
	Fault *fault.Plan
	// Interrupt, when non-nil, is polled at evaluation entry and between
	// FP rule derivations; a non-nil return aborts the evaluation with
	// that error. The deciders install ctx.Err here so that deadlines
	// interrupt long fixpoint computations mid-flight instead of waiting
	// for the evaluation to run to completion.
	Interrupt func() error
	// Span is the active request-trace span, if any; the FP fixpoint
	// hangs an "eval.fp" sub-span off it so a traced decide shows where
	// evaluation time went. nil (the common case) is inert.
	Span *obs.Span
	// Profiles, when non-nil, enables sampled per-node plan profiling
	// (profile.go): one in every ProfileRegistry.Sample plan executions
	// runs timed and folds its node tallies into the registry. nil (the
	// common case) keeps plan execution free of it.
	Profiles *ProfileRegistry
}

// interrupted polls the Interrupt hook, returning its error if any.
func (o Options) interrupted() error {
	if o.Interrupt == nil {
		return nil
	}
	return o.Interrupt()
}

// ErrBudget is returned when a configured resource cap is exceeded.
var ErrBudget = fmt.Errorf("eval: resource budget exceeded")

// binding is a partial assignment of variables to constants.
type binding map[string]relation.Value

func (b binding) clone() binding {
	c := make(binding, len(b)+1)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// keyOver canonically serialises the binding restricted to vars (which
// must be sorted).
func (b binding) keyOver(vars []string) string {
	var sb strings.Builder
	for _, v := range vars {
		val := b[v]
		fmt.Fprintf(&sb, "%d:%s;", len(val), val)
	}
	return sb.String()
}

type env struct {
	src  factSource
	adom []relation.Value
	opts Options
}

// Answers evaluates q on db and returns the set of answer tuples in
// deterministic order. Positive-existential queries go through the
// compiled indexed-join engine (see plan.go); FO queries, and any query
// Compile rejects, through the nested-loop evaluator. Callers that
// evaluate the same query against many databases should Compile once
// and reuse the Plan.
func Answers(db *relation.Database, q *query.Query, opts Options) ([]relation.Tuple, error) {
	if err := opts.Fault.Visit(fault.SiteEvalAnswers); err != nil {
		return nil, err
	}
	if err := opts.interrupted(); err != nil {
		return nil, err
	}
	if query.IsPositiveExistential(q) {
		if plan, err := Compile(q); err == nil {
			opts.Obs.Inc(obs.PlanCompilations)
			return plan.Answers(db, opts)
		}
	}
	return answersNested(db, q, opts)
}

// answersNested evaluates q with the nested-loop map-binding evaluator:
// Answers' path for FO, and the reference the compiled plans are tested
// against.
func answersNested(db *relation.Database, q *query.Query, opts Options) ([]relation.Tuple, error) {
	opts.Obs.Inc(obs.NaiveEvaluations)
	e := &env{src: dbSource{db}, opts: opts}
	e.adom = evalDomain(db, q, opts)
	return e.answers(q)
}

// Bool evaluates a Boolean query, reporting whether the answer is {()}.
// The compiled engine stops at the first witness; the nested-loop path
// still joins level by level but skips materialising, projecting and
// sorting the answer set.
func Bool(db *relation.Database, q *query.Query, opts Options) (bool, error) {
	if err := opts.Fault.Visit(fault.SiteEvalAnswers); err != nil {
		return false, err
	}
	if !q.IsBoolean() {
		return false, fmt.Errorf("eval: query %s is not Boolean", q.Name)
	}
	if query.IsPositiveExistential(q) {
		if plan, err := Compile(q); err == nil {
			opts.Obs.Inc(obs.PlanCompilations)
			return plan.Bool(db, opts)
		}
	}
	return boolNested(db, q, opts)
}

// boolNested is Bool on the nested-loop evaluator, as answersNested is
// Answers.
func boolNested(db *relation.Database, q *query.Query, opts Options) (bool, error) {
	opts.Obs.Inc(obs.NaiveEvaluations)
	e := &env{src: dbSource{db}, opts: opts}
	e.adom = evalDomain(db, q, opts)
	if query.Classify(q) <= query.ClassEFOPlus {
		rows, err := e.extend([]binding{{}}, q.Body)
		if err != nil {
			return false, err
		}
		return len(rows) > 0, nil
	}
	// Full FO with an empty head: a single model check.
	return e.check(q.Body, binding{})
}

// evalDomain collects the quantification domain: active domain of the
// instance, constants of the query, and caller-supplied extras.
func evalDomain(db *relation.Database, q *query.Query, opts Options) []relation.Value {
	set := relation.NewValueSet()
	db.ActiveDomain(set)
	if q != nil {
		query.QueryConstants(q, set)
	}
	set.AddAll(opts.ExtraDomain)
	return set.Values()
}

func (e *env) answers(q *query.Query) ([]relation.Tuple, error) {
	free := sortedVars(query.FreeVars(q.Body))
	var rows []binding
	var err error
	if query.Classify(q) <= query.ClassEFOPlus {
		rows, err = e.sat(q.Body)
	} else {
		rows, err = e.satFO(q.Body, free)
	}
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []relation.Tuple
	for _, b := range rows {
		t := make(relation.Tuple, len(q.Head))
		ok := true
		for i, h := range q.Head {
			if h.IsVar {
				v, bound := b[h.Name]
				if !bound {
					ok = false
					break
				}
				t[i] = v
			} else {
				t[i] = h.Const
			}
		}
		if !ok {
			continue
		}
		k := t.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, nil
}

// AnswerInstance packages the answers of q as an instance over a fresh
// result schema, convenient for set comparisons.
func AnswerInstance(db *relation.Database, q *query.Query, opts Options) (*relation.Instance, error) {
	ans, err := Answers(db, q, opts)
	if err != nil {
		return nil, err
	}
	attrs := make([]relation.Attribute, q.Arity())
	for i := range attrs {
		attrs[i] = relation.Attr(fmt.Sprintf("C%d", i+1), nil)
	}
	sch := relation.MustSchema("ans_"+q.Name, attrs...)
	inst := relation.NewInstance(sch)
	for _, t := range ans {
		inst.MustInsert(t)
	}
	return inst, nil
}

// SameAnswers reports whether q has identical answers on db1 and db2.
func SameAnswers(db1, db2 *relation.Database, q *query.Query, opts Options) (bool, error) {
	a1, err := Answers(db1, q, opts)
	if err != nil {
		return false, err
	}
	a2, err := Answers(db2, q, opts)
	if err != nil {
		return false, err
	}
	return sameTupleSets(a1, a2), nil
}

func sameTupleSets(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]bool, len(a))
	for _, t := range a {
		seen[t.Key()] = true
	}
	for _, t := range b {
		if !seen[t.Key()] {
			return false
		}
	}
	return true
}

// SubsetAnswers reports whether every answer of q on db1 is an answer
// on db2.
func SubsetAnswers(db1, db2 *relation.Database, q *query.Query, opts Options) (bool, error) {
	a1, err := Answers(db1, q, opts)
	if err != nil {
		return false, err
	}
	a2, err := Answers(db2, q, opts)
	if err != nil {
		return false, err
	}
	seen := make(map[string]bool, len(a2))
	for _, t := range a2 {
		seen[t.Key()] = true
	}
	for _, t := range a1 {
		if !seen[t.Key()] {
			return false, nil
		}
	}
	return true, nil
}

func sortedVars(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Positive fragment: bindings-set evaluation with backtracking joins.
// ---------------------------------------------------------------------------

// sat returns the set of bindings over exactly FreeVars(f) that
// satisfy f (active-domain semantics for variables constrained only by
// comparisons or unshared disjunct variables).
func (e *env) sat(f query.Formula) ([]binding, error) {
	rows, err := e.extend([]binding{{}}, f)
	if err != nil {
		return nil, err
	}
	free := sortedVars(query.FreeVars(f))
	return projectDedup(rows, free), nil
}

// extend grows each accumulated binding with the satisfying
// assignments of f; the result bindings cover dom(acc) ∪ FreeVars(f).
func (e *env) extend(acc []binding, f query.Formula) ([]binding, error) {
	if len(acc) == 0 {
		return nil, nil
	}
	switch x := f.(type) {
	case *query.Atom:
		return e.extendAtom(acc, x)
	case *query.Compare:
		return e.extendCompare(acc, x)
	case *query.And:
		kids := orderKids(x.Kids)
		var err error
		for _, k := range kids {
			acc, err = e.extend(acc, k)
			if err != nil {
				return nil, err
			}
			if len(acc) == 0 {
				return nil, nil
			}
		}
		return acc, nil
	case *query.Or:
		// Each disjunct contributes its satisfying extensions; free
		// variables of the disjunction missing from a disjunct range
		// over the active domain.
		freeAll := sortedVars(query.FreeVars(x))
		var out []binding
		seen := map[string]bool{}
		for _, k := range x.Kids {
			rows, err := e.extend(acc, k)
			if err != nil {
				return nil, err
			}
			rows, err = e.padMissing(rows, freeAll)
			if err != nil {
				return nil, err
			}
			for _, b := range rows {
				key := b.keyOver(sortedVars(domainOf(b)))
				if !seen[key] {
					seen[key] = true
					out = append(out, b)
				}
			}
		}
		return out, nil
	case *query.Exists:
		// Alpha-rename quantified variables that collide with names
		// already bound in the accumulator, so the sub-evaluation does
		// not confuse the two.
		vars, sub := x.Vars, x.Sub
		if ren := collisionRenaming(acc, vars); ren != nil {
			sub = query.RenameSpecific(sub, ren)
			fresh := make([]string, len(vars))
			for i, v := range vars {
				if n, ok := ren[v]; ok {
					fresh[i] = n
				} else {
					fresh[i] = v
				}
			}
			vars = fresh
		}
		// Satisfy the subformula, then forget the quantified variables.
		rows, err := e.extend(acc, sub)
		if err != nil {
			return nil, err
		}
		var out []binding
		seen := map[string]bool{}
		for _, b := range rows {
			c := b.clone()
			for _, v := range vars {
				delete(c, v)
			}
			key := c.keyOver(sortedVars(domainOf(c)))
			if !seen[key] {
				seen[key] = true
				out = append(out, c)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("eval: %T in positive evaluation", f)
	}
}

// collisionRenaming returns a renaming of the quantified vars that
// collide with variables bound in the accumulator, or nil when there is
// no collision. Fresh names use a reserved "·" infix no parser-produced
// variable contains.
func collisionRenaming(acc []binding, vars []string) map[string]string {
	bound := map[string]bool{}
	for _, b := range acc {
		for v := range b {
			bound[v] = true
		}
	}
	var ren map[string]string
	for i, v := range vars {
		if bound[v] {
			if ren == nil {
				ren = map[string]string{}
			}
			ren[v] = fmt.Sprintf("%s·%d", v, i)
		}
	}
	return ren
}

func domainOf(b binding) map[string]bool {
	m := make(map[string]bool, len(b))
	for k := range b {
		m[k] = true
	}
	return m
}

// orderKids sorts conjunction kids so relation atoms bind variables
// before comparisons and complex subformulas filter them.
func orderKids(kids []query.Formula) []query.Formula {
	rank := func(f query.Formula) int {
		switch f.(type) {
		case *query.Atom:
			return 0
		case *query.And, *query.Exists:
			return 1
		case *query.Or:
			return 2
		case *query.Compare:
			return 3
		default:
			return 4
		}
	}
	out := make([]query.Formula, len(kids))
	copy(out, kids)
	sort.SliceStable(out, func(i, j int) bool { return rank(out[i]) < rank(out[j]) })
	return out
}

func (e *env) extendAtom(acc []binding, a *query.Atom) ([]binding, error) {
	tuples, err := e.src.tuples(a.Rel)
	if err != nil {
		return nil, err
	}
	var out []binding
	for _, b := range acc {
		for _, t := range tuples {
			if nb, ok := unify(b, a, t); ok {
				out = append(out, nb)
			}
		}
	}
	return out, nil
}

// unify matches tuple t against the atom pattern under binding b,
// returning the extended binding.
func unify(b binding, a *query.Atom, t relation.Tuple) (binding, bool) {
	if len(t) != len(a.Terms) {
		return nil, false
	}
	var nb binding
	for i, term := range a.Terms {
		if !term.IsVar {
			if term.Const != t[i] {
				return nil, false
			}
			continue
		}
		if v, bound := b[term.Name]; bound {
			if v != t[i] {
				return nil, false
			}
			continue
		}
		if nb != nil {
			if v, bound := nb[term.Name]; bound {
				if v != t[i] {
					return nil, false
				}
				continue
			}
		}
		if nb == nil {
			nb = b.clone()
		}
		nb[term.Name] = t[i]
	}
	if nb == nil {
		nb = b
	}
	return nb, true
}

func (e *env) extendCompare(acc []binding, c *query.Compare) ([]binding, error) {
	var out []binding
	for _, b := range acc {
		lv, lok := resolveTerm(c.L, b)
		rv, rok := resolveTerm(c.R, b)
		switch {
		case lok && rok:
			if (c.Op == query.Eq) == (lv == rv) {
				out = append(out, b)
			}
		case lok && !rok:
			out = append(out, e.bindAgainst(b, c.R.Name, lv, c.Op)...)
		case !lok && rok:
			out = append(out, e.bindAgainst(b, c.L.Name, rv, c.Op)...)
		default:
			// Both sides unbound variables: range both over the domain.
			// One variable on both sides is bound by the left: x = x
			// holds for every value, x ≠ x for none.
			for _, v := range e.adom {
				nb := b.clone()
				nb[c.L.Name] = v
				if c.R.Name != c.L.Name {
					out = append(out, e.bindAgainst(nb, c.R.Name, v, c.Op)...)
				} else if c.Op == query.Eq {
					out = append(out, nb)
				}
			}
		}
	}
	return out, nil
}

// bindAgainst extends b by assigning var so that (var op val) holds,
// ranging over the active domain for ≠ and pinning for =.
func (e *env) bindAgainst(b binding, varName string, val relation.Value, op query.CmpOp) []binding {
	if op == query.Eq {
		nb := b.clone()
		nb[varName] = val
		return []binding{nb}
	}
	var out []binding
	for _, v := range e.adom {
		if v != val {
			nb := b.clone()
			nb[varName] = v
			out = append(out, nb)
		}
	}
	return out
}

func resolveTerm(t query.Term, b binding) (relation.Value, bool) {
	if !t.IsVar {
		return t.Const, true
	}
	v, ok := b[t.Name]
	return v, ok
}

// padMissing extends bindings so they cover all of vars, ranging
// unbound variables over the active domain.
func (e *env) padMissing(rows []binding, vars []string) ([]binding, error) {
	for _, v := range vars {
		var next []binding
		for _, b := range rows {
			if _, ok := b[v]; ok {
				next = append(next, b)
				continue
			}
			for _, val := range e.adom {
				nb := b.clone()
				nb[v] = val
				next = append(next, nb)
			}
		}
		rows = next
	}
	return rows, nil
}

func projectDedup(rows []binding, vars []string) []binding {
	seen := map[string]bool{}
	var out []binding
	for _, b := range rows {
		c := make(binding, len(vars))
		for _, v := range vars {
			if val, ok := b[v]; ok {
				c[v] = val
			}
		}
		key := c.keyOver(vars)
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Full FO: active-domain model checking.
// ---------------------------------------------------------------------------

// satFO enumerates assignments of the free variables over the active
// domain and model-checks the formula under each.
func (e *env) satFO(f query.Formula, free []string) ([]binding, error) {
	var out []binding
	b := binding{}
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(free) {
			ok, err := e.check(f, b)
			if err != nil {
				return err
			}
			if ok {
				out = append(out, b.clone())
			}
			return nil
		}
		for _, v := range e.adom {
			b[free[i]] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(b, free[i])
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

// check model-checks f under a total binding of its free variables.
func (e *env) check(f query.Formula, b binding) (bool, error) {
	switch x := f.(type) {
	case *query.Atom:
		tuples, err := e.src.tuples(x.Rel)
		if err != nil {
			return false, err
		}
		want := make(relation.Tuple, len(x.Terms))
		for i, t := range x.Terms {
			v, ok := resolveTerm(t, b)
			if !ok {
				return false, fmt.Errorf("eval: unbound variable %s in FO check", t.Name)
			}
			want[i] = v
		}
		for _, t := range tuples {
			if t.Equal(want) {
				return true, nil
			}
		}
		return false, nil
	case *query.Compare:
		lv, lok := resolveTerm(x.L, b)
		rv, rok := resolveTerm(x.R, b)
		if !lok || !rok {
			return false, fmt.Errorf("eval: unbound variable in FO comparison %s", x)
		}
		return (x.Op == query.Eq) == (lv == rv), nil
	case *query.And:
		for _, k := range x.Kids {
			ok, err := e.check(k, b)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case *query.Or:
		for _, k := range x.Kids {
			ok, err := e.check(k, b)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case *query.Not:
		ok, err := e.check(x.Sub, b)
		return !ok, err
	case *query.Exists:
		return e.quantify(x.Vars, x.Sub, b, false)
	case *query.Forall:
		ok, err := e.quantify(x.Vars, x.Sub, b, true)
		return ok, err
	}
	return false, fmt.Errorf("eval: unknown formula node %T", f)
}

// quantify checks ∃ (universal=false) or ∀ (universal=true) over the
// active domain.
func (e *env) quantify(vars []string, sub query.Formula, b binding, universal bool) (bool, error) {
	if len(vars) == 0 {
		return e.check(sub, b)
	}
	v, rest := vars[0], vars[1:]
	saved, had := b[v]
	defer func() {
		if had {
			b[v] = saved
		} else {
			delete(b, v)
		}
	}()
	for _, val := range e.adom {
		b[v] = val
		ok, err := e.quantify(rest, sub, b, universal)
		if err != nil {
			return false, err
		}
		if universal && !ok {
			return false, nil
		}
		if !universal && ok {
			return true, nil
		}
	}
	return universal, nil
}
