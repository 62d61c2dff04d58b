package eval

// This file is the compiled evaluation path for the positive-existential
// fragment (CQ, UCQ, ∃FO+): a one-shot query→plan compiler plus an
// executor that joins through the per-relation hash indexes of
// relation.Instance.
//
// The compiler assigns every variable a fixed slot, so a partial
// assignment is a flat frame ([]relation.Value plus a bound bitmap)
// instead of the map[string]relation.Value the naive evaluator carries;
// quantifier shadowing is resolved at compile time by scoping names to
// slots, so no runtime alpha-renaming is needed. The executor is a
// backtracking depth-first search in continuation-passing style: a node
// extends the frame and calls its continuation once per satisfying
// extension, which gives Boolean evaluation a genuine first-witness
// short circuit. Conjunctions are ordered greedily at run time by bound
// -variable coverage and relation cardinality (replacing the naive
// evaluator's static syntactic rank); the order depends only on the
// database and the plan, so evaluation stays deterministic.
//
// A Plan is immutable after Compile and safe for concurrent Run/Answers
// /Bool calls: all execution state lives in a per-call planRun.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"relcomplete/internal/fault"
	"relcomplete/internal/obs"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// Stop, returned from a ForEach callback, ends the enumeration early
// without error.
var Stop = fmt.Errorf("eval: stop enumeration")

// errFound is the internal first-witness sentinel of Bool and of the
// semi-join short circuits.
var errFound = fmt.Errorf("eval: witness found")

// planTerm is a compiled query.Term: a constant or a frame slot.
type planTerm struct {
	isConst bool
	c       relation.Value
	slot    int
}

// planNode is one operator of a compiled plan. exec extends the frame
// of rt with every satisfying extension, calling k once per extension
// with the bindings in place, and restores the frame before returning.
type planNode interface {
	exec(rt *planRun, k cont) error
	// explain renders the node; rt is nil for the static rendering and
	// carries per-node statistics after an ExplainRun execution.
	explain(b *strings.Builder, indent string, slotNames []string, rt *planRun)
}

type cont func() error

// Plan is a compiled query: slot layout, head recipe and operator tree.
type Plan struct {
	q         *query.Query
	nSlots    int
	slotNames []string   // slot -> variable name (diagnostics)
	head      []planTerm // compiled head terms
	relNames  []string   // relIdx -> relation name
	root      planNode
}

// compiler carries the scope and slot state of one Compile call.
type compiler struct {
	slotNames []string
	scope     map[string][]int // variable name -> slot stack (shadowing)
	relIdx    map[string]int
	relNames  []string
}

func (c *compiler) pushVar(name string) int {
	s := len(c.slotNames)
	c.slotNames = append(c.slotNames, name)
	c.scope[name] = append(c.scope[name], s)
	return s
}

func (c *compiler) popVar(name string) {
	st := c.scope[name]
	c.scope[name] = st[:len(st)-1]
}

func (c *compiler) slotOf(name string) (int, error) {
	st := c.scope[name]
	if len(st) == 0 {
		return 0, fmt.Errorf("eval: variable %s out of scope", name)
	}
	return st[len(st)-1], nil
}

func (c *compiler) term(t query.Term) (planTerm, error) {
	if !t.IsVar {
		return planTerm{isConst: true, c: t.Const}, nil
	}
	s, err := c.slotOf(t.Name)
	if err != nil {
		return planTerm{}, err
	}
	return planTerm{slot: s}, nil
}

func (c *compiler) relation(name string) int {
	if i, ok := c.relIdx[name]; ok {
		return i
	}
	i := len(c.relNames)
	c.relIdx[name] = i
	c.relNames = append(c.relNames, name)
	return i
}

// freeSlots maps the free variables of f to their current slots, in
// sorted variable order (deterministic plan shape).
func (c *compiler) freeSlots(f query.Formula) ([]int, error) {
	names := sortedVars(query.FreeVars(f))
	out := make([]int, len(names))
	for i, n := range names {
		s, err := c.slotOf(n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// Compile builds the indexed-join plan for a positive-existential
// query. Queries outside ∃FO+ are rejected; callers fall back to the
// active-domain model checker.
func Compile(q *query.Query) (*Plan, error) {
	if query.Classify(q) > query.ClassEFOPlus {
		return nil, fmt.Errorf("eval: query %s is not positive existential; no plan", q.Name)
	}
	c := &compiler{scope: map[string][]int{}, relIdx: map[string]int{}}
	// Free variables of the body get the first slots, in sorted order.
	for _, v := range sortedVars(query.FreeVars(q.Body)) {
		c.pushVar(v)
	}
	root, err := c.compile(q.Body)
	if err != nil {
		return nil, err
	}
	head := make([]planTerm, len(q.Head))
	for i, h := range q.Head {
		head[i], err = c.term(h)
		if err != nil {
			return nil, err
		}
	}
	return &Plan{
		q:         q,
		nSlots:    len(c.slotNames),
		slotNames: c.slotNames,
		head:      head,
		relNames:  c.relNames,
		root:      root,
	}, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(q *query.Query) *Plan {
	p, err := Compile(q)
	if err != nil {
		panic(err)
	}
	return p
}

func (c *compiler) compile(f query.Formula) (planNode, error) {
	switch x := f.(type) {
	case *query.Atom:
		terms := make([]planTerm, len(x.Terms))
		var err error
		for i, t := range x.Terms {
			terms[i], err = c.term(t)
			if err != nil {
				return nil, err
			}
		}
		free, err := c.freeSlots(x)
		if err != nil {
			return nil, err
		}
		return &atomNode{rel: x.Rel, relIdx: c.relation(x.Rel), terms: terms, free: free}, nil
	case *query.Compare:
		l, err := c.term(x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.term(x.R)
		if err != nil {
			return nil, err
		}
		free, err := c.freeSlots(x)
		if err != nil {
			return nil, err
		}
		return &cmpNode{op: x.Op, l: l, r: r, free: free}, nil
	case *query.And:
		kids := make([]planNode, len(x.Kids))
		for i, k := range x.Kids {
			n, err := c.compile(k)
			if err != nil {
				return nil, err
			}
			kids[i] = n
		}
		free, err := c.freeSlots(x)
		if err != nil {
			return nil, err
		}
		return &andNode{kids: kids, free: free}, nil
	case *query.Or:
		kids := make([]planNode, len(x.Kids))
		for i, k := range x.Kids {
			n, err := c.compile(k)
			if err != nil {
				return nil, err
			}
			kids[i] = n
		}
		free, err := c.freeSlots(x)
		if err != nil {
			return nil, err
		}
		return &orNode{kids: kids, free: free}, nil
	case *query.Exists:
		free, err := c.freeSlots(x)
		if err != nil {
			return nil, err
		}
		varSlots := make([]int, len(x.Vars))
		for i, v := range x.Vars {
			varSlots[i] = c.pushVar(v)
		}
		sub, err := c.compile(x.Sub)
		for i := len(x.Vars) - 1; i >= 0; i-- {
			c.popVar(x.Vars[i])
		}
		if err != nil {
			return nil, err
		}
		return &existsNode{varSlots: varSlots, sub: sub, free: free}, nil
	default:
		return nil, fmt.Errorf("eval: %T in positive plan compilation", f)
	}
}

// freeOf reports the slots a node binds when it succeeds (its free
// variables' slots): the unit the greedy conjunct ordering reasons in.
func freeOf(n planNode) []int {
	switch x := n.(type) {
	case *atomNode:
		return x.free
	case *cmpNode:
		return x.free
	case *andNode:
		return x.free
	case *orNode:
		return x.free
	case *existsNode:
		return x.free
	}
	return nil
}

// ---------------------------------------------------------------------------
// Runtime state.
// ---------------------------------------------------------------------------

// planRun is the per-evaluation state of one Plan execution. It is
// single-goroutine; concurrent evaluations each build their own.
type planRun struct {
	frame []relation.Value
	bound []bool
	insts []*relation.Instance // by relIdx; nil for unknown relations

	// adom is the quantification domain, built by domain() the first
	// time a node ranges over it: positive plans whose atoms bind every
	// variable never do. db, q and extra are its inputs.
	adom     []relation.Value
	adomDone bool
	db       *relation.Database
	q        *query.Query
	extra    *relation.ValueSet

	// Derived decisions, computed on the first frame that reaches a node
	// and reused for the rest of the run. The set of bound slots at any
	// node is invariant across the frames of one run (every operator
	// binds exactly its unbound free slots), so these are run constants.
	orders     map[*andNode][]int
	targets    map[planNode][]int
	strategies map[*atomNode]*atomStrategy

	keyBuf []byte
	tupBuf relation.Tuple
	valBuf []relation.Value

	// Run-local counters flushed once by finish(): plain ints keep the
	// hot row loop free of atomic operations when metrics are enabled
	// and of everything but dead stores when they are not.
	m             *obs.Metrics
	started       time.Time // set only when m != nil; feeds PlanExecNs
	rowsProbed    int64
	rowsEmitted   int64
	shortCircuits int64

	// stats, when non-nil, collects per-node runtime statistics for the
	// annotated rendering of ExplainRun and for sampled profiling. nil
	// on ordinary runs.
	stats map[planNode]*nodeStat
	// timed adds per-node wall-time collection to stats: every exec
	// call pays one boolean test, timed ones a clock pair. Set by
	// ExplainRun and by sampled profiling runs.
	timed bool
	// profile, when non-nil, receives this run's tallies at finish
	// (the run was selected by PlanProfile.sampleNow).
	profile *PlanProfile
}

// nodeStat is one operator's runtime tally in an ExplainRun or
// profiled execution.
type nodeStat struct {
	execs  int64 // times the operator was entered
	rows   int64 // candidate rows probed (atoms only)
	emits  int64 // satisfying extensions passed to the continuation
	wallNs int64 // inclusive wall time inside exec (timed runs only)
}

func (rt *planRun) statFor(n planNode) *nodeStat {
	st := rt.stats[n]
	if st == nil {
		st = &nodeStat{}
		rt.stats[n] = st
	}
	return st
}

// timeNode starts an inclusive wall-time measurement of one exec call;
// the returned stop adds the elapsed time to the node's tally.
// "Inclusive" covers everything the call frames: children and the
// continuation downstream of the node. Only called on timed runs, so
// ordinary runs pay a single boolean test per operator call.
func (rt *planRun) timeNode(n planNode) func() {
	st := rt.statFor(n)
	start := time.Now()
	return func() { st.wallNs += time.Since(start).Nanoseconds() }
}

// finish flushes the run-local counters to the metrics sink and folds
// sampled-profiling runs into their plan's profile.
func (rt *planRun) finish() {
	if rt.profile != nil {
		rt.profile.fold(rt, time.Since(rt.started).Nanoseconds())
	}
	if rt.m == nil {
		return
	}
	rt.m.Inc(obs.PlanRuns)
	rt.m.Add(obs.RowsProbed, rt.rowsProbed)
	rt.m.Add(obs.RowsEmitted, rt.rowsEmitted)
	rt.m.Add(obs.ShortCircuits, rt.shortCircuits)
	rt.m.Observe(obs.PlanExecNs, time.Since(rt.started).Nanoseconds())
}

func (p *Plan) newRun(db *relation.Database, opts Options) (*planRun, error) {
	insts := make([]*relation.Instance, len(p.relNames))
	for i, name := range p.relNames {
		inst := db.Relation(name)
		if inst == nil {
			return nil, fmt.Errorf("eval: unknown relation %s", name)
		}
		insts[i] = inst
	}
	rt := &planRun{
		frame:      make([]relation.Value, p.nSlots),
		bound:      make([]bool, p.nSlots),
		insts:      insts,
		db:         db,
		q:          p.q,
		extra:      opts.ExtraDomain,
		orders:     make(map[*andNode][]int, 4),
		targets:    make(map[planNode][]int, 4),
		strategies: make(map[*atomNode]*atomStrategy, 8),
		keyBuf:     make([]byte, 0, 64),
		m:          opts.Obs,
	}
	if opts.Profiles != nil {
		if prof := opts.Profiles.profileFor(p); prof.sampleNow() {
			rt.profile = prof
			rt.timed = true
			rt.stats = make(map[planNode]*nodeStat, 8)
		}
	}
	if rt.m != nil || rt.profile != nil {
		rt.started = time.Now() // clock read only on instrumented runs
	}
	return rt, nil
}

// domain returns the run's quantification domain, building it on first
// use.
func (rt *planRun) domain() []relation.Value {
	if !rt.adomDone {
		rt.adom = evalDomain(rt.db, rt.q, Options{ExtraDomain: rt.extra})
		rt.adomDone = true
	}
	return rt.adom
}

// valueSlots is the number of values the plan's relations hold: rows
// times arity, summed. It reads only row counts, and it is at least the
// row estimate of every atom that can bind a variable.
func (rt *planRun) valueSlots() float64 {
	n := 0
	for _, inst := range rt.insts {
		n += inst.Len() * inst.Schema().Arity()
	}
	return float64(n)
}

// unboundOf filters slots down to the ones not bound in rt.
func (rt *planRun) unboundOf(slots []int) []int {
	out := make([]int, 0, len(slots))
	for _, s := range slots {
		if !rt.bound[s] {
			out = append(out, s)
		}
	}
	return out
}

// targetsFor returns (and caches) the slots a padding node must bind:
// its free slots that are unbound on entry.
func (rt *planRun) targetsFor(n planNode) []int {
	if t, ok := rt.targets[n]; ok {
		return t
	}
	t := rt.unboundOf(freeOf(n))
	rt.targets[n] = t
	return t
}

// ---------------------------------------------------------------------------
// Atoms.
// ---------------------------------------------------------------------------

type atomNode struct {
	rel    string
	relIdx int
	terms  []planTerm
	free   []int
}

// atomStrategy is the per-run join strategy of one atom: which
// positions carry values known before a row is chosen (constants and
// bound slots — the index key), whether every position does (a pure
// membership test), and the statistics-fed estimate of how many rows
// one probe should return (rendered by ExplainRun next to the measured
// row counts, so mis-estimates are visible).
type atomStrategy struct {
	boundPos  []int // ascending positions with entry-known values
	fullBound bool
	arity     int
	estRows   float64 // estimated rows per probe under this strategy
}

func (rt *planRun) strategyFor(a *atomNode) *atomStrategy {
	if s, ok := rt.strategies[a]; ok {
		return s
	}
	s := &atomStrategy{arity: len(a.terms)}
	seen := make(map[int]bool, len(a.terms))
	full := true
	for i, t := range a.terms {
		known := t.isConst || rt.bound[t.slot]
		if !t.isConst && !rt.bound[t.slot] {
			// A repeated unbound variable's later occurrences are not
			// entry-known either: the row itself supplies the value.
			if seen[t.slot] {
				full = false
				continue
			}
			seen[t.slot] = true
		}
		if known {
			s.boundPos = append(s.boundPos, i)
		} else {
			full = false
		}
	}
	s.fullBound = full && len(s.boundPos) == len(a.terms)
	inst := rt.insts[a.relIdx]
	switch {
	case s.fullBound:
		s.estRows = 1
		if inst.Len() == 0 {
			s.estRows = 0
		}
	default:
		s.estRows = estimateRows(inst, s.boundPos)
	}
	rt.strategies[a] = s
	return s
}

// estimateRows is the shared selectivity model of the planner: the
// instance's cardinality scaled by the per-position selectivity of each
// entry-known column, from the instance's distinct counts (a
// uniform-distribution estimate: binding a column with d distinct
// values keeps 1/d of the rows). An empty instance has no counts and
// estimates 0 rows.
func estimateRows(inst *relation.Instance, boundPos []int) float64 {
	est := float64(inst.Len())
	for _, p := range boundPos {
		if d := inst.DistinctAt(p); d > 0 {
			est /= float64(d)
		}
	}
	return est
}

func (a *atomNode) exec(rt *planRun, k cont) error {
	if rt.timed {
		defer rt.timeNode(a)()
	}
	inst := rt.insts[a.relIdx]
	if inst.Schema().Arity() != len(a.terms) {
		return nil // arity mismatch matches nothing, as in the naive path
	}
	s := rt.strategyFor(a)
	if s.fullBound {
		// Every position is known: a pure membership test against the
		// instance's tuple set.
		if cap(rt.tupBuf) < len(a.terms) {
			rt.tupBuf = make(relation.Tuple, len(a.terms))
		}
		tup := rt.tupBuf[:len(a.terms)]
		for i, t := range a.terms {
			if t.isConst {
				tup[i] = t.c
			} else {
				tup[i] = rt.frame[t.slot]
			}
		}
		rt.rowsProbed++
		if inst.Contains(tup) {
			rt.rowsEmitted++
			if rt.stats != nil {
				rt.statFor(a).note(1, 1)
			}
			return k()
		}
		if rt.stats != nil {
			rt.statFor(a).note(1, 0)
		}
		return nil
	}
	var candidates []relation.Tuple
	if len(s.boundPos) > 0 {
		rt.valBuf = rt.valBuf[:0]
		for _, p := range s.boundPos {
			t := a.terms[p]
			if t.isConst {
				rt.valBuf = append(rt.valBuf, t.c)
			} else {
				rt.valBuf = append(rt.valBuf, rt.frame[t.slot])
			}
		}
		var ok bool
		candidates, ok = inst.LookupIndexed(s.boundPos, rt.valBuf)
		if !ok {
			candidates = inst.Tuples()
		}
	} else {
		candidates = inst.Tuples()
	}
	var newly [8]int
	var probed, emitted int64
	var retErr error
	for _, row := range candidates {
		probed++
		nb := newly[:0]
		match := true
		for i, t := range a.terms {
			switch {
			case t.isConst:
				if t.c != row[i] {
					match = false
				}
			case rt.bound[t.slot]:
				if rt.frame[t.slot] != row[i] {
					match = false
				}
			default:
				rt.frame[t.slot] = row[i]
				rt.bound[t.slot] = true
				nb = append(nb, t.slot)
			}
			if !match {
				break
			}
		}
		var err error
		if match {
			emitted++
			err = k()
		}
		for _, sl := range nb {
			rt.bound[sl] = false
		}
		if err != nil {
			retErr = err
			break
		}
	}
	rt.rowsProbed += probed
	rt.rowsEmitted += emitted
	if rt.stats != nil {
		rt.statFor(a).note(probed, emitted)
	}
	return retErr
}

// note accumulates one exec call's tallies.
func (st *nodeStat) note(rows, emits int64) {
	st.execs++
	st.rows += rows
	st.emits += emits
}

func (a *atomNode) explain(b *strings.Builder, indent string, slotNames []string, rt *planRun) {
	fmt.Fprintf(b, "%satom %s(", indent, a.rel)
	for i, t := range a.terms {
		if i > 0 {
			b.WriteString(", ")
		}
		writeTerm(b, t, slotNames)
	}
	b.WriteString(")")
	if rt != nil {
		if s := rt.strategies[a]; s != nil {
			switch {
			case s.fullBound:
				b.WriteString(" via=member")
			case len(s.boundPos) > 0:
				fmt.Fprintf(b, " via=index%v", s.boundPos)
			default:
				b.WriteString(" via=scan")
			}
		}
		if st := rt.stats[a]; st != nil {
			if s := rt.strategies[a]; s != nil {
				// Estimated rows per probe beside the measured totals:
				// est×execs ≈ rows when the estimate was good.
				fmt.Fprintf(b, " [est=%.3g execs=%d rows=%d emits=%d%s]", s.estRows, st.execs, st.rows, st.emits, nodeTime(st))
			} else {
				fmt.Fprintf(b, " [execs=%d rows=%d emits=%d%s]", st.execs, st.rows, st.emits, nodeTime(st))
			}
		}
	}
	b.WriteString("\n")
}

func writeTerm(b *strings.Builder, t planTerm, slotNames []string) {
	if t.isConst {
		fmt.Fprintf(b, "'%s'", string(t.c))
	} else {
		fmt.Fprintf(b, "%s#%d", slotNames[t.slot], t.slot)
	}
}

// ---------------------------------------------------------------------------
// Comparisons.
// ---------------------------------------------------------------------------

type cmpNode struct {
	op   query.CmpOp
	l, r planTerm
	free []int
}

func (c *cmpNode) resolve(rt *planRun, t planTerm) (relation.Value, bool) {
	if t.isConst {
		return t.c, true
	}
	if rt.bound[t.slot] {
		return rt.frame[t.slot], true
	}
	return "", false
}

func (c *cmpNode) exec(rt *planRun, k cont) error {
	if rt.timed {
		defer rt.timeNode(c)()
	}
	k = countEmits(rt, c, k)
	lv, lok := c.resolve(rt, c.l)
	rv, rok := c.resolve(rt, c.r)
	switch {
	case lok && rok:
		if (c.op == query.Eq) == (lv == rv) {
			return k()
		}
		return nil
	case lok:
		return c.bindAgainst(rt, c.r.slot, lv, k)
	case rok:
		return c.bindAgainst(rt, c.l.slot, rv, k)
	default:
		// Both sides unbound variables: range the left over the domain,
		// then bind the right against it (the naive evaluator's rule).
		// One variable on both sides is bound by the left: x = x holds
		// for every value, x ≠ x for none.
		for _, v := range rt.domain() {
			rt.frame[c.l.slot] = v
			rt.bound[c.l.slot] = true
			var err error
			if c.r.slot != c.l.slot {
				err = c.bindAgainst(rt, c.r.slot, v, k)
			} else if c.op == query.Eq {
				err = k()
			}
			rt.bound[c.l.slot] = false
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// bindAgainst assigns slot so that (slot op val) holds: pinned for =,
// ranging over the active domain for ≠.
func (c *cmpNode) bindAgainst(rt *planRun, slot int, val relation.Value, k cont) error {
	if c.op == query.Eq {
		rt.frame[slot] = val
		rt.bound[slot] = true
		err := k()
		rt.bound[slot] = false
		return err
	}
	for _, v := range rt.domain() {
		if v == val {
			continue
		}
		rt.frame[slot] = v
		rt.bound[slot] = true
		err := k()
		rt.bound[slot] = false
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *cmpNode) explain(b *strings.Builder, indent string, slotNames []string, rt *planRun) {
	b.WriteString(indent)
	b.WriteString("cmp ")
	writeTerm(b, c.l, slotNames)
	fmt.Fprintf(b, " %s ", c.op)
	writeTerm(b, c.r, slotNames)
	writeStat(b, rt, c)
	b.WriteString("\n")
}

// writeStat appends an operator's runtime tally when one was collected.
func writeStat(b *strings.Builder, rt *planRun, n planNode) {
	if rt == nil {
		return
	}
	if st := rt.stats[n]; st != nil {
		fmt.Fprintf(b, " [execs=%d emits=%d%s]", st.execs, st.emits, nodeTime(st))
	}
}

// ---------------------------------------------------------------------------
// Conjunction with greedy runtime ordering.
// ---------------------------------------------------------------------------

type andNode struct {
	kids []planNode
	free []int
}

// orderFor computes (once per run) the execution order of the
// conjuncts: repeatedly pick the cheapest conjunct under the simulated
// bound set, estimating atoms by cardinality discounted per bound
// column and scheduling unbound comparisons and padding operators last.
// Ties break on syntactic position, so the order is deterministic.
func (rt *planRun) orderFor(a *andNode) []int {
	if o, ok := rt.orders[a]; ok {
		return o
	}
	boundSim := make([]bool, len(rt.bound))
	copy(boundSim, rt.bound)
	order := make([]int, 0, len(a.kids))
	picked := make([]bool, len(a.kids))
	for len(order) < len(a.kids) {
		best, bestCost := -1, 0.0
		for i, kid := range a.kids {
			if picked[i] {
				continue
			}
			cost := conjCost(rt, kid, boundSim)
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		picked[best] = true
		order = append(order, best)
		for _, s := range freeOf(a.kids[best]) {
			boundSim[s] = true
		}
	}
	rt.orders[a] = order
	return order
}

// conjCost estimates the fan-out of executing kid under the simulated
// bound set: 0 for pure filters, cardinality-scaled for atoms, and
// large penalties for operators that enumerate the active domain. A
// comparison that ranges the domain is priced by the plan's value
// slots (valueSlots) rather than by the domain itself: pricing a node
// must not build the domain it would range over, which a positive plan
// may never need, and the slots bound the estimate of every atom that
// can bind its variables, so it still runs after those atoms.
// Atom estimates come from the storage layer's per-position distinct
// counts (estimateRows), so the greedy order reacts to the actual data
// shape rather than a fixed per-bound-column discount.
func conjCost(rt *planRun, kid planNode, boundSim []bool) float64 {
	known := func(t planTerm) bool { return t.isConst || boundSim[t.slot] }
	unboundFree := func(slots []int) int {
		n := 0
		for _, s := range slots {
			if !boundSim[s] {
				n++
			}
		}
		return n
	}
	switch n := kid.(type) {
	case *atomNode:
		var posArr [16]int
		bound := posArr[:0]
		for i, t := range n.terms {
			if known(t) {
				bound = append(bound, i)
			}
		}
		if len(bound) == len(n.terms) {
			return 0 // membership filter
		}
		return 2 + estimateRows(rt.insts[n.relIdx], bound)
	case *cmpNode:
		lb, rb := known(n.l), known(n.r)
		switch {
		case lb && rb:
			return 0
		case lb || rb:
			if n.op == query.Eq {
				return 1 // pins one variable
			}
			return 50000 + rt.valueSlots() // ≠ ranges the domain
		default:
			v := rt.valueSlots()
			return 100000 + v*v // ranges the domain squared
		}
	case *existsNode:
		if u := unboundFree(n.free); u > 0 {
			return 10000 + float64(u)
		}
		return 1 // semi-join filter
	case *orNode:
		if u := unboundFree(n.free); u > 0 {
			return 20000 + float64(u)
		}
		return 1
	case *andNode:
		if u := unboundFree(n.free); u > 0 {
			return 30000 + float64(u)
		}
		return 1
	}
	return 1e9
}

func (a *andNode) exec(rt *planRun, k cont) error {
	if rt.timed {
		defer rt.timeNode(a)()
	}
	k = countEmits(rt, a, k)
	order := rt.orderFor(a)
	var step func(i int) error
	step = func(i int) error {
		if i == len(order) {
			return k()
		}
		return a.kids[order[i]].exec(rt, func() error { return step(i + 1) })
	}
	return step(0)
}

func (a *andNode) explain(b *strings.Builder, indent string, slotNames []string, rt *planRun) {
	b.WriteString(indent)
	b.WriteString("and")
	order := []int(nil)
	if rt != nil {
		if o, ok := rt.orders[a]; ok {
			fmt.Fprintf(b, " order=%v", o)
			order = o
		}
		writeStat(b, rt, a)
	}
	b.WriteString("\n")
	if order != nil {
		// Render the conjuncts in the order the run executed them.
		for _, i := range order {
			a.kids[i].explain(b, indent+"  ", slotNames, rt)
		}
		return
	}
	for _, kid := range a.kids {
		kid.explain(b, indent+"  ", slotNames, rt)
	}
}

// ---------------------------------------------------------------------------
// Disjunction and existential quantification: per-frame deduplicated
// extension sets, with a first-witness short circuit when the operator
// binds nothing new.
// ---------------------------------------------------------------------------

type orNode struct {
	kids []planNode
	free []int
}

func (o *orNode) exec(rt *planRun, k cont) error {
	if rt.timed {
		defer rt.timeNode(o)()
	}
	k = countEmits(rt, o, k)
	targets := rt.targetsFor(o)
	if len(targets) == 0 {
		// Pure filter: succeed once if any disjunct matches.
		for _, kid := range o.kids {
			found, err := probe(rt, kid)
			if err != nil {
				return err
			}
			if found {
				return k()
			}
		}
		return nil
	}
	col := collector{rt: rt, targets: targets, seen: map[string]struct{}{}}
	for _, kid := range o.kids {
		if err := kid.exec(rt, col.collect); err != nil {
			return err
		}
	}
	return col.emit(k)
}

func (o *orNode) explain(b *strings.Builder, indent string, slotNames []string, rt *planRun) {
	b.WriteString(indent)
	b.WriteString("or")
	writeStat(b, rt, o)
	b.WriteString("\n")
	for _, kid := range o.kids {
		kid.explain(b, indent+"  ", slotNames, rt)
	}
}

type existsNode struct {
	varSlots []int
	sub      planNode
	free     []int
}

func (e *existsNode) exec(rt *planRun, k cont) error {
	if rt.timed {
		defer rt.timeNode(e)()
	}
	k = countEmits(rt, e, k)
	targets := rt.targetsFor(e)
	if len(targets) == 0 {
		// Semi-join: one witness of the subformula suffices.
		found, err := probe(rt, e.sub)
		if err != nil {
			return err
		}
		if found {
			return k()
		}
		return nil
	}
	col := collector{rt: rt, targets: targets, seen: map[string]struct{}{}}
	if err := e.sub.exec(rt, col.collect); err != nil {
		return err
	}
	return col.emit(k)
}

func (e *existsNode) explain(b *strings.Builder, indent string, slotNames []string, rt *planRun) {
	b.WriteString(indent)
	b.WriteString("exists")
	for _, s := range e.varSlots {
		fmt.Fprintf(b, " %s#%d", slotNames[s], s)
	}
	writeStat(b, rt, e)
	b.WriteString("\n")
	e.sub.explain(b, indent+"  ", slotNames, rt)
}

// probe reports whether n has at least one satisfying extension,
// stopping at the first.
func probe(rt *planRun, n planNode) (bool, error) {
	err := n.exec(rt, func() error { return errFound })
	if err == errFound {
		rt.shortCircuits++
		return true, nil
	}
	return false, err
}

// countEmits instruments an operator's continuation for ExplainRun; on
// ordinary runs (rt.stats == nil) it returns k unchanged.
func countEmits(rt *planRun, n planNode, k cont) cont {
	if rt.stats == nil {
		return k
	}
	st := rt.statFor(n)
	st.execs++
	return func() error { st.emits++; return k() }
}

// collector deduplicates the extensions an Or or Exists contributes
// over its target slots; target slots the subformula left unbound are
// padded over the active domain, as in the naive evaluator.
type collector struct {
	rt      *planRun
	targets []int
	seen    map[string]struct{}
	exts    []relation.Value // flattened rows of len(targets)
}

func (c *collector) collect() error {
	return c.pad(0)
}

func (c *collector) pad(i int) error {
	rt := c.rt
	if i == len(c.targets) {
		rt.keyBuf = rt.keyBuf[:0]
		for _, s := range c.targets {
			rt.keyBuf = relation.AppendValueKey(rt.keyBuf, rt.frame[s])
		}
		if _, dup := c.seen[string(rt.keyBuf)]; dup {
			return nil
		}
		c.seen[string(rt.keyBuf)] = struct{}{}
		for _, s := range c.targets {
			c.exts = append(c.exts, rt.frame[s])
		}
		return nil
	}
	s := c.targets[i]
	if rt.bound[s] {
		return c.pad(i + 1)
	}
	for _, v := range rt.domain() {
		rt.frame[s] = v
		rt.bound[s] = true
		err := c.pad(i + 1)
		rt.bound[s] = false
		if err != nil {
			return err
		}
	}
	return nil
}

// emit replays the distinct extensions through the continuation.
func (c *collector) emit(k cont) error {
	rt := c.rt
	w := len(c.targets)
	for i := 0; i < len(c.exts); i += w {
		for j, s := range c.targets {
			rt.frame[s] = c.exts[i+j]
			rt.bound[s] = true
		}
		err := k()
		for _, s := range c.targets {
			rt.bound[s] = false
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Plan entry points.
// ---------------------------------------------------------------------------

// ForEach runs the plan on db and calls fn once per distinct answer
// tuple, in first-derivation order (not sorted). fn may return Stop to
// end the enumeration early. The tuple passed to fn is fresh and may be
// retained.
func (p *Plan) ForEach(db *relation.Database, opts Options, fn func(relation.Tuple) error) error {
	rt, err := p.newRun(db, opts)
	if err != nil {
		return err
	}
	return p.forEach(rt, fn)
}

// forEach enumerates distinct answers on a caller-built run (shared by
// ForEach and ExplainRun) and flushes the run's counters.
func (p *Plan) forEach(rt *planRun, fn func(relation.Tuple) error) error {
	seen := map[string]bool{}
	err := p.root.exec(rt, func() error {
		t := make(relation.Tuple, len(p.head))
		for i, h := range p.head {
			if h.isConst {
				t[i] = h.c
				continue
			}
			if !rt.bound[h.slot] {
				return nil // defensively skip, as the naive path does
			}
			t[i] = rt.frame[h.slot]
		}
		rt.keyBuf = t.AppendKey(rt.keyBuf[:0])
		if seen[string(rt.keyBuf)] {
			return nil
		}
		seen[string(rt.keyBuf)] = true
		return fn(t)
	})
	rt.finish()
	if err == Stop {
		return nil
	}
	return err
}

// Answers runs the plan on db and returns the answer set in the same
// deterministic order as Answers.
func (p *Plan) Answers(db *relation.Database, opts Options) ([]relation.Tuple, error) {
	if err := opts.Fault.Visit(fault.SiteEvalAnswers); err != nil {
		return nil, err
	}
	if err := opts.interrupted(); err != nil {
		return nil, err
	}
	var out []relation.Tuple
	err := p.ForEach(db, opts, func(t relation.Tuple) error {
		out = append(out, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, nil
}

// Bool evaluates a Boolean query with a first-witness short circuit.
func (p *Plan) Bool(db *relation.Database, opts Options) (bool, error) {
	if err := opts.Fault.Visit(fault.SiteEvalAnswers); err != nil {
		return false, err
	}
	if !p.q.IsBoolean() {
		return false, fmt.Errorf("eval: query %s is not Boolean", p.q.Name)
	}
	rt, err := p.newRun(db, opts)
	if err != nil {
		return false, err
	}
	found, err := probe(rt, p.root)
	rt.finish()
	return found, err
}

// Explain renders the compiled plan: the slot table and operator tree.
// The rendering is deterministic for a given query, which the plan
// stability test and the golden test rely on.
func (p *Plan) Explain() string { return p.render(nil) }

// ExplainRun executes the plan on db to completion and renders the
// operator tree annotated with runtime decisions and statistics: the
// conjunct order each and-node chose, every atom's access path
// (index probe, membership test or scan) and per-operator probe/emit
// tallies. This is the runtime counterpart of Explain, used by the
// -trace mode of the CLIs.
func (p *Plan) ExplainRun(db *relation.Database, opts Options) (string, error) {
	rt, err := p.newRun(db, opts)
	if err != nil {
		return "", err
	}
	rt.stats = map[planNode]*nodeStat{}
	rt.timed = true
	answers := 0
	if err := p.forEach(rt, func(relation.Tuple) error { answers++; return nil }); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(p.render(rt))
	fmt.Fprintf(&b, "  run: answers=%d rows_probed=%d rows_emitted=%d short_circuits=%d adom=%d\n",
		answers, rt.rowsProbed, rt.rowsEmitted, rt.shortCircuits, len(rt.domain()))
	return b.String(), nil
}

// render writes the slot table header and operator tree; a non-nil rt
// annotates the tree with that run's statistics.
func (p *Plan) render(rt *planRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s: %d slots [", p.q.Name, p.nSlots)
	for i, n := range p.slotNames {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d=%s", i, n)
	}
	b.WriteString("] head(")
	for i, h := range p.head {
		if i > 0 {
			b.WriteString(", ")
		}
		writeTerm(&b, h, p.slotNames)
	}
	b.WriteString(")\n")
	p.root.explain(&b, "  ", p.slotNames, rt)
	return b.String()
}
