// Package cc implements the containment constraints (CCs) of the paper:
// expressions q(R) ⊆ p(Rm) where q is a conjunctive query (with = and ≠)
// over the database schema R and p is a projection query over the master
// data schema Rm. A ground instance I and master data Dm satisfy the CC
// when q(I) ⊆ p(Dm).
//
// The package also provides the constraint classes the paper discusses
// alongside CCs: functional dependencies and denial constraints (which
// CCs can encode, Example 2.1), and inclusion dependencies (which CCs in
// CQ cannot, Proposition 3.1 — they are kept as a separate type used by
// the undecidability gadget and by the tractable RCQP case of
// Corollary 7.2).
package cc

import (
	"fmt"
	"strings"
	"sync"

	"relcomplete/internal/eval"
	"relcomplete/internal/obs"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// Constraint is one containment constraint q(R) ⊆ p(Rm).
type Constraint struct {
	Name  string
	Left  *query.Query // q, over the data schema; must be CQ
	Right *query.Query // p, over the master schema; must be CQ (projection queries are the paper's case)

	// planMu guards the lazily compiled plans and the per-master RHS
	// answer cache. The deciders check the same CC against thousands of
	// candidate instances from worker goroutines while Dm stays fixed,
	// so both sides compile once and p(Dm) is keyed by the master
	// database identity.
	planMu    sync.Mutex
	planTried bool
	leftPlan  *eval.Plan
	rightPlan *eval.Plan
	identity  string // master relation of an identity-projection right side, see identityRel
	rhsCache  map[*relation.Database]*rhsEntry
}

// rhsEntry memoises p(Dm) for one master database. Databases mutate in
// place only by growing (inserts and SetRelation; deletion always
// copies), so the snapshot of instance identities and row counts
// detects every stale entry.
type rhsEntry struct {
	insts []*relation.Instance
	lens  []int
	set   map[string]bool
}

func (e *rhsEntry) fresh(db *relation.Database) bool {
	rels := db.Schema().Relations()
	if len(rels) != len(e.insts) {
		return false
	}
	for i, r := range rels {
		inst := db.Relation(r.Name)
		if inst != e.insts[i] || inst.Len() != e.lens[i] {
			return false
		}
	}
	return true
}

func snapshotEntry(db *relation.Database, set map[string]bool) *rhsEntry {
	rels := db.Schema().Relations()
	e := &rhsEntry{insts: make([]*relation.Instance, len(rels)), lens: make([]int, len(rels)), set: set}
	for i, r := range rels {
		inst := db.Relation(r.Name)
		e.insts[i] = inst
		e.lens[i] = inst.Len()
	}
	return e
}

// New validates and builds a CC. Both sides must be conjunctive
// (allowing = and ≠) and have equal output arity.
func New(name string, left, right *query.Query) (*Constraint, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("cc %s: nil side", name)
	}
	if cls := query.Classify(left); cls != query.ClassCQ {
		return nil, fmt.Errorf("cc %s: left side is %v, want CQ", name, cls)
	}
	if cls := query.Classify(right); cls != query.ClassCQ {
		return nil, fmt.Errorf("cc %s: right side is %v, want CQ", name, cls)
	}
	if left.Arity() != right.Arity() {
		return nil, fmt.Errorf("cc %s: arity mismatch %d vs %d", name, left.Arity(), right.Arity())
	}
	return &Constraint{Name: name, Left: left, Right: right}, nil
}

// Must is New that panics on error.
func Must(name string, left, right *query.Query) *Constraint {
	c, err := New(name, left, right)
	if err != nil {
		panic(err)
	}
	return c
}

// Parse builds a CC from the text forms of its two queries.
func Parse(name, left, right string) (*Constraint, error) {
	l, err := query.ParseQuery(left)
	if err != nil {
		return nil, fmt.Errorf("cc %s: left: %w", name, err)
	}
	r, err := query.ParseQuery(right)
	if err != nil {
		return nil, fmt.Errorf("cc %s: right: %w", name, err)
	}
	return New(name, l, r)
}

// MustParse is Parse that panics on error.
func MustParse(name, left, right string) *Constraint {
	c, err := Parse(name, left, right)
	if err != nil {
		panic(err)
	}
	return c
}

// Satisfied reports (I, Dm) ⊨ φ, i.e. q(I) ⊆ p(Dm). The compiled path
// streams q(I) and stops at the first tuple outside p(Dm) instead of
// materialising and sorting both answer sets. When p is the identity
// projection of a master relation, p(Dm) is that relation, and
// membership is a probe of the master instance itself.
func (c *Constraint) Satisfied(db, master *relation.Database, opts eval.Options) (bool, error) {
	lp, rp, identity := c.plans(opts)
	if lp == nil || rp == nil {
		return c.satisfiedNaive(db, master, opts)
	}
	// p(Dm) is materialised lazily, on the first q-tuple: an empty left
	// side must not evaluate (or demand relations of) the right side,
	// exactly as the two-phase check behaved.
	var inRHS map[string]bool
	var rhsErr error
	var rm *relation.Instance
	if identity != "" {
		if rm = master.Relation(identity); rm != nil && rm.Schema().Arity() != c.Right.Arity() {
			rm = nil // evaluate the plan, as for any other right side
		}
	}
	ok := true
	keyBuf := make([]byte, 0, 64)
	err := lp.ForEach(db, opts, func(t relation.Tuple) error {
		if rm != nil {
			if !rm.Contains(t) {
				ok = false
				return eval.Stop
			}
			return nil
		}
		if inRHS == nil {
			if inRHS, rhsErr = c.rhsSet(rp, master, opts); rhsErr != nil {
				return eval.Stop
			}
		}
		keyBuf = t.AppendKey(keyBuf[:0])
		if !inRHS[string(keyBuf)] {
			ok = false
			return eval.Stop
		}
		return nil
	})
	if err == nil {
		err = rhsErr
	}
	if err != nil {
		return false, fmt.Errorf("cc %s: %w", c.Name, err)
	}
	return ok, nil
}

// satisfiedNaive is the original materialise-both-sides check: the
// fallback for uncompilable sides, and the reference the streaming
// check is tested against.
func (c *Constraint) satisfiedNaive(db, master *relation.Database, opts eval.Options) (bool, error) {
	lhs, err := eval.Answers(db, c.Left, opts)
	if err != nil {
		return false, fmt.Errorf("cc %s: %w", c.Name, err)
	}
	if len(lhs) == 0 {
		return true, nil
	}
	rhs, err := eval.Answers(master, c.Right, opts)
	if err != nil {
		return false, fmt.Errorf("cc %s: %w", c.Name, err)
	}
	inRHS := make(map[string]bool, len(rhs))
	for _, t := range rhs {
		inRHS[t.Key()] = true
	}
	for _, t := range lhs {
		if !inRHS[t.Key()] {
			return false, nil
		}
	}
	return true, nil
}

// plans compiles both sides once and recognises an identity-projection
// right side. Compilation of a validated CC (both sides CQ) cannot
// fail; a nil result routes to the naive path anyway.
func (c *Constraint) plans(opts eval.Options) (*eval.Plan, *eval.Plan, string) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if !c.planTried {
		c.planTried = true
		c.leftPlan, _ = eval.Compile(c.Left)
		c.rightPlan, _ = eval.Compile(c.Right)
		c.identity = identityRel(c.Right)
		if c.leftPlan != nil {
			opts.Obs.Inc(obs.PlanCompilations)
		}
		if c.rightPlan != nil {
			opts.Obs.Inc(obs.PlanCompilations)
		}
	} else if c.leftPlan != nil || c.rightPlan != nil {
		opts.Obs.Inc(obs.PlanCacheHits)
	}
	return c.leftPlan, c.rightPlan, c.identity
}

// identityRel returns Rm when q is p(x̄) := Rm(x̄) with distinct
// variables in head order, so that q(Dm) is the Rm instance itself;
// "" otherwise.
func identityRel(q *query.Query) string {
	a, ok := q.Body.(*query.Atom)
	if !ok || len(a.Terms) != len(q.Head) {
		return ""
	}
	seen := make(map[string]bool, len(a.Terms))
	for i, t := range a.Terms {
		if !t.IsVar || !q.Head[i].IsVar || q.Head[i].Name != t.Name || seen[t.Name] {
			return ""
		}
		seen[t.Name] = true
	}
	return a.Rel
}

// rhsCacheMax bounds the number of distinct master databases memoised
// per constraint; a decision run uses one.
const rhsCacheMax = 8

// rhsSet returns the key set of p(Dm), memoised per master database.
// ExtraDomain can change answer sets (via ≠ and unbound comparisons
// ranging over the active domain), so runs that set it bypass the memo.
func (c *Constraint) rhsSet(rp *eval.Plan, master *relation.Database, opts eval.Options) (map[string]bool, error) {
	cacheable := opts.ExtraDomain == nil
	if cacheable {
		c.planMu.Lock()
		if e, ok := c.rhsCache[master]; ok {
			if e.fresh(master) {
				c.planMu.Unlock()
				opts.Obs.Inc(obs.RHSCacheHits)
				return e.set, nil
			}
			opts.Obs.Inc(obs.RHSCacheInvalidations)
		}
		c.planMu.Unlock()
		opts.Obs.Inc(obs.RHSCacheMisses)
	}
	set := make(map[string]bool)
	keyBuf := make([]byte, 0, 64)
	err := rp.ForEach(master, opts, func(t relation.Tuple) error {
		keyBuf = t.AppendKey(keyBuf[:0])
		set[string(keyBuf)] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cacheable {
		c.planMu.Lock()
		if len(c.rhsCache) >= rhsCacheMax {
			c.rhsCache = nil
		}
		if c.rhsCache == nil {
			c.rhsCache = make(map[*relation.Database]*rhsEntry, 1)
		}
		c.rhsCache[master] = snapshotEntry(master, set)
		c.planMu.Unlock()
	}
	return set, nil
}

// String renders the CC.
func (c *Constraint) String() string {
	return fmt.Sprintf("%s: %s ⊆ %s", c.Name, c.Left, c.Right)
}

// Set is a collection V of CCs.
type Set struct {
	Constraints []*Constraint
}

// NewSet builds a CC set.
func NewSet(cs ...*Constraint) *Set { return &Set{Constraints: cs} }

// Add appends constraints to the set.
func (s *Set) Add(cs ...*Constraint) { s.Constraints = append(s.Constraints, cs...) }

// Len returns the number of constraints.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Constraints)
}

// Satisfied reports (I, Dm) ⊨ V.
func (s *Set) Satisfied(db, master *relation.Database, opts eval.Options) (bool, error) {
	if s == nil {
		return true, nil
	}
	for _, c := range s.Constraints {
		ok, err := c.Satisfied(db, master, opts)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// Violations returns the constraints violated by (db, master), in order.
func (s *Set) Violations(db, master *relation.Database, opts eval.Options) ([]*Constraint, error) {
	if s == nil {
		return nil, nil
	}
	var out []*Constraint
	for _, c := range s.Constraints {
		ok, err := c.Satisfied(db, master, opts)
		if err != nil {
			return nil, err
		}
		if !ok {
			out = append(out, c)
		}
	}
	return out, nil
}

// Constants collects the constants mentioned by all CCs of the set.
func (s *Set) Constants(dst *relation.ValueSet) *relation.ValueSet {
	if dst == nil {
		dst = relation.NewValueSet()
	}
	if s == nil {
		return dst
	}
	for _, c := range s.Constraints {
		query.QueryConstants(c.Left, dst)
		query.QueryConstants(c.Right, dst)
	}
	return dst
}

// Vars counts the distinct variables across the left sides — used for
// Adom sizing.
func (s *Set) Vars() []string {
	seen := map[string]bool{}
	if s != nil {
		for _, c := range s.Constraints {
			for _, v := range query.AllVars(c.Left.Body) {
				seen[c.Name+"/"+v] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	return out
}

// String renders the set.
func (s *Set) String() string {
	parts := make([]string, s.Len())
	for i, c := range s.Constraints {
		parts[i] = c.String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}

// Merge rewrites every left side for the merged single-relation schema
// of Lemma 3.2 (the paper's fC); right sides address master data and are
// unchanged.
func (s *Set) Merge(m *relation.Merger) (*Set, error) {
	out := &Set{Constraints: make([]*Constraint, s.Len())}
	for i, c := range s.Constraints {
		left, err := query.MergeQuery(m, c.Left)
		if err != nil {
			return nil, fmt.Errorf("cc %s: %w", c.Name, err)
		}
		out.Constraints[i] = &Constraint{Name: c.Name, Left: left, Right: c.Right}
	}
	return out, nil
}

// FullContainment builds the CC R ⊆ Rm stating that the whole data
// relation is bounded by a master relation of the same arity — the
// workhorse of the paper's reductions (e.g. R(0,1) ⊆ Rm(0,1)).
func FullContainment(name string, dataRel *relation.Schema, masterRel *relation.Schema) (*Constraint, error) {
	if dataRel.Arity() != masterRel.Arity() {
		return nil, fmt.Errorf("cc %s: arity mismatch %d vs %d", name, dataRel.Arity(), masterRel.Arity())
	}
	head := make([]query.Term, dataRel.Arity())
	for i := range head {
		head[i] = query.V(fmt.Sprintf("x%d", i+1))
	}
	left := query.MustQuery(name+"_q", head, query.NewAtom(dataRel.Name, head...))
	right := query.MustQuery(name+"_p", head, query.NewAtom(masterRel.Name, head...))
	return New(name, left, right)
}

// MustFullContainment is FullContainment that panics on error.
func MustFullContainment(name string, dataRel, masterRel *relation.Schema) *Constraint {
	c, err := FullContainment(name, dataRel, masterRel)
	if err != nil {
		panic(c)
	}
	return c
}
