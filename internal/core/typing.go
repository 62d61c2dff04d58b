package core

import (
	"context"
	"encoding/binary"
	"fmt"

	"relcomplete/internal/adom"
	"relcomplete/internal/ctable"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// Typed domains: a sound pruning of the active domain.
//
// The paper's procedures valuate every variable over the whole Adom.
// Most of those valuations are indistinguishable: a value can influence
// a CC check, a query answer or a condition only through the column
// positions it occupies, and two positions interact only when some CC,
// query, FP rule or c-table condition syntactically links them (a
// shared variable, a comparison, or the elementwise correspondence of
// a CC's two heads). Partitioning positions into such compatibility
// classes and restricting each variable and lattice column to
//
//	constants observed at its class ∪ unattributable constants ∪
//	the class's fresh values
//
// preserves every verdict: for any valuation outside the restriction,
// remapping each out-of-class value to a class-fresh value (injectively
// per class, preserving within-class equality) yields a valuation
// inside it, and no CC/query/condition can tell the two apart because
// any observation of a dropped equality would require a syntactic link
// between the classes — which would have merged them. The construction
// errs on the side of merging and of attributing constants broadly, so
// over-approximation only enlarges candidate sets.
//
// Options.NoTypedDomains disables the pruning (every enumeration falls
// back to the full Adom); the test-suite runs both paths differentially.

// position identifies one column of a data, master or IDB relation.
type position struct {
	rel string
	col int
}

// typing is the computed partition with each class's candidate
// values, built once per domains and shared read-only by every
// enumeration over it.
type typing struct {
	class map[position]int
	// cands holds, per class, the sorted candidates of its positions:
	// the class's constants and fresh values plus shared.
	cands [][]relation.Value
	// shared holds, sorted, the constants attributed to no class and
	// the fresh values available to every class.
	shared []relation.Value
}

// classParts is the partition before compaction into a typing: per
// class the sorted master columns at its positions (blocks, shared with
// the master's instances), the other constants observed at it and its
// fresh values (both may repeat), the constants attributed to no class,
// and the fresh values every class receives.
type classParts struct {
	class  map[position]int
	blocks [][][]relation.Value
	consts [][]relation.Value
	fresh  [][]relation.Value
	global []relation.Value
	every  []relation.Value
}

// compact builds each class's sorted candidate slice once, merging its
// blocks with its deduplicated constants, fresh values and the shared
// values.
func (cp *classParts) compact() *typing {
	shared := relation.MergeValues(relation.DedupValues(cp.global), relation.DedupValues(cp.every))
	ty := &typing{class: cp.class, cands: make([][]relation.Value, len(cp.consts)), shared: shared}
	for cl := range cp.consts {
		parts := append(cp.blocks[cl], relation.DedupValues(cp.consts[cl]), relation.DedupValues(cp.fresh[cl]), shared)
		ty.cands[cl] = relation.MergeValues(parts...)
	}
	return ty
}

// unionFind over interned position ids.
type unionFind struct {
	id     map[position]int
	parent []int
}

func newUnionFind() *unionFind { return &unionFind{id: map[position]int{}} }

func (u *unionFind) intern(p position) int {
	if i, ok := u.id[p]; ok {
		return i
	}
	i := len(u.parent)
	u.id[p] = i
	u.parent = append(u.parent, i)
	return i
}

func (u *unionFind) find(i int) int {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

func (u *unionFind) union(a, b position) {
	ra, rb := u.find(u.intern(a)), u.find(u.intern(b))
	u.parent[ra] = rb
}

// varSites records, per variable name, the positions it occupies within
// one linking scope (a query, a CC side pair, a rule).
type varSites map[string][]position

func (vs varSites) add(v string, p position) { vs[v] = append(vs[v], p) }

// computeTyping builds the typed domains for this problem and
// c-instance over the already-built Adom (whose fresh values are
// reused). It returns nil when typing is disabled.
func (p *Problem) computeTyping(ci *ctable.CInstance, a *adom.Adom) (*typing, error) {
	if p.Options.NoTypedDomains {
		return nil, nil
	}
	cp, err := p.classify(ci, a)
	if err != nil {
		return nil, err
	}
	return cp.compact(), nil
}

// classify partitions the positions into compatibility classes and
// attributes the constants and fresh values of Adom to them.
func (p *Problem) classify(ci *ctable.CInstance, a *adom.Adom) (*classParts, error) {
	uf := newUnionFind()
	// Constants with the positions they were observed at; position nil
	// (ok=false) means unattributable.
	type constObs struct {
		v   relation.Value
		at  position
		has bool
	}
	var obs []constObs
	observe := func(v relation.Value, at position) { obs = append(obs, constObs{v: v, at: at, has: true}) }
	observeGlobal := func(v relation.Value) { obs = append(obs, constObs{v: v}) }

	// linkFormula walks a formula, interning positions, linking
	// positions shared by a variable, linking compared variables'
	// positions, and attributing constants. It returns the sites map so
	// callers can link across formulas (CC head correspondence).
	var linkFormula func(f query.Formula, sites varSites) error
	linkFormula = func(f query.Formula, sites varSites) error {
		switch x := f.(type) {
		case *query.Atom:
			for i, t := range x.Terms {
				pos := position{rel: x.Rel, col: i}
				uf.intern(pos)
				if t.IsVar {
					sites.add(t.Name, pos)
				} else {
					observe(t.Const, pos)
				}
			}
		case *query.Compare:
			switch {
			case x.L.IsVar && x.R.IsVar:
				// Link the two variables' sites after the walk; record
				// through a synthetic shared pseudo-site.
				pseudo := position{rel: "·cmp·" + x.L.Name + "·" + x.R.Name, col: 0}
				uf.intern(pseudo)
				sites.add(x.L.Name, pseudo)
				sites.add(x.R.Name, pseudo)
			case x.L.IsVar && !x.R.IsVar:
				pseudo := position{rel: "·cc·" + x.L.Name, col: 0}
				uf.intern(pseudo)
				sites.add(x.L.Name, pseudo)
				observe(x.R.Const, pseudo)
			case !x.L.IsVar && x.R.IsVar:
				pseudo := position{rel: "·cc·" + x.R.Name, col: 0}
				uf.intern(pseudo)
				sites.add(x.R.Name, pseudo)
				observe(x.L.Const, pseudo)
			default:
				observeGlobal(x.L.Const)
				observeGlobal(x.R.Const)
			}
		case *query.And:
			for _, k := range x.Kids {
				if err := linkFormula(k, sites); err != nil {
					return err
				}
			}
		case *query.Or:
			for _, k := range x.Kids {
				if err := linkFormula(k, sites); err != nil {
					return err
				}
			}
		case *query.Not:
			return linkFormula(x.Sub, sites)
		case *query.Exists:
			return linkFormula(x.Sub, sites)
		case *query.Forall:
			return linkFormula(x.Sub, sites)
		}
		return nil
	}
	linkSites := func(sites varSites) {
		for _, ps := range sites {
			for i := 1; i < len(ps); i++ {
				uf.union(ps[0], ps[i])
			}
		}
	}
	// headSites returns, per head index, a representative site list.
	headSites := func(q *query.Query, sites varSites) [][]position {
		out := make([][]position, len(q.Head))
		for i, h := range q.Head {
			if h.IsVar {
				out[i] = sites[h.Name]
			} else {
				// A constant head is attributed when the other side
				// provides positions; collected by the caller.
				out[i] = nil
			}
		}
		return out
	}

	// Data and master schema positions exist even when unmentioned.
	for _, r := range p.Schema.Relations() {
		for i := 0; i < r.Arity(); i++ {
			uf.intern(position{rel: r.Name, col: i})
		}
	}
	for _, r := range p.Master.Schema().Relations() {
		for i := 0; i < r.Arity(); i++ {
			uf.intern(position{rel: r.Name, col: i})
		}
	}

	// CCs: walk both sides, link shared-variable sites per side, then
	// link the two heads elementwise (q(x⃗) ⊆ p(x⃗) compares column i of
	// the left answers with column i of the right answers).
	if p.CCs != nil {
		for _, c := range p.CCs.Constraints {
			left, right := varSites{}, varSites{}
			if err := linkFormula(c.Left.Body, left); err != nil {
				return nil, err
			}
			if err := linkFormula(c.Right.Body, right); err != nil {
				return nil, err
			}
			linkSites(left)
			linkSites(right)
			lh, rh := headSites(c.Left, left), headSites(c.Right, right)
			for i := range lh {
				var all []position
				all = append(all, lh[i]...)
				all = append(all, rh[i]...)
				for j := 1; j < len(all); j++ {
					uf.union(all[0], all[j])
				}
				// Constant heads: attribute to the other side's sites.
				if !c.Left.Head[i].IsVar && len(rh[i]) > 0 {
					observe(c.Left.Head[i].Const, rh[i][0])
				}
				if !c.Right.Head[i].IsVar && len(lh[i]) > 0 {
					observe(c.Right.Head[i].Const, lh[i][0])
				}
				if !c.Left.Head[i].IsVar && len(rh[i]) == 0 {
					observeGlobal(c.Left.Head[i].Const)
				}
				if !c.Right.Head[i].IsVar && len(lh[i]) == 0 {
					observeGlobal(c.Right.Head[i].Const)
				}
			}
		}
	}

	// The query: calculus formula, or FP rules (IDB predicates become
	// pseudo-relations whose positions link through the rules).
	qVarClassSites := varSites{}
	if p.Query.Calc != nil {
		if err := linkFormula(p.Query.Calc.Body, qVarClassSites); err != nil {
			return nil, err
		}
		linkSites(qVarClassSites)
		for _, h := range p.Query.Calc.Head {
			if !h.IsVar {
				observeGlobal(h.Const)
			}
		}
	}
	if p.Query.Prog != nil {
		for _, r := range p.Query.Prog.Rules {
			sites := varSites{}
			for i, t := range r.Head.Terms {
				pos := position{rel: "·idb·" + r.Head.Rel, col: i}
				uf.intern(pos)
				if t.IsVar {
					sites.add(t.Name, pos)
				} else {
					observe(t.Const, pos)
				}
			}
			for _, l := range r.Body {
				if l.Atom != nil {
					rel := l.Atom.Rel
					if p.Query.Prog.IsIDB(rel) {
						rel = "·idb·" + rel
					}
					for i, t := range l.Atom.Terms {
						pos := position{rel: rel, col: i}
						uf.intern(pos)
						if t.IsVar {
							sites.add(t.Name, pos)
						} else {
							observe(t.Const, pos)
						}
					}
				}
				if l.Cmp != nil {
					if err := linkFormula(l.Cmp, sites); err != nil {
						return nil, err
					}
				}
			}
			linkSites(sites)
		}
	}

	// The c-instance: variables occupying several columns link them;
	// conditions link or attribute.
	ciVarSites := varSites{}
	if ci != nil {
		for _, rname := range ci.Schema().Names() {
			tb := ci.Table(rname)
			for _, row := range tb.Rows() {
				for i, t := range row.Terms {
					pos := position{rel: rname, col: i}
					if t.IsVar {
						ciVarSites.add(t.Name, pos)
					} else {
						observe(t.Const, pos)
					}
				}
				for _, atom := range row.Cond {
					cmp := &query.Compare{Op: atom.Op, L: atom.L, R: atom.R}
					if err := linkFormula(cmp, ciVarSites); err != nil {
						return nil, err
					}
				}
			}
		}
		linkSites(ciVarSites)
	}

	// Materialise classes.
	ty := &classParts{class: map[position]int{}}
	classOf := map[int]int{}
	for pos, id := range uf.id {
		root := uf.find(id)
		cl, ok := classOf[root]
		if !ok {
			cl = len(ty.consts)
			classOf[root] = cl
			ty.blocks = append(ty.blocks, nil)
			ty.consts = append(ty.consts, nil)
			ty.fresh = append(ty.fresh, nil)
		}
		ty.class[pos] = cl
	}
	// Master data values belong to their columns' classes, one sorted
	// block per column (its positions were interned above).
	for _, r := range p.Master.Schema().Relations() {
		inst := p.Master.Relation(r.Name)
		for i := 0; i < r.Arity(); i++ {
			if col := inst.SortedColumn(i); len(col) > 0 {
				cl := ty.class[position{rel: r.Name, col: i}]
				ty.blocks[cl] = append(ty.blocks[cl], col)
			}
		}
	}
	for _, o := range obs {
		if cl, ok := ty.class[o.at]; o.has && ok {
			ty.consts[cl] = append(ty.consts[cl], o.v)
		} else {
			ty.global = append(ty.global, o.v)
		}
	}

	// Fresh values: a variable's personal pair goes to its class; the
	// synthetic extension-row pairs (and any fresh value we cannot
	// place) go everywhere.
	placeFresh := func(name string, sites []position) {
		f := a.Fresh(name)
		if f == "" {
			return
		}
		pair := []relation.Value{f}
		if twin := freshTwin(a, f); twin != "" {
			pair = append(pair, twin)
		}
		placed := false
		for _, pos := range sites {
			if cl, ok := ty.class[pos]; ok {
				ty.fresh[cl] = append(ty.fresh[cl], pair...)
				placed = true
				break // sites are same-class after linking
			}
		}
		if !placed {
			ty.every = append(ty.every, pair...)
		}
	}
	if ci != nil {
		for _, v := range ci.Vars() {
			placeFresh(v, ciVarSites[v])
		}
	}
	if p.Query.Calc != nil && query.IsPositiveExistential(p.Query.Calc) {
		tabs, err := p.disjunctTableaux()
		if err == nil {
			// Tableau variables are the renamed originals; their sites
			// are recoverable directly from the tableau atoms.
			for _, tab := range tabs {
				siteOf := varSites{}
				for _, atom := range tab.Atoms {
					for i, t := range atom.Terms {
						if t.IsVar {
							siteOf.add(t.Name, position{rel: atom.Rel, col: i})
						}
					}
				}
				for _, v := range tab.Vars {
					placeFresh(v, siteOf[v])
				}
			}
		}
	}
	// Extension-row fresh values serve every class — but only as many
	// as a single constructed tuple can need: the maximum number of
	// same-class columns within one relation, plus one twin for the
	// certain-answer cancellation. More would only bloat candidate
	// sets; values may be shared across classes because cross-class
	// equalities are unobservable by construction.
	width := 1
	for _, r := range p.Schema.Relations() {
		perClass := map[int]int{}
		for i := 0; i < r.Arity(); i++ {
			if cl, ok := ty.class[position{rel: r.Name, col: i}]; ok {
				perClass[cl]++
				if perClass[cl] > width {
					width = perClass[cl]
				}
			}
		}
	}
	for i := 0; i <= width; i++ {
		f := a.Fresh(fmt.Sprintf("xrow%d", i))
		if f == "" {
			break
		}
		ty.every = append(ty.every, f)
		if twin := freshTwin(a, f); twin != "" {
			ty.every = append(ty.every, twin)
		}
	}
	return ty, nil
}

// freshTwin recovers the twin minted alongside a fresh value: the
// builder appends ʹ to the variable name for the twin.
func freshTwin(a *adom.Adom, f relation.Value) relation.Value {
	// The twin is not exposed by name; it is f with ʹ inserted before
	// any disambiguation suffix. Builder mints "•name" and "•nameʹ".
	candidate := f + "ʹ"
	if a.Contains(candidate) {
		return candidate
	}
	return ""
}

// candidatesAt returns the candidate values for one column position
// under the typing (nil typing = the full domain). The slice is shared;
// callers must not mutate it.
func (ty *typing) candidatesAt(pos position, dom *relation.Domain, a *adom.Adom) []relation.Value {
	if dom.IsFinite() {
		return dom.Values()
	}
	if ty == nil {
		return a.Values()
	}
	if cl, ok := ty.class[pos]; ok {
		return ty.cands[cl]
	}
	return ty.shared
}

// varCandidates returns the candidate values for a c-instance variable:
// the intersection semantics of multiple sites reduces to any one site
// (same class after linking); finite attribute domains win outright.
func (ty *typing) varCandidates(name string, sites []position, dom *relation.Domain, a *adom.Adom) []relation.Value {
	if dom.IsFinite() {
		return dom.Values()
	}
	if ty == nil || len(sites) == 0 {
		return a.Values()
	}
	return ty.candidatesAt(sites[0], dom, a)
}

// ciVarSites recomputes the (already linked) sites of each c-instance
// variable for candidate lookup.
func ciVarSiteMap(ci *ctable.CInstance) map[string][]position {
	out := map[string][]position{}
	if ci == nil {
		return out
	}
	for _, rname := range ci.Schema().Names() {
		tb := ci.Table(rname)
		for _, row := range tb.Rows() {
			for i, t := range row.Terms {
				if t.IsVar {
					out[t.Name] = append(out[t.Name], position{rel: rname, col: i})
				}
			}
		}
	}
	return out
}

// enumerateTyped enumerates valuations of vars where each variable
// ranges over its typed candidates; budget and early stop as in
// adom.Enumerate.
func (p *Problem) enumerateTyped(ci *ctable.CInstance, a *adom.Adom, ty *typing,
	fn func(ctable.Valuation) (bool, error)) error {
	vars := ci.Vars()
	doms := ci.VarDomains()
	sites := ciVarSiteMap(ci)
	cands := make([][]relation.Value, len(vars))
	for i, v := range vars {
		cands[i] = ty.varCandidates(v, sites[v], doms[v], a)
	}
	mu := make(ctable.Valuation, len(vars))
	tried := 0
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(vars) {
			tried++
			if p.Options.MaxValuations > 0 && tried > p.Options.MaxValuations {
				return false, p.budgetErr("typed valuation enumeration", "MaxValuations",
					int64(p.Options.MaxValuations), int64(tried))
			}
			return fn(mu)
		}
		for _, val := range cands[i] {
			mu[vars[i]] = val
			cont, err := rec(i + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		delete(mu, vars[i])
		return true, nil
	}
	_, err := rec(0)
	return err
}

// typedTuplesOver enumerates the candidate lattice of one relation
// under the typing, consulting the context per leaf.
func (p *Problem) typedTuplesOver(ctx context.Context, r *relation.Schema, a *adom.Adom, ty *typing,
	fn func(t relation.Tuple) (bool, error)) (bool, error) {
	cols := make([][]relation.Value, r.Arity())
	for i := range cols {
		cols[i] = ty.candidatesAt(position{rel: r.Name, col: i}, r.DomainAt(i), a)
	}
	t := make(relation.Tuple, r.Arity())
	tried := 0
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == r.Arity() {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			tried++
			if p.Options.MaxValuations > 0 && tried > p.Options.MaxValuations {
				return false, p.budgetErr("typed tuple lattice over "+r.Name, "MaxValuations",
					int64(p.Options.MaxValuations), int64(tried))
			}
			return fn(t.Clone())
		}
		for _, v := range cols[i] {
			t[i] = v
			cont, err := rec(i + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	return rec(0)
}

// typingSignature canonically serialises the per-column candidates so
// lattice caches can key on them (see latticeSig). Each value is
// length-prefixed, so distinct candidate lists never serialise alike.
func (p *Problem) typingSignature(a *adom.Adom, ty *typing) string {
	if ty == nil {
		buf := append(make([]byte, 0, 16*a.Len()+8), "untyped|"...)
		for _, v := range a.Values() {
			buf = relation.AppendValueKey(buf, v)
		}
		return string(buf)
	}
	buf := append(make([]byte, 0, 256), "typed|"...)
	for _, r := range p.Schema.Relations() {
		buf = relation.AppendValueKey(buf, relation.Value(r.Name))
		for i := 0; i < r.Arity(); i++ {
			vals := ty.candidatesAt(position{rel: r.Name, col: i}, r.DomainAt(i), a)
			buf = binary.AppendUvarint(buf, uint64(len(vals)))
			for _, v := range vals {
				buf = relation.AppendValueKey(buf, v)
			}
		}
	}
	return string(buf)
}
