package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"relcomplete/internal/cc"
	"relcomplete/internal/ctable"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// The reference domain construction. refAdomFor, refClassify and
// refCompact are adomFor, classify and compact as they stood when every
// build hashed all of Dm into a value set, sorted it, observed each
// master value at its column and sorted each class's candidates again;
// refBuilder is the adom.Builder of that time. They are kept verbatim
// (identifiers renamed) as the executable specification that
// checkDomainsMatchReference holds the production construction to.

type refAdom struct {
	values []relation.Value          // sorted, distinct
	fresh  map[string]relation.Value // variable -> its dedicated New value
}

func (a *refAdom) Fresh(varName string) relation.Value { return a.fresh[varName] }

func (a *refAdom) Contains(v relation.Value) bool {
	_, ok := slices.BinarySearch(a.values, v)
	return ok
}

type refBuilder struct {
	consts *relation.ValueSet
	vars   []string
	seen   map[string]bool
}

func newRefBuilder() *refBuilder {
	return &refBuilder{consts: relation.NewValueSet(), seen: map[string]bool{}}
}

func (b *refBuilder) AddCInstance(ci *ctable.CInstance) *refBuilder {
	if ci == nil {
		return b
	}
	ci.Constants(b.consts)
	for _, v := range ci.Vars() {
		b.addVar(v)
	}
	b.AddSchemaFiniteDomains(ci.Schema())
	return b
}

func (b *refBuilder) AddDatabase(db *relation.Database) *refBuilder {
	db.ActiveDomain(b.consts)
	return b
}

func (b *refBuilder) AddSchemaFiniteDomains(sch *relation.DBSchema) *refBuilder {
	if sch == nil {
		return b
	}
	for _, r := range sch.Relations() {
		for _, a := range r.Attrs {
			if a.Domain.IsFinite() {
				for _, v := range a.Domain.Values() {
					b.consts.Add(v)
				}
			}
		}
	}
	return b
}

func (b *refBuilder) AddCCs(v *cc.Set) *refBuilder {
	if v == nil {
		return b
	}
	v.Constants(b.consts)
	return b
}

func (b *refBuilder) AddConstants(vs *relation.ValueSet) *refBuilder {
	b.consts.AddAll(vs)
	return b
}

func (b *refBuilder) AddVars(vars []string) *refBuilder {
	for _, v := range vars {
		b.addVar(v)
	}
	return b
}

func (b *refBuilder) addVar(v string) {
	if !b.seen[v] {
		b.seen[v] = true
		b.vars = append(b.vars, v)
	}
}

func (b *refBuilder) Build() *refAdom {
	set := b.consts
	b.consts = nil
	a := &refAdom{fresh: make(map[string]relation.Value, len(b.vars))}
	mint := func(base string) relation.Value {
		candidate := relation.Value("•" + base)
		for i := 0; set.Contains(candidate); i++ {
			candidate = relation.Value(fmt.Sprintf("•%s_%d", base, i))
		}
		set.Add(candidate)
		return candidate
	}
	for _, v := range b.vars {
		a.fresh[v] = mint(v)
		mint(v + "ʹ") // interchangeable twin
	}
	a.values = set.Values()
	return a
}

func (p *Problem) refAdomFor(ci *ctable.CInstance, withQueryVars, withExtRow bool) (*refAdom, error) {
	b := newRefBuilder().
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

type refClassParts struct {
	class  map[position]int
	consts [][]relation.Value
	fresh  [][]relation.Value
	global []relation.Value
	every  []relation.Value
}

func (cp *refClassParts) refCompact() *typing {
	shared := relation.DedupValues(append(append([]relation.Value(nil), cp.global...), cp.every...))
	ty := &typing{class: cp.class, cands: make([][]relation.Value, len(cp.consts)), shared: shared}
	for cl := range cp.consts {
		vals := make([]relation.Value, 0, len(cp.consts[cl])+len(cp.fresh[cl])+len(shared))
		vals = append(vals, cp.consts[cl]...)
		vals = append(vals, cp.fresh[cl]...)
		vals = append(vals, shared...)
		ty.cands[cl] = relation.DedupValues(vals)
	}
	return ty
}

func refFreshTwin(a *refAdom, f relation.Value) relation.Value {
	candidate := f + "ʹ"
	if a.Contains(candidate) {
		return candidate
	}
	return ""
}

func (p *Problem) refClassify(ci *ctable.CInstance, a *refAdom) (*refClassParts, error) {
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
	headSites := func(q *query.Query, sites varSites) [][]position {
		out := make([][]position, len(q.Head))
		for i, h := range q.Head {
			if h.IsVar {
				out[i] = sites[h.Name]
			} else {
				out[i] = nil
			}
		}
		return out
	}

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

	for _, r := range p.Master.Schema().Relations() {
		for _, t := range p.Master.Relation(r.Name).Tuples() {
			for i, v := range t {
				observe(v, position{rel: r.Name, col: i})
			}
		}
	}

	ty := &refClassParts{class: map[position]int{}}
	classOf := map[int]int{}
	for pos, id := range uf.id {
		root := uf.find(id)
		cl, ok := classOf[root]
		if !ok {
			cl = len(ty.consts)
			classOf[root] = cl
			ty.consts = append(ty.consts, nil)
			ty.fresh = append(ty.fresh, nil)
		}
		ty.class[pos] = cl
	}
	for _, o := range obs {
		if cl, ok := ty.class[o.at]; o.has && ok {
			ty.consts[cl] = append(ty.consts[cl], o.v)
		} else {
			ty.global = append(ty.global, o.v)
		}
	}

	placeFresh := func(name string, sites []position) {
		f := a.Fresh(name)
		if f == "" {
			return
		}
		pair := []relation.Value{f}
		if twin := refFreshTwin(a, f); twin != "" {
			pair = append(pair, twin)
		}
		placed := false
		for _, pos := range sites {
			if cl, ok := ty.class[pos]; ok {
				ty.fresh[cl] = append(ty.fresh[cl], pair...)
				placed = true
				break
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
		if twin := refFreshTwin(a, f); twin != "" {
			ty.every = append(ty.every, twin)
		}
	}
	return ty, nil
}

// refDomains is the reference construction of domainsFor: the Adom and,
// unless typing is off, its compacted typing.
func (p *Problem) refDomains(ci *ctable.CInstance, withQueryVars, withExtRow bool) (*refAdom, *typing, error) {
	a, err := p.refAdomFor(ci, withQueryVars, withExtRow)
	if err != nil {
		return nil, nil, err
	}
	if p.Options.NoTypedDomains {
		return a, nil, nil
	}
	cp, err := p.refClassify(ci, a)
	if err != nil {
		return nil, nil, err
	}
	return a, cp.refCompact(), nil
}

// checkDomainsMatchReference asserts that domainsFor builds, for p and
// ci (which may be nil), exactly what the reference construction
// builds: the same Adom values, the same fresh value per variable, the
// same typing signature, the same shared values and the same
// candidates at every classified position. It runs at all four
// (withQueryVars, withExtRow) combinations, typed and with
// NoTypedDomains, for p's own query and for three queries derived from
// p's schema: one without constants, one naming a constant absent from
// Dm, and one whose ≠ links two positions of different classes.
func checkDomainsMatchReference(t *testing.T, p *Problem, ci *ctable.CInstance) {
	t.Helper()
	queries := []Qry{p.Query}
	for _, src := range derivedQueries(t, p) {
		queries = append(queries, CalcQuery(query.MustParseQuery(src)))
	}
	for _, q := range queries {
		for _, untyped := range []bool{false, true} {
			opts := p.Options
			opts.NoTypedDomains = untyped
			qp, err := NewProblem(p.Schema, q, p.Master, p.CCs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				where := fmt.Sprintf("query %s, untyped=%v, withQueryVars=%v, withExtRow=%v", q, untyped, flags[0], flags[1])
				d, err := qp.domainsFor(ci, flags[0], flags[1])
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				ra, rty, err := qp.refDomains(ci, flags[0], flags[1])
				if err != nil {
					t.Fatalf("%s: reference: %v", where, err)
				}
				compareDomains(t, where, qp, ci, d, ra, rty)
			}
		}
	}
}

func compareDomains(t *testing.T, where string, p *Problem, ci *ctable.CInstance, d *domains, ra *refAdom, rty *typing) {
	t.Helper()
	if !slices.Equal(d.a.Values(), ra.values) {
		t.Fatalf("%s: Adom values\n got  %v\n want %v", where, d.a.Values(), ra.values)
	}
	// Every variable that could have been contributed, so that a fresh
	// value minted for a variable the reference does not know shows too.
	names := map[string]bool{}
	for v := range ra.fresh {
		names[v] = true
	}
	if ci != nil {
		for _, v := range ci.Vars() {
			names[v] = true
		}
	}
	if tabs, err := p.disjunctTableaux(); err == nil {
		for _, tab := range tabs {
			for _, v := range tab.Vars {
				names[v] = true
			}
		}
	}
	for i := 0; i < 8; i++ {
		names[fmt.Sprintf("xrow%d", i)] = true
	}
	for v := range names {
		if got, want := d.a.Fresh(v), ra.fresh[v]; got != want {
			t.Fatalf("%s: Fresh(%q) = %q, want %q", where, v, got, want)
		}
	}
	if (d.ty == nil) != (rty == nil) {
		t.Fatalf("%s: typing present = %v, reference %v", where, d.ty != nil, rty != nil)
	}
	if rty == nil {
		return
	}
	if got, want := p.typingSignature(d.a, d.ty), p.typingSignature(d.a, rty); got != want {
		t.Fatalf("%s: typing signature\n got  %q\n want %q", where, got, want)
	}
	if !slices.Equal(d.ty.shared, rty.shared) {
		t.Fatalf("%s: shared\n got  %v\n want %v", where, d.ty.shared, rty.shared)
	}
	if len(d.ty.class) != len(rty.class) {
		t.Fatalf("%s: %d classified positions, reference %d", where, len(d.ty.class), len(rty.class))
	}
	for pos := range rty.class {
		if _, ok := d.ty.class[pos]; !ok {
			t.Fatalf("%s: position %v unclassified", where, pos)
		}
		got, want := d.ty.candidatesAt(pos, nil, d.a), rty.candidatesAt(pos, nil, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: candidates at %v\n got  %v\n want %v", where, pos, got, want)
		}
	}
}

// derivedQueries writes three queries over p's data schema: one
// without constants, one naming a constant absent from Dm, and (when
// the CCs leave two data positions in different classes) one whose ≠
// links two such positions.
func derivedQueries(t *testing.T, p *Problem) []string {
	t.Helper()
	rels := p.Schema.Relations()
	if len(rels) == 0 {
		return nil
	}
	atom := func(r *relation.Schema, prefix string, pinned int, c string) (string, []string) {
		vars := make([]string, r.Arity())
		terms := make([]string, r.Arity())
		for i := range terms {
			vars[i] = fmt.Sprintf("%s%d", prefix, i)
			terms[i] = vars[i]
			if i == pinned {
				terms[i] = "'" + c + "'"
			}
		}
		return r.Name + "(" + strings.Join(terms, ", ") + ")", vars
	}
	r0 := rels[0]
	free, vars := atom(r0, "x", -1, "")
	out := []string{fmt.Sprintf("Q(%s) := %s", vars[0], free)}

	absent := "absent-from-dm"
	dm := p.Master.ActiveDomain(nil)
	for dm.Contains(relation.Value(absent)) {
		absent += "-"
	}
	pinned, vars := atom(r0, "x", 0, absent)
	head := "Q()"
	if len(vars) > 1 {
		head = "Q(" + vars[1] + ")"
	}
	out = append(out, head+" := "+pinned)

	// Classes as the CCs alone draw them: under the constant-free query,
	// which links no two positions.
	fp, err := NewProblem(p.Schema, CalcQuery(query.MustParseQuery(out[0])), p.Master, p.CCs, p.Options)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := fp.refAdomFor(nil, false, false)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := fp.refClassify(nil, ra)
	if err != nil {
		t.Fatal(err)
	}
	var data []position
	for _, r := range rels {
		for i := 0; i < r.Arity(); i++ {
			data = append(data, position{rel: r.Name, col: i})
		}
	}
	sort.Slice(data, func(i, j int) bool {
		if data[i].rel != data[j].rel {
			return data[i].rel < data[j].rel
		}
		return data[i].col < data[j].col
	})
	for i, a := range data {
		for _, b := range data[i+1:] {
			if cp.class[a] == cp.class[b] {
				continue
			}
			ra, rb := p.Schema.Relation(a.rel), p.Schema.Relation(b.rel)
			la, va := atom(ra, "a", -1, "")
			if a.rel == b.rel {
				return append(out, fmt.Sprintf("Q(%s) := %s & %s != %s", va[a.col], la, va[a.col], va[b.col]))
			}
			lb, vb := atom(rb, "b", -1, "")
			return append(out, fmt.Sprintf("Q(%s) := %s & %s & %s != %s", va[a.col], la, lb, va[a.col], vb[b.col]))
		}
	}
	return out
}
