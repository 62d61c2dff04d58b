package ctable

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// genValues is the constant pool of the generated c-instances; the
// variables range over it too, so valuations collide with ground rows.
var genValues = []relation.Value{"a", "b", "c"}

func genSchema() *relation.DBSchema {
	return relation.MustDBSchema(
		relation.MustSchema("R", relation.Attr("A", nil), relation.Attr("B", nil)),
		relation.MustSchema("S", relation.Attr("C", relation.Finite("abc", genValues...))),
	)
}

// forEachValueMode runs fn twice. With boxed=false every constant and
// valuation value the test builds is drawn from genValues, so equal
// values share one string; with boxed=true val copies each into an
// allocation of its own, so a valuation's value and a ground row's equal
// constant share no memory. Apply must build the same models either way.
func forEachValueMode(t *testing.T, fn func(t *testing.T, val func(relation.Value) relation.Value)) {
	for _, boxed := range []bool{false, true} {
		t.Run(fmt.Sprintf("boxed=%v", boxed), func(t *testing.T) {
			val := func(v relation.Value) relation.Value { return v }
			if boxed {
				val = func(v relation.Value) relation.Value { return relation.Value(strings.Clone(string(v))) }
			}
			fn(t, val)
		})
	}
}

// genCInstance draws a c-instance over genSchema mixing ground rows,
// variable rows, rows with variable and with constant-only conditions
// (true and false), and duplicates of earlier rows. Each table starts
// with a run of ground rows of random length, possibly empty. Every
// constant is passed through val.
func genCInstance(rng *rand.Rand, val func(relation.Value) relation.Value) *CInstance {
	ci := NewCInstance(genSchema())
	pick := func() query.Term { return query.C(val(genValues[rng.Intn(len(genValues))])) }
	constCond := func() Condition {
		return Cond(CEq(pick(), pick())) // true or false, no variable
	}
	for _, rel := range []string{"R", "S"} {
		vars := map[string][]string{"R": {"x", "y"}, "S": {"z"}}[rel]
		term := func(ground bool) query.Term {
			if !ground && rng.Intn(2) == 0 {
				return query.V(vars[rng.Intn(len(vars))])
			}
			return pick()
		}
		arity := ci.Table(rel).Schema().Arity()
		lead, n := rng.Intn(5), 2+rng.Intn(6)
		for i := 0; i < lead+n; i++ {
			ground := i < lead
			var r Row
			switch k := rng.Intn(6); {
			case k == 0 && ci.Table(rel).Len() > 0:
				rows := ci.Table(rel).Rows()
				r = rows[rng.Intn(len(rows))]
				if ground && !r.ground() {
					r = Row{}
				}
			case k == 1:
				r.Cond = constCond()
			case k == 2 && !ground:
				// The condition's variable is also a term, so its domain
				// is the column's.
				r.Terms = []query.Term{query.V(vars[0])}
				r.Cond = Cond(CNeq(query.V(vars[0]), pick()))
			}
			for len(r.Terms) < arity {
				r.Terms = append(r.Terms, term(ground))
			}
			ci.MustAddRow(rel, r)
		}
	}
	return ci
}

// allValuations lists every assignment of x, y, z over genValues, each
// value passed through val.
func allValuations(val func(relation.Value) relation.Value) []Valuation {
	var out []Valuation
	for _, x := range genValues {
		for _, y := range genValues {
			for _, z := range genValues {
				out = append(out, Valuation{"x": val(x), "y": val(y), "z": val(z)})
			}
		}
	}
	return out
}

// rowByRow is µ(T) built the way Apply built it before ground prefixes:
// every row applied in order into a fresh instance.
func rowByRow(t *testing.T, ci *CInstance, mu Valuation) *relation.Database {
	t.Helper()
	db := relation.NewDatabase(ci.schema)
	for _, r := range ci.schema.Relations() {
		inst := relation.NewInstance(r)
		tbl := ci.tables[r.Name]
		if err := tbl.applyRows(inst, tbl.rows, mu); err != nil {
			t.Fatal(err)
		}
		db.MustSetRelation(inst)
	}
	return db
}

// sameBuild checks that got holds want's tuples in want's order, and
// that the storage derived from the rows agrees: membership, the
// resident-bytes charge, per-position statistics and full-width index
// probes for every row.
func sameBuild(t *testing.T, what string, got, want *relation.Database) {
	t.Helper()
	for _, r := range want.Schema().Relations() {
		g, w := got.Relation(r.Name), want.Relation(r.Name)
		gt, wt := g.Tuples(), w.Tuples()
		if len(gt) != len(wt) {
			t.Fatalf("%s: %s has %d rows, row-by-row build %d", what, r.Name, len(gt), len(wt))
		}
		for i := range wt {
			if !gt[i].Equal(wt[i]) {
				t.Fatalf("%s: %s row %d = %v, row-by-row build %v", what, r.Name, i, gt[i], wt[i])
			}
			if !g.Contains(wt[i]) {
				t.Fatalf("%s: %s does not contain %v", what, r.Name, wt[i])
			}
		}
		if gb, wb := g.ResidentBytes(), w.ResidentBytes(); gb != wb {
			t.Fatalf("%s: %s ResidentBytes %d, row-by-row build %d", what, r.Name, gb, wb)
		}
		all := make([]int, r.Arity())
		for p := range all {
			all[p] = p
			if gd, wd := g.DistinctAt(p), w.DistinctAt(p); gd != wd {
				t.Fatalf("%s: %s DistinctAt(%d) %d, row-by-row build %d", what, r.Name, p, gd, wd)
			}
		}
		for _, tup := range wt {
			rows, ok := g.LookupIndexed(all, tup)
			if !ok || len(rows) != 1 || !rows[0].Equal(tup) {
				t.Fatalf("%s: %s full-width probe for %v = %v, %v", what, r.Name, tup, rows, ok)
			}
		}
	}
}

// checkApplyEquivalence compares Apply and a built Candidate with the
// row-by-row build for every valuation, checks that a candidate's
// distinct added tuples, in order of first appearance, are the rows the
// build appends after the prefix's, and that keys are equal exactly
// when the databases are.
func checkApplyEquivalence(t *testing.T, ci *CInstance, label string, val func(relation.Value) relation.Value) {
	t.Helper()
	mus := allValuations(val)
	dbs := make([]*relation.Database, len(mus))
	keys := make([]string, len(mus))
	for i, mu := range mus {
		what := fmt.Sprintf("%s %v", label, mu)
		want := rowByRow(t, ci, mu)
		db, err := ci.Apply(mu)
		if err != nil {
			t.Fatal(err)
		}
		sameBuild(t, what+" Apply", db, want)
		c, err := ci.Candidate(mu)
		if err != nil {
			t.Fatal(err)
		}
		dbs[i], keys[i] = c.Build(), c.Key
		sameBuild(t, what+" Candidate", dbs[i], want)
		var added []relation.Located
		for _, r := range ci.schema.Relations() {
			for _, tup := range want.Relation(r.Name).Tuples()[c.Prefix().Relation(r.Name).Len():] {
				added = append(added, relation.Located{Rel: r.Name, Tuple: tup})
			}
		}
		var distinct []relation.Located
		for _, l := range c.Added {
			if !slices.ContainsFunc(distinct, func(d relation.Located) bool { return d.Rel == l.Rel && d.Tuple.Equal(l.Tuple) }) {
				distinct = append(distinct, l)
			}
		}
		if fmt.Sprint(distinct) != fmt.Sprint(added) {
			t.Fatalf("%s: Candidate adds %v, the row-by-row build appends %v", what, c.Added, added)
		}
	}
	for i := range mus {
		for j := range mus {
			if eq, same := dbs[i].Equal(dbs[j]), keys[i] == keys[j]; eq != same {
				t.Fatalf("%s: %v and %v: databases equal %v, keys equal %v\n%v\n%v",
					label, mus[i], mus[j], eq, same, dbs[i], dbs[j])
			}
		}
	}
}

// Apply from a ground prefix builds what the row-by-row build builds,
// in order, and Candidate's keys identify the databases,
// on generated c-instances before and after rows are added.
func TestApplyMatchesRowByRowBuild(t *testing.T) {
	forEachValueMode(t, func(t *testing.T, val func(relation.Value) relation.Value) {
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ci := genCInstance(rng, val)
			label := fmt.Sprintf("seed %d %v", seed, ci)
			checkApplyEquivalence(t, ci, label, val)
			// A row added after the prefix was built rebuilds it.
			rel := []string{"R", "S"}[rng.Intn(2)]
			terms := make([]query.Term, ci.Table(rel).Schema().Arity())
			for j := range terms {
				terms[j] = query.C(val(genValues[rng.Intn(len(genValues))]))
			}
			ci.MustAddRow(rel, Row{Terms: terms})
			checkApplyEquivalence(t, ci, label+" + "+rel+Row{Terms: terms}.String(), val)
		}
	})
}

// The prefix grows with ground rows added to an all-ground table and
// stops growing at the first variable row.
func TestApplyPrefixRebuiltAfterAddRow(t *testing.T) {
	forEachValueMode(t, func(t *testing.T, val func(relation.Value) relation.Value) {
		ci := NewCInstance(genSchema())
		row := func(terms ...query.Term) Row { return Row{Terms: terms} }
		c := func(v relation.Value) query.Term { return query.C(val(v)) }
		steps := []struct {
			row  Row
			next int // rows of R the prefix covers after the step
		}{
			{row(c("a"), c("b")), 1},
			{Row{Terms: []query.Term{c("b"), c("b")}, Cond: Cond(CEq(c("a"), c("c")))}, 2},
			{row(c("a"), c("b")), 3},
			{row(query.V("x"), c("c")), 3},
			{row(c("c"), c("c")), 3},
		}
		for i, st := range steps {
			ci.MustAddRow("R", st.row)
			checkApplyEquivalence(t, ci, fmt.Sprintf("step %d %v", i, ci), val)
			if pt := ci.prefix.Load().tables[0]; pt.next != st.next || pt.rows != i+1 {
				t.Fatalf("step %d: prefix covers %d of %d rows, want %d of %d", i, pt.next, pt.rows, st.next, i+1)
			}
		}
	})
}

// Many goroutines apply valuations to one fresh c-instance, racing on
// its first calls, which build the shared prefix; every result must
// equal the row-by-row build.
func TestApplyConcurrent(t *testing.T) {
	forEachValueMode(t, func(t *testing.T, val func(relation.Value) relation.Value) {
		rng := rand.New(rand.NewSource(7))
		ci := genCInstance(rng, val)
		mus := allValuations(val)
		const goroutines = 8
		got := make([][]*relation.Database, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i, mu := range mus {
					c, err := ci.Candidate(mus[(i+g)%len(mus)])
					if err != nil {
						panic(err)
					}
					db := c.Build()
					// Candidates are independent: inserting into one
					// touches neither the prefix nor other candidates.
					db.MustInsert("R", relation.T(relation.Value(fmt.Sprint("g", g)), mu["x"]))
					got[g] = append(got[g], db)
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			for i, db := range got[g] {
				mu := mus[(i+g)%len(mus)]
				want := rowByRow(t, ci, mu)
				want.MustInsert("R", relation.T(relation.Value(fmt.Sprint("g", g)), mus[i]["x"]))
				sameBuild(t, fmt.Sprintf("goroutine %d %v", g, mu), db, want)
			}
		}
	})
}
