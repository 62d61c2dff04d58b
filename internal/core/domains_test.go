package core

import (
	"slices"
	"sync"
	"testing"

	"relcomplete/internal/cc"
	"relcomplete/internal/ctable"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// checkDomainsAgainstSets compares the compact domains built for p and
// ci with the set-based construction they replaced: Adom membership
// with a value set over the Adom's values, and each position's typed
// candidates with the sorted set union of its class's master columns,
// constants and fresh values, the unattributed constants and the
// shared fresh values.
func checkDomainsAgainstSets(t *testing.T, p *Problem, ci *ctable.CInstance) {
	t.Helper()
	for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}} {
		a, err := p.adomFor(ci, flags[0], flags[1])
		if err != nil {
			t.Fatal(err)
		}
		set := relation.NewValueSet(a.Values()...)
		if !slices.Equal(a.Values(), set.Values()) {
			t.Fatalf("Adom values not sorted and distinct: %v", a.Values())
		}
		for _, v := range a.Values() {
			for _, probe := range []relation.Value{v, v + "ʹ", v + "x", "•" + v, v[:len(v)/2], ""} {
				if a.Contains(probe) != set.Contains(probe) {
					t.Fatalf("Adom.Contains(%q) = %v, set says %v", probe, a.Contains(probe), set.Contains(probe))
				}
			}
		}

		cp, err := p.classify(ci, a)
		if err != nil {
			t.Fatal(err)
		}
		ty := cp.compact()
		shared := relation.NewValueSet(append(append([]relation.Value(nil), cp.global...), cp.every...)...)
		for pos, cl := range cp.class {
			old := relation.NewValueSet(cp.consts[cl]...)
			for _, blk := range cp.blocks[cl] {
				old.AddAll(relation.NewValueSet(blk...))
			}
			for _, v := range cp.fresh[cl] {
				old.Add(v)
			}
			old.AddAll(shared)
			if got := ty.candidatesAt(pos, nil, a); !slices.Equal(got, old.Values()) {
				t.Fatalf("candidatesAt(%v) = %v, set construction %v", pos, got, old.Values())
			}
		}
		if got := ty.candidatesAt(position{rel: "·unclassified·"}, nil, a); !slices.Equal(got, shared.Values()) {
			t.Fatalf("unclassified candidates = %v, set construction %v", got, shared.Values())
		}
	}
}

// catalogueProblem is the Order/Catalog setting on a small catalogue:
// Order(item, qty) bounded by Catalog(item), and a c-instance whose one
// variable ranges over the item column.
func catalogueProblem(t *testing.T) (*Problem, *ctable.CInstance) {
	t.Helper()
	schema := relation.MustDBSchema(relation.MustSchema("Order",
		relation.Attr("item", nil), relation.Attr("qty", relation.Finite("qty", "1", "2"))))
	master := relation.NewDatabase(relation.MustDBSchema(
		relation.MustSchema("Catalog", relation.Attr("item", nil))))
	master.MustInsert("Catalog", relation.T("widget"))
	master.MustInsert("Catalog", relation.T("gadget"))
	ccs := cc.NewSet(cc.MustParse("item_bound", "q(i) := Order(i, q)", "p(i) := Catalog(i)"))
	p := MustProblem(schema, CalcQuery(query.MustParseQuery("Q(q) := Order('widget', q)")), master, ccs, Options{Parallelism: 1})
	ci := ctable.NewCInstance(schema)
	ci.MustAddRow("Order", ctable.Row{Terms: []query.Term{query.V("x"), query.C("1")}})
	return p, ci
}

// A master row appended after a decide reaches the next decide: the
// master's cached sorted column is rebuilt at the new row count, so the
// value joins the Adom, the typed candidates of its class and the
// models the next decide enumerates.
func TestDomainsSeeAppendedMasterRow(t *testing.T) {
	p, ci := catalogueProblem(t)
	itemsOf := func() map[relation.Value]bool {
		models, err := p.Models(ci, 0)
		if err != nil {
			t.Fatal(err)
		}
		items := map[relation.Value]bool{}
		for _, db := range models {
			for _, tup := range db.Relation("Order").Tuples() {
				items[tup[0]] = true
			}
		}
		return items
	}
	if items := itemsOf(); len(items) != 2 || items["gizmo"] {
		t.Fatalf("model items before the append = %v", items)
	}
	p.Master.MustInsert("Catalog", relation.T("gizmo"))
	if items := itemsOf(); len(items) != 3 || !items["gizmo"] {
		t.Fatalf("model items after the append = %v, want gizmo among 3", items)
	}
	d, err := p.domainsFor(ci, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !d.a.Contains("gizmo") {
		t.Fatalf("Adom %v lacks the appended gizmo", d.a.Values())
	}
	if cands := d.ty.candidatesAt(position{rel: "Order", col: 0}, nil, d.a); !slices.Contains(cands, "gizmo") {
		t.Fatalf("Order.item candidates %v lack the appended gizmo", cands)
	}
}

// Deciders over a ground instance wrap it in a throwaway c-instance;
// their domains must not enter the memo, where 32 of them used to wipe
// the resident c-instance's entry.
func TestThrowawayDomainsKeepResidentMemo(t *testing.T) {
	p, ci := catalogueProblem(t)
	resident, err := p.domainsFor(ci, false, false)
	if err != nil {
		t.Fatal(err)
	}
	db, err := p.AnyModel(ci)
	if err != nil || db == nil {
		t.Fatalf("AnyModel = %v, %v", db, err)
	}
	for i := 0; i < 40; i++ {
		if _, err := p.Extensible(db); err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.GroundComplete(db); err != nil {
			t.Fatal(err)
		}
		if _, err := p.GroundMinimal(db); err != nil {
			t.Fatal(err)
		}
	}
	if d, err := p.domainsFor(ci, false, false); err != nil || d != resident {
		t.Fatalf("resident domains replaced after 40 throwaway builds (%v)", err)
	}
	if n := len(p.memo.domains); n != 1 {
		t.Fatalf("memo holds %d domains entries, want the resident one", n)
	}
}

// Problems over one master data instance build their domains from its
// cached columns concurrently, as concurrent query overrides do; the
// race detector checks the sharing.
func TestConcurrentDomainBuildsShareMasterColumns(t *testing.T) {
	p, ci := catalogueProblem(t)
	want, err := p.Consistent(ci)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q, err := NewProblem(p.Schema, CalcQuery(query.MustParseQuery("Q(i) := Order(i, q)")), p.Master, p.CCs, p.Options)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := q.Consistent(ci); err != nil || got != want {
					t.Errorf("Consistent = %v, %v; want %v", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
