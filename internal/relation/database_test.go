package relation

import (
	"reflect"
	"testing"
)

func twoRelSchema() *DBSchema {
	return MustDBSchema(
		MustSchema("R", Attr("A", nil), Attr("B", nil)),
		MustSchema("S", Attr("C", nil)),
	)
}

func TestDatabaseBasics(t *testing.T) {
	sch := twoRelSchema()
	db := NewDatabase(sch)
	if db.Size() != 0 {
		t.Fatal("fresh database should be empty")
	}
	db.MustInsert("R", T("1", "2"))
	db.MustInsert("S", T("x"))
	if db.Size() != 2 {
		t.Fatalf("Size = %d", db.Size())
	}
	if !db.Relation("R").Contains(T("1", "2")) {
		t.Fatal("insert lost")
	}
	if err := db.Insert("nope", T("1")); err == nil {
		t.Fatal("insert into unknown relation should fail")
	}
}

// extends reports the paper's I ⊊ I': other is contained in db
// componentwise and db holds more tuples, i.e. db is a proper extension
// of other.
func extends(db, other *Database) bool {
	return other.SubsetOf(db) && other.Size() < db.Size()
}

func TestDatabaseExtends(t *testing.T) {
	sch := twoRelSchema()
	base := NewDatabase(sch)
	base.MustInsert("R", T("1", "2"))

	same := base.Clone()
	if extends(same, base) {
		t.Fatal("equal database is not a proper extension")
	}

	ext := base.WithTuple("S", T("x"))
	if !extends(ext, base) {
		t.Fatal("adding a tuple should extend")
	}
	if extends(base, ext) {
		t.Fatal("extension is not symmetric")
	}

	// Removing from one relation while adding to another is not an extension.
	other := base.WithoutTuple("R", T("1", "2")).WithTuple("S", T("x"))
	if extends(other, base) {
		t.Fatal("incomparable databases must not extend")
	}
}

func TestDatabaseSubsetEqual(t *testing.T) {
	sch := twoRelSchema()
	a := NewDatabase(sch)
	a.MustInsert("R", T("1", "2"))
	b := a.WithTuple("S", T("y"))
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	if !a.Equal(a.Clone()) || a.Equal(b) {
		t.Fatal("Equal wrong")
	}
}

func TestDatabaseWithWithoutTupleImmutability(t *testing.T) {
	sch := twoRelSchema()
	a := NewDatabase(sch)
	a.MustInsert("R", T("1", "2"))
	_ = a.WithTuple("R", T("3", "4"))
	_ = a.WithoutTuple("R", T("1", "2"))
	if a.Size() != 1 || !a.Relation("R").Contains(T("1", "2")) {
		t.Fatal("With/WithoutTuple mutated the receiver")
	}
}

func TestDatabaseAllTuples(t *testing.T) {
	sch := twoRelSchema()
	db := NewDatabase(sch)
	db.MustInsert("R", T("1", "2"))
	db.MustInsert("S", T("x"))
	got := db.AllTuples()
	want := []Located{{Rel: "R", Tuple: T("1", "2")}, {Rel: "S", Tuple: T("x")}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AllTuples = %v", got)
	}
}

func TestDatabaseActiveDomain(t *testing.T) {
	sch := twoRelSchema()
	db := NewDatabase(sch)
	db.MustInsert("R", T("1", "2"))
	db.MustInsert("S", T("2"))
	if got := db.ActiveDomain(nil).Values(); !reflect.DeepEqual(got, []Value{"1", "2"}) {
		t.Fatalf("ActiveDomain = %v", got)
	}
}

func TestDatabaseSetRelation(t *testing.T) {
	sch := twoRelSchema()
	db := NewDatabase(sch)
	repl := MustInstance(sch.Relation("R"), T("9", "9"))
	if err := db.SetRelation(repl); err != nil {
		t.Fatal(err)
	}
	if !db.Relation("R").Contains(T("9", "9")) {
		t.Fatal("SetRelation lost data")
	}
	// An instance over a structurally identical but different schema
	// object must be rejected (schemas are compared by identity).
	alien := MustInstance(MustSchema("R", Attr("A", nil), Attr("B", nil)), T("1", "1"))
	if err := db.SetRelation(alien); err == nil {
		t.Fatal("foreign schema object should be rejected")
	}
}
