package probjson

import (
	"strings"
	"testing"

	"relcomplete/internal/core"
)

const sampleDoc = `{
  "schema": {"relations": [
    {"name": "Order", "attrs": [{"name": "item"}, {"name": "qty"}]}]},
  "master": {
    "relations": [{"name": "Catalog", "attrs": [{"name": "item"}]}],
    "rows": {"Catalog": [["widget"], ["gadget"]]}},
  "ccs": [{"name": "item_bound",
           "left":  "q(i) := Order(i, q)",
           "right": "p(i) := Catalog(i)"}],
  "query": {"calc": "Q(q) := Order('widget', q)"},
  "cinstance": {"rows": [
    {"rel": "Order", "terms": ["widget", "?x"],
     "cond": [["?x", "!=", "0"]]}]}
}`

func TestDecodeSample(t *testing.T) {
	p, ci, err := Decode([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if p.Query.Lang() != core.CQ {
		t.Fatalf("lang = %v", p.Query.Lang())
	}
	if ci.Size() != 1 || len(ci.Vars()) != 1 {
		t.Fatalf("c-instance wrong: %v", ci)
	}
	if p.Master.Relation("Catalog").Len() != 2 {
		t.Fatal("master rows lost")
	}
	ok, err := p.Consistent(ci)
	if err != nil || !ok {
		t.Fatalf("decoded problem should be consistent: %v %v", ok, err)
	}
}

const finiteDomainDoc = `{
  "schema": {"relations": [
    {"name": "B", "attrs": [{"name": "v", "domain": ["0", "1"]}]}]},
  "master": {"relations": [], "rows": {}},
  "ccs": [],
  "query": {"calc": "Q(x) := B(x)"},
  "cinstance": {"rows": [{"rel": "B", "terms": ["?b"]}]}
}`

func TestDecodeFiniteDomain(t *testing.T) {
	p, ci, err := Decode([]byte(finiteDomainDoc))
	if err != nil {
		t.Fatal(err)
	}
	models, err := p.Models(ci, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 { // b ranges over the finite domain {0, 1}
		t.Fatalf("models = %d, want 2", len(models))
	}
}

const fpDoc = `{
  "schema": {"relations": [
    {"name": "edge", "attrs": [{"name": "a"}, {"name": "b"}]}]},
  "master": {"relations": [], "rows": {}},
  "ccs": [],
  "query": {"fp": "reach(x, y) :- edge(x, y). reach(x, z) :- reach(x, y), edge(y, z). output reach."},
  "cinstance": {"rows": []}
}`

func TestDecodeFPQuery(t *testing.T) {
	p, _, err := Decode([]byte(fpDoc))
	if err != nil {
		t.Fatal(err)
	}
	if p.Query.Lang() != core.FP {
		t.Fatalf("lang = %v", p.Query.Lang())
	}
}

// badDocs are documents Decode must reject, by what is wrong with them.
var badDocs = map[string]string{
	"bad json":        `{`,
	"unknown field":   `{"nope": 1}`,
	"missing query":   `{"schema": {"relations": []}, "master": {"relations": [], "rows": {}}, "ccs": [], "cinstance": {"rows": []}}`,
	"both queries":    strings.Replace(sampleDoc, `"calc": "Q(q) := Order('widget', q)"`, `"calc": "Q(q) := Order('widget', q)", "fp": "r(x) :- Order(x, y). output r."`, 1),
	"bad cc":          strings.Replace(sampleDoc, `"q(i) := Order(i, q)"`, `"q(i) := Order(i"`, 1),
	"bad query":       strings.Replace(sampleDoc, `Q(q) := Order('widget', q)`, `Q(q) := `, 1),
	"unknown rel row": strings.Replace(sampleDoc, `"rel": "Order"`, `"rel": "Nope"`, 1),
	"bad cond op":     strings.Replace(sampleDoc, `"!="`, `"<"`, 1),
	"bad master row":  strings.Replace(sampleDoc, `[["widget"], ["gadget"]]`, `[["widget", "extra"]]`, 1),
	"cc data rel":     strings.Replace(sampleDoc, `"q(i) := Order(i, q)"`, `"q(i) := Nope(i, q)"`, 1),
	"cc master rel":   strings.Replace(sampleDoc, `"p(i) := Catalog(i)"`, `"p(i) := Order(i, 'x')"`, 1),
	"row arity":       strings.Replace(sampleDoc, `"terms": ["widget", "?x"]`, `"terms": ["widget", "?x", "?y"]`, 1),
	"second object":   sampleDoc + `{"nope": 1}`,
	"trailing data":   sampleDoc + ` trailing garbage`,
	"stray brace":     sampleDoc + "}\n",
}

func TestDecodeErrors(t *testing.T) {
	for name, doc := range badDocs {
		if _, _, err := Decode([]byte(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// White space after the document is not data.
	if _, _, err := Decode([]byte(sampleDoc + " \n\t\n")); err != nil {
		t.Errorf("trailing white space: %v", err)
	}
}

func TestParseTermEscapes(t *testing.T) {
	if tm := parseTerm("?x"); !tm.IsVar || tm.Name != "x" {
		t.Fatal("?x should be a variable")
	}
	if tm := parseTerm("plain"); tm.IsVar || tm.Const != "plain" {
		t.Fatal("plain should be a constant")
	}
	if tm := parseTerm("\\?literal"); tm.IsVar || tm.Const != "?literal" {
		t.Fatal("escaped question mark should be a constant")
	}
}
