// Package probjson decodes decision-problem instances from a JSON
// document, the input format of cmd/rcheck. The document describes the
// data schema, master data, containment constraints, the query and a
// c-instance:
//
//	{
//	  "schema": {"relations": [
//	    {"name": "Order", "attrs": [
//	      {"name": "item"},
//	      {"name": "qty", "domain": ["1", "2", "3"]}]}]},
//	  "master": {
//	    "relations": [{"name": "Catalog", "attrs": [{"name": "item"}]}],
//	    "rows": {"Catalog": [["widget"], ["gadget"]]}},
//	  "ccs": [{"name": "item_bound",
//	           "left":  "q(i) := Order(i, q)",
//	           "right": "p(i) := Catalog(i)"}],
//	  "query": {"calc": "Q(q) := Order('widget', q)"},
//	  "cinstance": {"rows": [
//	    {"rel": "Order", "terms": ["widget", "?x"],
//	     "cond": [["?x", "!=", "0"]]}]}
//	}
//
// Terms starting with "?" are c-table variables; everything else is a
// constant. A literal leading question mark can be written as "\\?".
package probjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"relcomplete/internal/cc"
	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// Document is the top-level JSON structure.
type Document struct {
	Schema    SchemaDoc    `json:"schema"`
	Master    MasterDoc    `json:"master"`
	CCs       []CCDoc      `json:"ccs"`
	Query     QueryDoc     `json:"query"`
	CInstance CInstanceDoc `json:"cinstance"`
	Options   OptionsDoc   `json:"options"`
}

// SchemaDoc lists relation schemas.
type SchemaDoc struct {
	Relations []RelationDoc `json:"relations"`
}

// RelationDoc is one relation schema.
type RelationDoc struct {
	Name  string    `json:"name"`
	Attrs []AttrDoc `json:"attrs"`
}

// AttrDoc is one attribute; a nil Domain means infinite.
type AttrDoc struct {
	Name   string   `json:"name"`
	Domain []string `json:"domain,omitempty"`
}

// MasterDoc is the master data: its schema plus ground rows.
type MasterDoc struct {
	Relations []RelationDoc         `json:"relations"`
	Rows      map[string][][]string `json:"rows"`
}

// CCDoc is one containment constraint in text syntax.
type CCDoc struct {
	Name  string `json:"name"`
	Left  string `json:"left"`
	Right string `json:"right"`
}

// QueryDoc holds exactly one of a calculus query or an FP program.
type QueryDoc struct {
	Calc string `json:"calc,omitempty"`
	FP   string `json:"fp,omitempty"`
}

// CInstanceDoc lists c-table rows.
type CInstanceDoc struct {
	Rows []RowDoc `json:"rows"`
}

// RowDoc is one c-table row; Cond atoms are [left, op, right] with op
// "=" or "!=".
type RowDoc struct {
	Rel   string      `json:"rel"`
	Terms []string    `json:"terms"`
	Cond  [][3]string `json:"cond,omitempty"`
}

// OptionsDoc mirrors core.Options.
type OptionsDoc struct {
	MaxValuations int `json:"max_valuations,omitempty"`
	MaxSubsets    int `json:"max_subsets,omitempty"`
	RCQPSizeBound int `json:"rcqp_size_bound,omitempty"`
	MaxDerived    int `json:"max_derived,omitempty"`
	Parallelism   int `json:"parallelism,omitempty"`
}

// Decode parses the JSON document and builds the problem and
// c-instance.
func Decode(data []byte) (*core.Problem, *ctable.CInstance, error) {
	doc, err := DecodeDocument(data)
	if err != nil {
		return nil, nil, err
	}
	return Build(doc)
}

// DecodeDocument parses data as one document, strictly (see
// DecodeStrict).
func DecodeDocument(data []byte) (*Document, error) {
	var doc Document
	if err := DecodeStrict(bytes.NewReader(data), &doc); err != nil {
		return nil, fmt.Errorf("probjson: %w", err)
	}
	return &doc, nil
}

// DecodeStrict decodes r as exactly one JSON value into v: an unknown
// field is an error, and so is anything but white space after the
// value. An error r returns comes back as r returned it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Token, not More: More reads a stray '}' or ']' as the end of an
	// enclosing value and reports nothing left.
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the JSON value")
		}
		return err
	}
	return nil
}

// Build assembles a decoded document.
func Build(doc *Document) (*core.Problem, *ctable.CInstance, error) {
	schema, err := buildSchema(doc.Schema.Relations)
	if err != nil {
		return nil, nil, fmt.Errorf("probjson: schema: %w", err)
	}
	masterSchema, err := buildSchema(doc.Master.Relations)
	if err != nil {
		return nil, nil, fmt.Errorf("probjson: master schema: %w", err)
	}
	master := relation.NewDatabase(masterSchema)
	for rel, rows := range doc.Master.Rows {
		for _, row := range rows {
			t := make(relation.Tuple, len(row))
			for i, v := range row {
				t[i] = relation.Value(v)
			}
			if err := master.Insert(rel, t); err != nil {
				return nil, nil, fmt.Errorf("probjson: master rows: %w", err)
			}
		}
	}
	ccSet := cc.NewSet()
	for _, c := range doc.CCs {
		parsed, err := cc.Parse(c.Name, c.Left, c.Right)
		if err != nil {
			return nil, nil, fmt.Errorf("probjson: %w", err)
		}
		// q reads the data relations and p the master relations; a
		// relation the schemas lack would fail every decide instead.
		for _, side := range []struct {
			q      *query.Query
			schema *relation.DBSchema
			what   string
		}{{parsed.Left, schema, "relation"}, {parsed.Right, masterSchema, "master relation"}} {
			for _, rel := range query.RelationsUsed(side.q) {
				if side.schema.Relation(rel) == nil {
					return nil, nil, fmt.Errorf("probjson: cc %s reads unknown %s %s", c.Name, side.what, rel)
				}
			}
		}
		ccSet.Add(parsed)
	}
	var qry core.Qry
	switch {
	case doc.Query.Calc != "" && doc.Query.FP != "":
		return nil, nil, fmt.Errorf("probjson: query must be calc or fp, not both")
	case doc.Query.Calc != "":
		q, err := query.ParseQuery(doc.Query.Calc)
		if err != nil {
			return nil, nil, fmt.Errorf("probjson: query: %w", err)
		}
		qry = core.CalcQuery(q)
	case doc.Query.FP != "":
		p, err := query.ParseProgram("fp", schema, doc.Query.FP)
		if err != nil {
			return nil, nil, fmt.Errorf("probjson: fp query: %w", err)
		}
		qry = core.FPQuery(p)
	default:
		return nil, nil, fmt.Errorf("probjson: missing query")
	}
	opts := core.Options{
		MaxValuations: doc.Options.MaxValuations,
		MaxSubsets:    doc.Options.MaxSubsets,
		RCQPSizeBound: doc.Options.RCQPSizeBound,
		MaxDerived:    doc.Options.MaxDerived,
		Parallelism:   doc.Options.Parallelism,
	}
	problem, err := core.NewProblem(schema, qry, master, ccSet, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("probjson: %w", err)
	}

	ci := ctable.NewCInstance(schema)
	for i, row := range doc.CInstance.Rows {
		terms := make([]query.Term, len(row.Terms))
		for j, s := range row.Terms {
			terms[j] = parseTerm(s)
		}
		var cond ctable.Condition
		for _, atom := range row.Cond {
			l, r := parseTerm(atom[0]), parseTerm(atom[2])
			switch atom[1] {
			case "=":
				cond = append(cond, ctable.CEq(l, r))
			case "!=":
				cond = append(cond, ctable.CNeq(l, r))
			default:
				return nil, nil, fmt.Errorf("probjson: row %d: unknown operator %q", i, atom[1])
			}
		}
		if err := ci.AddRow(row.Rel, ctable.Row{Terms: terms, Cond: cond}); err != nil {
			return nil, nil, fmt.Errorf("probjson: row %d: %w", i, err)
		}
	}
	return problem, ci, nil
}

func buildSchema(rels []RelationDoc) (*relation.DBSchema, error) {
	db, err := relation.NewDBSchema()
	if err != nil {
		return nil, err
	}
	for _, r := range rels {
		attrs := make([]relation.Attribute, len(r.Attrs))
		for i, a := range r.Attrs {
			var dom *relation.Domain
			if a.Domain != nil {
				vals := make([]relation.Value, len(a.Domain))
				for j, v := range a.Domain {
					vals[j] = relation.Value(v)
				}
				dom = relation.Finite(r.Name+"."+a.Name, vals...)
			}
			attrs[i] = relation.Attr(a.Name, dom)
		}
		sch, err := relation.NewSchema(r.Name, attrs...)
		if err != nil {
			return nil, err
		}
		if err := db.Add(sch); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// parseTerm interprets "?x" as a variable and everything else as a
// constant; "\\?" escapes a literal leading question mark.
func parseTerm(s string) query.Term {
	if strings.HasPrefix(s, "?") {
		return query.V(s[1:])
	}
	if strings.HasPrefix(s, "\\?") {
		return query.C(relation.Value(s[1:]))
	}
	return query.C(relation.Value(s))
}
