// Package relcomplete is a Go implementation of
//
//	Ting Deng, Wenfei Fan, Floris Geerts.
//	"Capturing Missing Tuples and Missing Values."
//	PODS 2010 (extended version: ACM TODS 41(2), 2016).
//
// It decides relative information completeness for partially closed
// databases represented as conditional tables (c-instances) bounded by
// master data through containment constraints. The facade re-exports
// the user-facing API of the internal packages:
//
//   - relation — schemas, tuples, instances, databases;
//   - query    — CQ/UCQ/∃FO+/FO queries and FP programs, with a text
//     syntax (ParseQuery, ParseProgram);
//   - cc       — containment constraints, FDs, INDs, denial constraints;
//   - ctable   — conditional tables and c-instances;
//   - core     — the deciders: consistency, extensibility, RCDP, RCQP
//     and MINP in the strong, weak and viable completeness models;
//   - tractable — the PTIME special cases of Section 7.
//
// See README.md for a walkthrough and DESIGN.md for the mapping from
// the paper's definitions and theorems to this code base.
package relcomplete

import (
	"context"

	"relcomplete/internal/cc"
	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/obs"
	"relcomplete/internal/query"
	"relcomplete/internal/relation"
)

// Relational substrate.
type (
	// Value is a constant of some attribute domain.
	Value = relation.Value
	// Tuple is a row of constants.
	Tuple = relation.Tuple
	// Domain is a finite or infinite attribute domain.
	Domain = relation.Domain
	// Attribute is a named column with a domain.
	Attribute = relation.Attribute
	// Schema is a relation schema.
	Schema = relation.Schema
	// DBSchema is a database schema (a list of relation schemas).
	DBSchema = relation.DBSchema
	// Instance is a set-semantics instance of one relation.
	Instance = relation.Instance
	// Database is a ground instance of a database schema.
	Database = relation.Database
)

// Queries.
type (
	// Query is a relational-calculus query (CQ, UCQ, ∃FO+ or FO).
	Query = query.Query
	// Program is an FP program (datalog with inflational fixpoint).
	Program = query.Program
	// Term is a variable or constant inside a query or c-table row.
	Term = query.Term
)

// Constraints and c-tables.
type (
	// Constraint is one containment constraint q(R) ⊆ p(Rm).
	Constraint = cc.Constraint
	// ConstraintSet is the paper's V.
	ConstraintSet = cc.Set
	// FD is a functional dependency.
	FD = cc.FD
	// IND is an inclusion dependency.
	IND = cc.IND
	// CTable is a conditional table (T, ξ).
	CTable = ctable.CTable
	// CInstance is a c-instance (one c-table per relation).
	CInstance = ctable.CInstance
	// Row is one c-table row with its local condition.
	Row = ctable.Row
	// Condition is a conjunction of =/≠ atoms over row variables.
	Condition = ctable.Condition
	// Valuation maps c-table variables to constants.
	Valuation = ctable.Valuation
)

// Deciders.
type (
	// Problem bundles schema, query, master data and CCs.
	Problem = core.Problem
	// Qry wraps a calculus query or an FP program.
	Qry = core.Qry
	// Model selects the strong, weak or viable completeness model.
	Model = core.Model
	// Lang is the query-language parameter LQ.
	Lang = core.Lang
	// Options tunes the deciders' budgets.
	Options = core.Options
	// Counterexample witnesses relative incompleteness.
	Counterexample = core.Counterexample
)

// Observability (see DESIGN.md §5.9).
type (
	// Metrics collects solver counters and phase timings; set it as
	// Options.Obs. A nil *Metrics disables collection.
	Metrics = obs.Metrics
	// Stats is a JSON-ready snapshot of a Metrics instance.
	Stats = obs.Stats
	// HistogramStat is one latency/size histogram in a Stats snapshot.
	HistogramStat = obs.HistogramStat
	// BudgetError carries the cap detail (option name, limit, consumed)
	// of an exhausted search budget; it unwraps to ErrBudget or
	// ErrInconclusive, so errors.Is checks keep working.
	BudgetError = core.BudgetError
	// DeadlineError reports a decider cut short by its context, with the
	// operation name, elapsed time, a Progress snapshot and a partial
	// result where the search semantics permit one; it unwraps to
	// ErrDeadline and the context cause (see DESIGN.md §5.10).
	DeadlineError = core.DeadlineError
	// Progress is the work snapshot a DeadlineError carries.
	Progress = core.Progress
	// Span is one operation of a request-scoped trace; carry it on a
	// context (ContextWithSpan) and the deciders hang their phase spans
	// and decision events off it. A nil *Span is inert.
	Span = obs.Span
	// SpanRecorder keeps the most recent finished spans of one trace;
	// its StreamEvents writes the deciders' decision trace as text.
	SpanRecorder = obs.SpanRecorder
	// SpanData is one finished span, JSON-ready.
	SpanData = obs.SpanData
)

// NewSpanRecorder returns a bounded recorder for one request trace
// (n <= 0 uses the package default cap). Start the trace with Root,
// carry the root span via ContextWithSpan, and pass that context to
// the *Ctx deciders to collect a span tree with per-phase timings;
// call StreamEvents(w) before Root to also write the decision trace
// (candidate models, CC violations, counterexamples, verdicts) to w.
func NewSpanRecorder(n int) *SpanRecorder { return obs.NewSpanRecorder(n) }

// ContextWithSpan returns ctx carrying sp as the active trace span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return obs.ContextWithSpan(ctx, sp)
}

// SpanFromContext returns ctx's active trace span, or nil.
func SpanFromContext(ctx context.Context) *Span { return obs.SpanFromContext(ctx) }

// NewMetrics returns an empty metrics instance for Options.Obs.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// The three completeness models of Section 2.2.
const (
	Strong = core.Strong
	Weak   = core.Weak
	Viable = core.Viable
)

// The query languages of the paper.
const (
	CQ      = core.CQ
	UCQ     = core.UCQ
	EFOPlus = core.EFOPlus
	FO      = core.FO
	FP      = core.FP
)

// Sentinel errors of the decision API.
var (
	// ErrUndecidable marks a combination Table I proves undecidable.
	ErrUndecidable = core.ErrUndecidable
	// ErrOpen marks the paper's open problem (RCQPw, FO, c-instances).
	ErrOpen = core.ErrOpen
	// ErrInconsistent reports an empty Mod(T, Dm, V).
	ErrInconsistent = core.ErrInconsistent
	// ErrBudget reports an exhausted search budget.
	ErrBudget = core.ErrBudget
	// ErrInconclusive reports an exhausted RCQP witness bound.
	ErrInconclusive = core.ErrInconclusive
	// ErrDeadline reports a context deadline or cancellation that cut a
	// decision short; every DeadlineError unwraps to it.
	ErrDeadline = core.ErrDeadline
)

// NewProblem validates and builds a decision-problem context from a
// data schema, a query, master data (nil for a fully open world) and a
// CC set (nil for none).
func NewProblem(schema *DBSchema, q Qry, master *Database, ccs *ConstraintSet, opts Options) (*Problem, error) {
	return core.NewProblem(schema, q, master, ccs, opts)
}

// CalcQuery wraps a relational-calculus query for NewProblem.
func CalcQuery(q *Query) Qry { return core.CalcQuery(q) }

// FPQuery wraps an FP program for NewProblem.
func FPQuery(p *Program) Qry { return core.FPQuery(p) }

// ParseQuery parses the datalog-style text syntax, e.g.
//
//	Q(x) := R(x, y) & S(y, 'lit') & x != y
func ParseQuery(src string) (*Query, error) { return query.ParseQuery(src) }

// ParseProgram parses an FP program, e.g.
//
//	reach(x, y) :- edge(x, y).
//	reach(x, z) :- reach(x, y), edge(y, z).
//	output reach.
func ParseProgram(name string, schema *DBSchema, src string) (*Program, error) {
	return query.ParseProgram(name, schema, src)
}

// ParseConstraint parses a containment constraint from the text forms
// of its two queries.
func ParseConstraint(name, left, right string) (*Constraint, error) {
	return cc.Parse(name, left, right)
}

// NewConstraintSet builds the paper's V.
func NewConstraintSet(cs ...*Constraint) *ConstraintSet { return cc.NewSet(cs...) }

// NewCInstance returns an empty c-instance of the schema.
func NewCInstance(schema *DBSchema) *CInstance { return ctable.NewCInstance(schema) }

// GroundCInstance lifts a ground database to a c-instance.
func GroundCInstance(db *Database) *CInstance { return ctable.FromDatabase(db) }

// Schema construction helpers.

// NewSchema builds a relation schema.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	return relation.NewSchema(name, attrs...)
}

// Attr builds an attribute; a nil domain means infinite.
func Attr(name string, dom *Domain) Attribute { return relation.Attr(name, dom) }

// FiniteDomain builds a finite domain with the given members.
func FiniteDomain(name string, values ...Value) *Domain {
	return relation.Finite(name, values...)
}

// BoolDomain is the Boolean domain {0, 1}.
func BoolDomain() *Domain { return relation.Bool() }

// NewDBSchema builds a database schema.
func NewDBSchema(rels ...*Schema) (*DBSchema, error) { return relation.NewDBSchema(rels...) }

// NewDatabase returns an empty ground database of the schema.
func NewDatabase(schema *DBSchema) *Database { return relation.NewDatabase(schema) }

// T builds a tuple from values.
func T(vals ...Value) Tuple { return relation.T(vals...) }

// V builds a variable term for c-table rows.
func V(name string) Term { return query.V(name) }

// C builds a constant term for c-table rows.
func C(v Value) Term { return query.C(v) }

// Neq builds the c-table condition atom l ≠ r.
func Neq(l, r Term) ctable.CondAtom { return ctable.CNeq(l, r) }

// Eq builds the c-table condition atom l = r.
func Eq(l, r Term) ctable.CondAtom { return ctable.CEq(l, r) }

// Cond builds a row condition from atoms.
func Cond(atoms ...ctable.CondAtom) Condition { return ctable.Cond(atoms...) }
