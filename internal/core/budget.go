package core

import "fmt"

// BudgetError reports that a decider stopped because a configured
// resource cap ran out, carrying enough detail to act on: which
// operation hit the cap, which Options field it was, the configured
// limit and how much had been consumed when it triggered.
//
// BudgetError wraps one of the package sentinels, so existing checks
// keep working unchanged:
//
//	errors.Is(err, core.ErrBudget)       // enumeration and fixpoint caps
//	errors.Is(err, core.ErrInconclusive) // bounded RCQP search exhausted
//
// and errors.As(err, *(*BudgetError)) recovers the detail.
type BudgetError struct {
	// Op names the operation that ran out, e.g. "tuple lattice over R",
	// "valuation enumeration" or "RCQP search".
	Op string
	// Cap is the Options field that supplied the limit:
	// "MaxValuations", "MaxSubsets", "MaxDerived" or "RCQPSizeBound".
	Cap string
	// Limit is the configured cap; Consumed is how much the operation
	// had used when it gave up (Consumed > Limit for enumeration caps,
	// Consumed == Limit for exhausted bounded searches).
	Limit    int64
	Consumed int64

	sentinel error // ErrBudget or ErrInconclusive
	counted  bool  // already counted in budget_errors_total (call.annotate)
}

// Error renders the failure with its cap detail.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("%s: %v (%s=%d, consumed %d)", e.Op, e.sentinel, e.Cap, e.Limit, e.Consumed)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *BudgetError) Unwrap() error { return e.sentinel }

// budgetErr builds a BudgetError around ErrBudget.
func (p *Problem) budgetErr(op, cap string, limit, consumed int64) error {
	return &BudgetError{Op: op, Cap: cap, Limit: limit, Consumed: consumed, sentinel: ErrBudget}
}

// inconclusiveErr builds a BudgetError around ErrInconclusive (the
// bounded RCQP search exhausted its size bound).
func (p *Problem) inconclusiveErr(op, cap string, limit, consumed int64) error {
	return &BudgetError{Op: op, Cap: cap, Limit: limit, Consumed: consumed, sentinel: ErrInconclusive}
}
