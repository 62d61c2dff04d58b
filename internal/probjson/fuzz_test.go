package probjson

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"relcomplete/internal/core"
)

// FuzzDecode feeds arbitrary bytes to Decode. A rejected document must
// fail with an error that names the package ("probjson: ..."), never a
// panic. An accepted one must decide: ConsistentCtx, capped at 64
// valuations and a 100 ms deadline, returns a verdict or a typed error
// (budget, deadline, or one of core's sentinels). The accepted documents
// run the active-domain and typing construction on arbitrary master
// data. Seeds: examples/orders_rcdp.json and the documents of
// probjson_test.go.
func FuzzDecode(f *testing.F) {
	example, err := os.ReadFile(filepath.Join("..", "..", "examples", "orders_rcdp.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, doc := range []string{sampleDoc, finiteDomainDoc, fpDoc} {
		f.Add([]byte(doc))
	}
	for _, doc := range badDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ci, err := Decode(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "probjson: ") {
				t.Fatalf("rejection %q does not name probjson", err)
			}
			return
		}
		p.Options.MaxValuations = 64
		p.Options.Parallelism = 1
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if _, err := p.ConsistentCtx(ctx, ci); err != nil && !typedDecideError(err) {
			t.Fatalf("ConsistentCtx: untyped error %v", err)
		}
	})
}

// typedDecideError reports whether err is one a caller of a decider can
// act on by kind.
func typedDecideError(err error) bool {
	for _, target := range []error{core.ErrBudget, core.ErrDeadline, core.ErrInconsistent, core.ErrUndecidable, core.ErrOpen} {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}
