package core_test

import (
	"context"
	"testing"
	"time"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/probjson"
	"relcomplete/internal/query"
)

// BenchmarkQueryOverride decides a served "query" override in-process
// on the 2000-item, 24-character catalogue: each op builds a problem of
// its own over the resident problem's schema, master data and CCs (a
// fresh memo, as rcserved does) and runs one decider under a deadline.
// The resident problem has decided once before timing, so what the
// master data caches is warm. The three override queries name no
// constant, as on the served benchmark's override_rebuild workload.
func BenchmarkQueryOverride(b *testing.B) {
	resident, ci, err := probjson.Decode(catalogDocument(2000, 24, 1))
	if err != nil {
		b.Fatal(err)
	}
	queries := []*query.Query{
		query.MustParseQuery("Q(i) := Order(i, q)"),
		query.MustParseQuery("Q(i, q) := Order(i, q)"),
		query.MustParseQuery("Q(q) := Order(i, q)"),
	}
	deciders := []struct {
		name   string
		decide func(ctx context.Context, p *core.Problem, ci *ctable.CInstance) error
	}{
		{"consistency", func(ctx context.Context, p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.ConsistentCtx(ctx, ci)
			return err
		}},
		{"certain", func(ctx context.Context, p *core.Problem, ci *ctable.CInstance) error {
			_, err := p.CertainAnswersCtx(ctx, ci)
			return err
		}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, d := range deciders {
		if err := d.decide(ctx, resident, ci); err != nil {
			b.Fatal(err)
		}
	}
	for _, d := range deciders {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := core.NewProblem(resident.Schema, core.CalcQuery(queries[i%len(queries)]),
					resident.Master, resident.CCs, resident.Options)
				if err != nil {
					b.Fatal(err)
				}
				if err := d.decide(ctx, p, ci); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
