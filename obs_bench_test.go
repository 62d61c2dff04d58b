package relcomplete_test

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	relcomplete "relcomplete"
	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/paperex"
	"relcomplete/internal/query"
	"relcomplete/internal/reduction"
	"relcomplete/internal/relation"
	"relcomplete/internal/workload"
)

// BenchmarkObsOverhead times the same strong-RCDP decision three ways:
// uninstrumented (the default every other benchmark runs in), with the
// atomic counters attached, and with counters plus a decision trace:
// a root span whose recorder streams the decision events to
// io.Discard. The disabled case is the overhead contract — nil Obs and
// no span must stay within noise of the seed (≤2%, see DESIGN.md
// §5.9); the other two cases price the opt-ins.
func BenchmarkObsOverhead(b *testing.B) {
	s := paperex.Reduced()
	ci := s.T.Clone()
	for i := 0; i < 2; i++ {
		ci.MustAddRow("MVisit", ctable.Row{Terms: []query.Term{
			query.C(relation.Value(fmt.Sprintf("999-00-%03d", i))),
			query.C(relation.Value(fmt.Sprintf("P%d", i))),
			query.C("LON"), query.C("2000"),
		}})
	}
	run := func(b *testing.B, ctx context.Context, opts core.Options) {
		p, err := s.Problem(s.Q1, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.RCDPCtx(ctx, ci, core.Strong); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, context.Background(), core.Options{})
	})
	b.Run("counters", func(b *testing.B) {
		opts := core.Options{}
		opts.Obs = relcomplete.NewMetrics()
		run(b, context.Background(), opts)
	})
	b.Run("traced", func(b *testing.B) {
		opts := core.Options{}
		opts.Obs = relcomplete.NewMetrics()
		opts.Parallelism = 1
		root := relcomplete.NewSpanRecorder(0).StreamEvents(io.Discard).Root("bench", "")
		run(b, relcomplete.ContextWithSpan(context.Background(), root), opts)
	})
}

// BenchmarkObsHistogram prices one histogram observation (an atomic
// bucket increment plus a sum add after a short linear bound scan) and
// the snapshots built from the histograms: one observed histogram, and
// the metrics a single decide leaves behind.
func BenchmarkObsHistogram(b *testing.B) {
	m := relcomplete.NewMetrics()
	b.Run("observe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Observe(0, int64(i)) // Histo 0 = decider wall time
		}
	})
	b.Run("nil", func(b *testing.B) {
		var nm *relcomplete.Metrics
		for i := 0; i < b.N; i++ {
			nm.Observe(0, int64(i))
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		m.Observe(0, 1)
		for i := 0; i < b.N; i++ {
			if st := m.Snapshot(); len(st.Histograms) == 0 {
				b.Fatal("missing histograms")
			}
		}
	})
	b.Run("snapshot_decide", func(b *testing.B) {
		// What a served decide's stats cost: the metrics of one strong
		// RCDP decide, as the request-scoped view holds them when the
		// response is built.
		s := paperex.Reduced()
		opts := core.Options{}
		opts.Obs = relcomplete.NewMetrics()
		p, err := s.Problem(s.Q1, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.RCDP(s.T, core.Strong); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := opts.Obs.Snapshot(); len(st.Histograms) == 0 {
				b.Fatal("missing histograms")
			}
		}
	})
}

// BenchmarkCancellationOverhead prices the deadline plumbing the same
// way BenchmarkObsOverhead prices the metrics: the identical 3SAT
// consistency decision on the Background fast path (no Done channel,
// guard and Interrupt hook both skipped) versus under an armed
// far-future deadline (per-valuation ctx polls plus the evaluator's
// Interrupt hook, none of which ever fire). The contract is that the
// armed case stays within a few percent of background — cancellation
// support must not tax callers who never cancel.
func BenchmarkCancellationOverhead(b *testing.B) {
	q := workload.ForallExistsFamily(2, 2, 4, 2)
	newGadget := func(b *testing.B) *reduction.ConsistencyGadget {
		g, err := reduction.NewConsistencyGadget(q)
		if err != nil {
			b.Fatal(err)
		}
		g.Problem.Options.Parallelism = 1
		return g
	}
	b.Run("background", func(b *testing.B) {
		g := newGadget(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.ConsistencyHolds(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("armed_deadline", func(b *testing.B) {
		g := newGadget(b)
		ctx, cancel := context.WithDeadline(context.Background(),
			time.Now().Add(24*time.Hour))
		defer cancel()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.ConsistencyHoldsCtx(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
