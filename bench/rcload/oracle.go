package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/probjson"
	"relcomplete/internal/server"
)

// outcome is what a decide answers: a verdict, or for "certain" the
// sorted certain answers.
type outcome struct {
	Verdict *bool
	Answers []string
}

func (o outcome) equal(p outcome) bool {
	if (o.Verdict == nil) != (p.Verdict == nil) {
		return false
	}
	if o.Verdict != nil && *o.Verdict != *p.Verdict {
		return false
	}
	return slices.Equal(o.Answers, p.Answers)
}

func (o outcome) String() string {
	if o.Verdict != nil {
		return fmt.Sprintf("verdict=%t", *o.Verdict)
	}
	return fmt.Sprintf("certain=%q", o.Answers)
}

// withOverride applies t's per-request overrides to a copy of doc, the
// way the server's decide path does before it rebuilds the problem.
func withOverride(doc probjson.Document, t template) probjson.Document {
	req := t.request()
	if req.Query != "" {
		doc.Query = probjson.QueryDoc{Calc: req.Query}
	}
	if b := req.Budget; b != nil {
		if b.MaxValuations != 0 {
			doc.Options.MaxValuations = b.MaxValuations
		}
		if b.MaxSubsets != 0 {
			doc.Options.MaxSubsets = b.MaxSubsets
		}
	}
	return doc
}

// decideDirect runs t's decider on a built problem through the same
// core entry point the server dispatches the property to.
func decideDirect(ctx context.Context, p *core.Problem, ci *ctable.CInstance, t template) (outcome, error) {
	model := core.Strong
	if t.Model == "weak" {
		model = core.Weak
	}
	var ok bool
	var err error
	switch t.Property {
	case "consistency":
		ok, err = p.ConsistentCtx(ctx, ci)
	case "rcdp":
		ok, _, err = p.RCDPExplainCtx(ctx, ci, model)
	case "minp":
		ok, err = p.MINPCtx(ctx, ci, model)
	case "rcqp":
		ok, err = p.RCQPCtx(ctx, model)
	case "certain":
		ans, err := p.CertainAnswersCtx(ctx, ci)
		if err != nil {
			return outcome{}, err
		}
		out := outcome{Answers: make([]string, len(ans))}
		for i, a := range ans {
			out.Answers[i] = a.String()
		}
		slices.Sort(out.Answers)
		return out, nil
	default:
		return outcome{}, fmt.Errorf("unknown property %q", t.Property)
	}
	if err != nil {
		return outcome{}, err
	}
	return outcome{Verdict: &ok}, nil
}

// oracle holds the expected outcome of every (tenant, version,
// template), decided once at set-up through probjson and direct core
// calls on the sequential path (Parallelism 1) — a different route to
// the verdict than the served one, which runs the parallel search.
type oracle struct {
	want [][][]outcome // [tenant][version][template]
}

func buildOracle(w *workload, in *inputs) (*oracle, error) {
	o := &oracle{want: make([][][]outcome, len(w.Tenants))}
	type job struct{ tenant, version int }
	jobs := make(chan job)
	errs := make(chan error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < cap(errs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out, err := decideAll(w, in.docs[j.tenant][j.version])
				if err != nil {
					errs <- fmt.Errorf("oracle: %s version %d: %w", in.names[j.tenant], j.version, err)
					for range jobs { // drain so the sender finishes
					}
					return
				}
				o.want[j.tenant][j.version] = out
			}
		}()
	}
	for t := range w.Tenants {
		o.want[t] = make([][]outcome, w.Versions)
		for v := 0; v < w.Versions; v++ {
			jobs <- job{t, v}
		}
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return o, <-errs
}

// decideAll decides every template of a workload on one document.
func decideAll(w *workload, raw []byte) ([]outcome, error) {
	doc, err := server.DecodeDocument(raw)
	if err != nil {
		return nil, err
	}
	resident, ci, err := probjson.Decode(raw)
	if err != nil {
		return nil, err
	}
	resident.Options.Parallelism = 1
	out := make([]outcome, len(w.Templates))
	done := map[template]outcome{} // a mix may list a template more than once
	for i, t := range w.Templates {
		if o, ok := done[t]; ok {
			out[i] = o
			continue
		}
		p, pci := resident, ci
		if t.overrides() {
			over := withOverride(*doc, t)
			if p, pci, err = probjson.Build(&over); err != nil {
				return nil, err
			}
			p.Options.Parallelism = 1
		}
		if out[i], err = decideDirect(context.Background(), p, pci, t); err != nil {
			return nil, fmt.Errorf("%s: %w", t.name(), err)
		}
		done[t] = out[i]
	}
	return out, nil
}

// check reports whether got is the expected outcome of template tmpl on
// the tenant's document after any of puts lo..hi (inclusive) had been
// applied: version n is the one PUT number n left resident.
func (o *oracle) check(tenant int32, lo, hi int64, tmpl int32, got outcome) bool {
	vs := o.want[tenant]
	for n := lo; n <= hi; n++ {
		if vs[n%int64(len(vs))][tmpl].equal(got) {
			return true
		}
	}
	return false
}
