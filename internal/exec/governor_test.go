package exec

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

var errInjectedExec = errors.New("fault: injected governor stop")

// TestAskCtxCanceled: a dead context aborts ASK with the typed error
// instead of burning the full search.
func TestAskCtxCanceled(t *testing.T) {
	g := workload.Figure1()
	p := sparql.TP(sparql.V("X"), sparql.V("P"), sparql.V("Y"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := askOf(g, p, sparql.NewBudget(ctx))
	if !errors.Is(err, sparql.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled/context.Canceled", err)
	}
	// A live context gives the real answer.
	ok, err := askOf(g, p, sparql.NewBudget(context.Background()))
	if err != nil || !ok {
		t.Fatalf("live ASK = %v, %v", ok, err)
	}
}

// TestLimitBudgetMaxRows: the row budget is a hard error, not a silent
// truncation — unlike the k limit, which is an explicit request.
func TestLimitBudgetMaxRows(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 10; i++ {
		g.Add(rdf.IRI(rune('a'+i)), "p", "x")
	}
	p := sparql.TP(sparql.V("S"), sparql.I("p"), sparql.V("O"))

	// k within budget: fine.
	b := sparql.NewBudget(nil).WithMaxRows(5)
	out, err := limitOf(g, p, 3, b)
	if err != nil || out.Len() != 3 {
		t.Fatalf("k=3 under MaxRows=5: %v, %v", out, err)
	}
	// Unlimited k against a smaller row budget: typed failure.
	b = sparql.NewBudget(nil).WithMaxRows(5)
	_, err = limitOf(g, p, -1, b)
	var be sparql.ErrBudgetExceeded
	if !errors.As(err, &be) || be.Kind != sparql.BudgetRows {
		t.Fatalf("err = %v, want ErrBudgetExceeded{BudgetRows}", err)
	}
	// Without a budget the full answer set comes back.
	if got := mustLimit(t, g, p, -1); got.Len() != 10 {
		t.Fatalf("ungoverned Limit = %d rows", got.Len())
	}
}

// TestExecFaultInjection sweeps injected faults through Ask, Limit and
// ConstructContains on random patterns: the sentinel must surface and
// the same call must succeed afterwards with the fault disarmed,
// agreeing with the ungoverned result.
func TestExecFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	ops := []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpOpt, sparql.OpFilter, sparql.OpSelect, sparql.OpNS}
	for trial := 0; trial < 15; trial++ {
		g := workload.RandomGraph(rng, 2+rng.Intn(20), nil)
		p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: ops})

		b := sparql.NewBudget(context.Background())
		want, err := askOf(g, p, b)
		if err != nil {
			t.Fatalf("trial %d: governed Ask failed: %v", trial, err)
		}
		total := b.Steps()
		for n := int64(0); n <= total; n += 1 + total/8 {
			fb := sparql.NewBudget(nil)
			fb.InjectFault(n, errInjectedExec)
			got, err := askOf(g, p, fb)
			if err == nil {
				// Ask stops at the first witness and the index iteration
				// order is not deterministic, so a lucky run may finish
				// before step n — but only with a true answer.
				if !want || !got {
					t.Fatalf("trial %d Ask fault@%d/%d: completed with %v, want fault or early witness",
						trial, n, total, got)
				}
			} else if !errors.Is(err, errInjectedExec) {
				t.Fatalf("trial %d Ask fault@%d/%d: err = %v", trial, n, total, err)
			}
		}
		if got := mustAsk(t, g, p); got != want {
			t.Fatalf("trial %d: Ask changed after faults: %v -> %v", trial, want, got)
		}

		lb := sparql.NewBudget(context.Background())
		wantSet, err := limitOf(g, p, -1, lb)
		if err != nil {
			t.Fatalf("trial %d: governed Limit failed: %v", trial, err)
		}
		ltotal := lb.Steps()
		for n := int64(0); n <= ltotal; n += 1 + ltotal/8 {
			fb := sparql.NewBudget(nil)
			fb.InjectFault(n, errInjectedExec)
			got, err := limitOf(g, p, -1, fb)
			if err == nil {
				// Step totals vary with iteration order; an under-n run
				// must be complete and correct (see the sparql fault suite).
				if !got.Equal(wantSet) {
					t.Fatalf("trial %d Limit fault@%d/%d: completed with wrong answers", trial, n, ltotal)
				}
				continue
			}
			if !errors.Is(err, errInjectedExec) {
				t.Fatalf("trial %d Limit fault@%d/%d: err = %v", trial, n, ltotal, err)
			}
		}
		if got := mustLimit(t, g, p, -1); !got.Equal(wantSet) {
			t.Fatalf("trial %d: Limit changed after faults", trial)
		}
	}
}

// TestConstructContainsFaultInjection covers the remaining governed
// entry point, including its seeded-searcher path.
func TestConstructContainsFaultInjection(t *testing.T) {
	g := workload.Figure1()
	q := sparql.ConstructQuery{
		Template: []sparql.TriplePattern{
			sparql.TP(sparql.V("X"), sparql.I("linked"), sparql.V("Y")),
		},
		Where: sparql.And{
			L: sparql.TP(sparql.V("X"), sparql.V("P"), sparql.V("Y")),
			R: sparql.TP(sparql.V("Y"), sparql.V("Q"), sparql.V("Z")),
		},
	}
	var target rdf.Triple
	found := false
	g.ForEach(func(t rdf.Triple) bool {
		target = rdf.T(t.S, "linked", t.O)
		found = true
		return false
	})
	if !found {
		t.Fatal("empty scenario graph")
	}

	b := sparql.NewBudget(context.Background())
	want, err := ConstructContains(g, q, target, b, plan.Options{})
	if err != nil {
		t.Fatalf("governed ConstructContains failed: %v", err)
	}
	total := b.Steps()
	for n := int64(0); n <= total; n++ {
		fb := sparql.NewBudget(nil)
		fb.InjectFault(n, errInjectedExec)
		got, err := ConstructContains(g, q, target, fb, plan.Options{})
		if err == nil {
			// Like Ask, the search may find its witness before step n.
			if !want || !got {
				t.Fatalf("fault@%d/%d: completed with %v, want fault or early witness", n, total, got)
			}
		} else if !errors.Is(err, errInjectedExec) {
			t.Fatalf("fault@%d/%d: err = %v", n, total, err)
		}
	}
	if got := mustContains(t, g, q, target); got != want {
		t.Fatalf("ConstructContains changed after faults: %v -> %v", want, got)
	}
	// Canceled context variant.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ConstructContains(g, q, target, sparql.NewBudget(ctx), plan.Options{}); !errors.Is(err, sparql.ErrCanceled) {
		t.Fatalf("canceled ctx: %v", err)
	}
}
