package views

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

var errInjectedView = errors.New("fault: injected governor stop")

// governedViewQuery exercises every delta rule (triple, AND, UNION,
// FILTER) on the row runtime.
const governedViewQuery = "CONSTRUCT {(?p reaches ?c)} WHERE " +
	"((?p works_at ?u) AND (?u located_in ?c)) UNION " +
	"((?p born ?c) FILTER (!(?c = nowhere)))"

func governedDelta() []rdf.Triple {
	return []rdf.Triple{
		rdf.T("ana", "works_at", "puc"),
		rdf.T("puc", "located_in", "chile"),
		rdf.T("bob", "born", "peru"),
		rdf.T("eve", "born", "nowhere"),
	}
}

// TestInsertBudgetAtomicUnwind is the views half of the fault-harness
// property: whatever step the governor aborts an insert at, the view
// must roll back to its pre-insert state — base and output byte-for-
// byte unchanged, no partial rows leaked — and a later ungoverned
// insert of the same delta must produce exactly the no-fault result.
func TestInsertBudgetAtomicUnwind(t *testing.T) {
	q := parser.MustParseConstruct(governedViewQuery)
	seed := rdf.FromTriples(rdf.T("old", "works_at", "puc"))
	delta := governedDelta()

	// Control: the no-fault run, which also measures the step count.
	control, err := New(q, seed)
	if err != nil {
		t.Fatal(err)
	}
	b := sparql.NewBudget(context.Background())
	if _, err := control.Insert(b, nil, delta...); err != nil {
		t.Fatalf("governed insert failed without fault: %v", err)
	}
	total := b.Steps()
	if total == 0 {
		t.Fatal("insert consumed no steps; the sweep below would be vacuous")
	}

	for n := int64(0); n <= total; n++ {
		v, err := New(q, seed)
		if err != nil {
			t.Fatal(err)
		}
		baseBefore := rdf.CloneStore(v.Base())
		outBefore := rdf.CloneStore(v.Graph())

		b := sparql.NewBudget(nil)
		b.InjectFault(n, errInjectedView)
		added, err := v.Insert(b, nil, delta...)
		if !errors.Is(err, errInjectedView) {
			t.Fatalf("fault@%d/%d: err = %v, want injected sentinel", n, total, err)
		}
		if added != 0 {
			t.Fatalf("fault@%d: reported %d added triples alongside error", n, added)
		}
		if !v.Base().Equal(baseBefore) {
			t.Fatalf("fault@%d: base not rolled back\nbefore:\n%s\nafter:\n%s",
				n, baseBefore, v.Base())
		}
		if !v.Graph().Equal(outBefore) {
			t.Fatalf("fault@%d: output changed on aborted insert\nbefore:\n%s\nafter:\n%s",
				n, outBefore, v.Graph())
		}
		// Retrying without the fault converges to the control state.
		if _, err := v.Insert(nil, nil, delta...); err != nil {
			t.Fatalf("fault@%d: retry failed: %v", n, err)
		}
		if !v.Base().Equal(control.Base()) || !v.Graph().Equal(control.Graph()) {
			t.Fatalf("fault@%d: retry diverges from control\ngot:\n%s\nwant:\n%s",
				n, v.Graph(), control.Graph())
		}
	}
}

// TestInsertCtxCanceled: a pre-canceled context aborts the insert with
// the typed cancellation error and rolls back.
func TestInsertCtxCanceled(t *testing.T) {
	q := parser.MustParseConstruct(governedViewQuery)
	v, err := New(q, rdf.NewGraph())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = v.Insert(sparql.NewBudget(ctx), nil, governedDelta()...)
	if !errors.Is(err, sparql.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled/context.Canceled", err)
	}
	if v.Base().Len() != 0 || v.Graph().Len() != 0 {
		t.Fatalf("canceled insert left state behind: base %d, out %d",
			v.Base().Len(), v.Graph().Len())
	}
	// The same insert with a live context succeeds.
	if _, err := v.Insert(sparql.NewBudget(context.Background()), nil, governedDelta()...); err != nil {
		t.Fatal(err)
	}
	if !v.Graph().Contains("ana", "reaches", "chile") {
		t.Fatalf("post-cancel insert incomplete:\n%s", v.Graph())
	}
}

// TestInsertBudgetRandomizedUnwind repeats the atomicity property on
// random AUF views over random graphs, sampling injection points.
func TestInsertBudgetRandomizedUnwind(t *testing.T) {
	rng := rand.New(rand.NewSource(8128))
	ops := []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpFilter}
	for trial := 0; trial < 20; trial++ {
		where := workload.RandomPattern(rng, workload.PatternOpts{Depth: 2, Ops: ops})
		if !sparql.InFragment(where, sparql.FragmentAUF) {
			continue
		}
		vars := sparql.Vars(where)
		if len(vars) == 0 {
			continue
		}
		q := sparql.ConstructQuery{
			Template: []sparql.TriplePattern{
				sparql.TP(sparql.V(vars[0]), sparql.I("derived"), sparql.V(vars[len(vars)-1])),
			},
			Where: where,
		}
		seed := workload.RandomGraph(rng, 2+rng.Intn(10), nil)
		delta := workload.RandomGraph(rng, 1+rng.Intn(6), nil).Triples()

		control, err := New(q, seed)
		if err != nil {
			t.Fatal(err)
		}
		b := sparql.NewBudget(context.Background())
		if _, err := control.Insert(b, nil, delta...); err != nil {
			t.Fatalf("trial %d: governed insert failed: %v", trial, err)
		}
		total := b.Steps()
		if total == 0 {
			continue // nothing charged: no injection point can fire
		}

		for n := int64(0); n <= total; n += 1 + total/16 {
			v, err := New(q, seed)
			if err != nil {
				t.Fatal(err)
			}
			baseBefore := rdf.CloneStore(v.Base())
			outBefore := rdf.CloneStore(v.Graph())
			fb := sparql.NewBudget(nil)
			fb.InjectFault(n, errInjectedView)
			if _, err := v.Insert(fb, nil, delta...); !errors.Is(err, errInjectedView) {
				t.Fatalf("trial %d fault@%d: err = %v", trial, n, err)
			}
			if !v.Base().Equal(baseBefore) || !v.Graph().Equal(outBefore) {
				t.Fatalf("trial %d fault@%d: state not rolled back", trial, n)
			}
			if _, err := v.Insert(nil, nil, delta...); err != nil {
				t.Fatalf("trial %d fault@%d: retry failed: %v", trial, n, err)
			}
			if !v.Graph().Equal(control.Graph()) {
				t.Fatalf("trial %d fault@%d: retry diverges from control", trial, n)
			}
		}
	}
}
