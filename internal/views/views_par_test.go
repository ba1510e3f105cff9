package views

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// parViewDelta builds a delta large enough to push the probe loop past
// parProbeMin, so the insert fans out across workers.
func parViewDelta(people int) []rdf.Triple {
	delta := make([]rdf.Triple, 0, people)
	for i := 0; i < people; i++ {
		delta = append(delta, rdf.T(
			rdf.IRI(fmt.Sprintf("person_%d", i)), "works_at",
			rdf.IRI(fmt.Sprintf("uni_%d", i%10))))
	}
	return delta
}

func parViewBase() *rdf.Graph {
	g := rdf.NewGraph()
	for u := 0; u < 10; u++ {
		g.Add(rdf.IRI(fmt.Sprintf("uni_%d", u)), "located_in",
			rdf.IRI(fmt.Sprintf("country_%d", u%3)))
	}
	return g
}

// TestInsertLargeDeltaParallelAgrees checks the parallel probe path
// against the serial one: a single large insert (probes fanned out
// across GOMAXPROCS workers) must produce exactly the view state that
// one-triple-at-a-time serial inserts do.
func TestInsertLargeDeltaParallelAgrees(t *testing.T) {
	q := parser.MustParseConstruct(
		"CONSTRUCT {(?p works_in ?c)} WHERE (?p works_at ?u) AND (?u located_in ?c)")
	delta := parViewDelta(4 * parProbeMin)

	serial, err := New(q, parViewBase())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range delta {
		mustInsert(t, serial, tr)
	}

	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	par, err := New(q, parViewBase())
	if err != nil {
		t.Fatal(err)
	}
	added, err := par.Insert(sparql.NewBudget(context.Background()), nil, delta...)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(delta) {
		t.Fatalf("added %d of %d delta triples", added, len(delta))
	}
	if !par.Graph().Equal(serial.Graph()) {
		t.Fatalf("parallel insert diverges from serial\nparallel:\n%s\nserial:\n%s",
			par.Graph(), serial.Graph())
	}
	if !par.Base().Equal(serial.Base()) {
		t.Fatal("bases diverge after identical inserts")
	}
}

// TestInsertLargeDeltaParallelUnwind aborts a fanned-out insert at a
// spread of injection points: every worker must drain, and the
// rollback must restore base and output exactly, same as the serial
// unwind property.
func TestInsertLargeDeltaParallelUnwind(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	q := parser.MustParseConstruct(
		"CONSTRUCT {(?p works_in ?c)} WHERE (?p works_at ?u) AND (?u located_in ?c)")
	delta := parViewDelta(2 * parProbeMin)

	control, err := New(q, parViewBase())
	if err != nil {
		t.Fatal(err)
	}
	b := sparql.NewBudget(context.Background())
	if _, err := control.Insert(b, nil, delta...); err != nil {
		t.Fatalf("governed insert failed without fault: %v", err)
	}
	total := b.Steps()

	points := total / 16
	if points < 1 {
		points = 1
	}
	for n := int64(0); n <= total; n += points {
		v, err := New(q, parViewBase())
		if err != nil {
			t.Fatal(err)
		}
		baseBefore := rdf.CloneStore(v.Base())
		outBefore := rdf.CloneStore(v.Graph())
		fb := sparql.NewBudget(nil)
		fb.InjectFault(n, errInjectedView)
		added, err := v.Insert(fb, nil, delta...)
		if !errors.Is(err, errInjectedView) {
			t.Fatalf("fault@%d/%d: err = %v, want injected sentinel", n, total, err)
		}
		if added != 0 {
			t.Fatalf("fault@%d: reported %d added alongside error", n, added)
		}
		if !v.Base().Equal(baseBefore) {
			t.Fatalf("fault@%d: base not rolled back", n)
		}
		if !v.Graph().Equal(outBefore) {
			t.Fatalf("fault@%d: output changed on aborted insert", n)
		}
	}
}
