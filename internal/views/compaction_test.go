package views

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// TestInsertUnwindThroughCompaction repeats the atomic-unwind property
// with the base graph's compaction threshold dropped to 1, so that the
// Add half of an insert and the Remove half of an aborted unwind both
// churn triples through the sorted-index overlay and its base merge.
// Whatever internal base/overlay split the store ends up in, the
// observable contents must roll back exactly and a retry must converge.
func TestInsertUnwindThroughCompaction(t *testing.T) {
	q := parser.MustParseConstruct(governedViewQuery)
	seed := rdf.NewGraph()
	for i := 0; i < 12; i++ {
		seed.Add(rdf.IRI(fmt.Sprintf("emp%d", i)), "works_at", "puc")
	}
	seed.Add("puc", "located_in", "chile")
	// New clones the seed, so the threshold must be set on each view's
	// live base, not on the seed.
	newView := func() *View {
		v, err := New(q, seed)
		if err != nil {
			t.Fatal(err)
		}
		v.Base().SetCompactionThreshold(1)
		return v
	}
	delta := governedDelta()

	control := newView()
	b := sparql.NewBudget(context.Background())
	if _, err := control.Insert(b, nil, delta...); err != nil {
		t.Fatalf("governed insert failed without fault: %v", err)
	}
	total := b.Steps()
	if total == 0 {
		t.Fatal("insert consumed no steps; sweep would be vacuous")
	}

	compacted := false
	for n := int64(0); n <= total; n++ {
		v := newView()
		baseBefore := rdf.CloneStore(v.Base())
		outBefore := rdf.CloneStore(v.Graph())

		fb := sparql.NewBudget(nil)
		fb.InjectFault(n, errInjectedView)
		if _, err := v.Insert(fb, nil, delta...); !errors.Is(err, errInjectedView) {
			t.Fatalf("fault@%d/%d: err = %v, want injected sentinel", n, total, err)
		}
		if !v.Base().Equal(baseBefore) {
			t.Fatalf("fault@%d: base not rolled back through compaction\nbefore:\n%s\nafter:\n%s",
				n, baseBefore, v.Base())
		}
		if !v.Graph().Equal(outBefore) {
			t.Fatalf("fault@%d: output changed on aborted insert", n)
		}
		if _, err := v.Insert(nil, nil, delta...); err != nil {
			t.Fatalf("fault@%d: retry failed: %v", n, err)
		}
		if !v.Base().Equal(control.Base()) || !v.Graph().Equal(control.Graph()) {
			t.Fatalf("fault@%d: retry diverges from control", n)
		}
		if v.Base().Stats().Compactions > 0 {
			compacted = true
		}
	}
	if !compacted {
		t.Fatal("threshold-1 sweep never compacted; the test is not exercising the merge path")
	}
}

// TestCompactionInterleavesWithMaintenance pins the snapshot contract
// at the views layer: with auto-compaction disabled the insert leaves a
// live overlay; an explicit Compact between inserts (legal: no snapshot
// held) merges it without disturbing the materialized output; while a
// read snapshot is held — as deltaEvalRows holds one for the whole
// delta evaluation — Compact refuses; and incremental maintenance keeps
// working across the base/overlay reshuffle.
func TestCompactionInterleavesWithMaintenance(t *testing.T) {
	q := parser.MustParseConstruct(governedViewQuery)
	v, err := New(q, rdf.NewGraph())
	if err != nil {
		t.Fatal(err)
	}
	g := v.Base()                     // New clones its argument; reach the live base
	g.SetCompactionThreshold(1 << 30) // manual compaction only
	mustInsert(t, v, governedDelta()...)
	if g.Stats().OverlayAdds == 0 {
		t.Fatal("expected a live overlay with auto-compaction disabled")
	}
	release := g.AcquireRead() // what deltaEvalRows holds during evaluation
	if g.Compact() {
		t.Fatal("Compact ran under an active read snapshot")
	}
	release()
	if !g.Compact() {
		t.Fatal("Compact refused with no readers")
	}
	if st := g.Stats(); st.OverlayAdds != 0 || st.Compactions != 1 {
		t.Fatalf("after explicit compact: %+v", st)
	}
	if !v.Graph().Contains("ana", "reaches", "chile") {
		t.Fatalf("view contents wrong after compaction:\n%s", v.Graph())
	}
	// Another insert after compaction still maintains incrementally.
	mustInsert(t, v, rdf.T("dan", "works_at", "puc"))
	if !v.Graph().Contains("dan", "reaches", "chile") {
		t.Fatalf("post-compaction insert incomplete:\n%s", v.Graph())
	}
}
