package views

import (
	"errors"
	"testing"

	"repro/internal/parser"
	"repro/internal/rdf"
	"repro/internal/rdf/durable"
	"repro/internal/sparql"
)

// openDurable opens a durable store in dir seeded with the given
// triples.
func openDurable(t *testing.T, dir string, seed ...rdf.Triple) *durable.Store {
	t.Helper()
	s, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncOff, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range seed {
		s.AddTriple(tr)
	}
	return s
}

// TestViewOverDurableUnwindLeavesNoWALRecords is the durability half
// of the atomic-unwind property: when the governor aborts an insert
// into a view over a durable base, not only must the in-memory state
// roll back (TestInsertBudgetAtomicUnwind), the WAL must hold no
// record of the aborted insert — a reopened store shows the
// pre-insert state, at every fault step.
func TestViewOverDurableUnwindLeavesNoWALRecords(t *testing.T) {
	q := parser.MustParseConstruct(governedViewQuery)
	seed := rdf.T("old", "works_at", "puc")
	delta := governedDelta()

	// Measure the fault-free step count on a throwaway store.
	control, err := Over(q, openDurable(t, t.TempDir(), seed))
	if err != nil {
		t.Fatal(err)
	}
	b := sparql.NewBudget(nil)
	if _, err := control.Insert(b, nil, delta...); err != nil {
		t.Fatalf("governed insert failed without fault: %v", err)
	}
	control.Base().Close()
	total := b.Steps()
	if total == 0 {
		t.Fatal("insert consumed no steps; the sweep below would be vacuous")
	}

	for n := int64(0); n <= total; n++ {
		dir := t.TempDir()
		base := openDurable(t, dir, seed)
		v, err := Over(q, base)
		if err != nil {
			t.Fatal(err)
		}
		want := rdf.CloneStore(v.Base())

		fb := sparql.NewBudget(nil)
		fb.InjectFault(n, errInjectedView)
		if _, err := v.Insert(fb, nil, delta...); !errors.Is(err, errInjectedView) {
			t.Fatalf("fault@%d/%d: err = %v, want injected sentinel", n, total, err)
		}
		if !v.Base().Equal(want) {
			t.Fatalf("fault@%d: live base not rolled back", n)
		}
		if recs := base.DurableStats().WALRecords; recs != 1 {
			t.Fatalf("fault@%d: WAL holds %d records after aborted insert, want 1 (the seed)", n, recs)
		}
		if err := base.Close(); err != nil {
			t.Fatal(err)
		}

		// The crash test proper: what's on disk must be the pre-insert
		// state, with no trace of the aborted batch.
		re, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncOff, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !re.Equal(want) {
			t.Fatalf("fault@%d: reopened base diverges\ngot:\n%swant:\n%s", n, re, want)
		}
		re.Close()
	}
}

// TestViewOverDurableCommitPersists is the success side: a completed
// insert through a view over a durable base survives close + reopen
// as one committed batch record.
func TestViewOverDurableCommitPersists(t *testing.T) {
	dir := t.TempDir()
	base := openDurable(t, dir, rdf.T("old", "works_at", "puc"))
	q := parser.MustParseConstruct(governedViewQuery)
	v, err := Over(q, base)
	if err != nil {
		t.Fatal(err)
	}
	added, err := v.Insert(nil, nil, governedDelta()...)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("insert derived no output triples; the view query is miswired")
	}
	if recs := base.DurableStats().WALRecords; recs != 2 {
		t.Fatalf("WAL holds %d records, want 2 (seed + one atomic batch)", recs)
	}
	want := rdf.CloneStore(v.Base())
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncOff, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Equal(want) {
		t.Fatalf("reopened base diverges\ngot:\n%swant:\n%s", re, want)
	}
	// Rebuilding the view over the recovered base reproduces the
	// incrementally-maintained output exactly.
	rv, err := Over(q, re)
	if err != nil {
		t.Fatal(err)
	}
	if !rv.Graph().Equal(v.Graph()) {
		t.Fatalf("rebuilt view output diverges\ngot:\n%swant:\n%s", rv.Graph(), v.Graph())
	}
}
