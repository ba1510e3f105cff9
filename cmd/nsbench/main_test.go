package main

import (
	"encoding/json"
	"fmt"
	"testing"
)

func TestExperimentRegistry(t *testing.T) {
	if len(experiments) < 20 {
		t.Fatalf("only %d experiments registered", len(experiments))
	}
	seen := make(map[string]bool)
	for _, e := range experiments {
		if seen[e.id] {
			t.Errorf("duplicate experiment id %s", e.id)
		}
		seen[e.id] = true
		if e.title == "" || e.run == nil {
			t.Errorf("experiment %s incomplete", e.id)
		}
		if numOf(e.id) == 0 {
			t.Errorf("experiment id %s does not parse", e.id)
		}
	}
	// The E-numbers of DESIGN.md §4 must all be present.
	for n := 1; n <= 23; n++ {
		id := fmt.Sprintf("E%d", n)
		if !seen[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
}

// TestFastExperimentsRun executes the cheap correctness experiments end
// to end (the measured ones are exercised by `go test -bench` and the
// nsbench binary itself).
func TestFastExperimentsRun(t *testing.T) {
	fast := map[string]bool{"E1": true, "E2": true, "E3": true, "E4": true, "E5": true, "E18": true}
	for _, e := range experiments {
		if fast[e.id] {
			e.run() // must not panic
		}
	}
}

// TestJSONBenchRegistry checks the -json benchmark registry covers the
// row-engine ablations and that rows marshal to the documented shape.
func TestJSONBenchRegistry(t *testing.T) {
	byExp := make(map[string]int)
	for _, jb := range jsonBenches {
		if jb.name == "" || jb.fn == nil {
			t.Errorf("benchmark %q/%q incomplete", jb.experiment, jb.name)
		}
		byExp[jb.experiment]++
	}
	if byExp["E17"] < 9 { // naive, bucketed, rows × three sizes
		t.Errorf("E17 has %d JSON benchmarks, want >= 9", byExp["E17"])
	}
	if byExp["E20"] < 9 { // reference, planner-rows, planner-rows-parallel × three queries
		t.Errorf("E20 has %d JSON benchmarks, want >= 9", byExp["E20"])
	}
	if byExp["E25"] < 15 { // nested/sorted/count × four scan shapes, linear, join-merge, join-hash
		t.Errorf("E25 has %d JSON benchmarks, want >= 15", byExp["E25"])
	}
	row := benchRow{Experiment: "E17", Name: "maximal-rows",
		Params: map[string]interface{}{"n": 200}, NsPerOp: 1.5, AllocsPerOp: 2, BytesPerOp: 3}
	buf, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]interface{}
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"experiment", "name", "params", "ns_per_op", "allocs_per_op", "bytes_per_op"} {
		if _, ok := back[k]; !ok {
			t.Errorf("JSON row missing key %q: %s", k, buf)
		}
	}
}
