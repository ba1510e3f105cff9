package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json and the driver agree on every metric's name and unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit string }
		want []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the driver %d", c.what, len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), driver %s (%s)", c.what, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %s, driver %s", i, w.Name, specs[i].Name)
		}
	}
}
