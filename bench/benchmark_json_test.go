package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the root of the repository declares, for whoever runs
// the benchmark, the workloads and metrics this program prints. The two are
// written twice; this holds them together.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, implemented %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	var layers []metricDef
	for _, l := range perLayer {
		layers = append(layers, l.metricDef)
	}
	for _, list := range []struct {
		key                   string
		declared, implemented []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, layers}} {
		if len(list.declared) != len(list.implemented) {
			t.Errorf("%s: %d metrics declared, %d implemented", list.key, len(list.declared), len(list.implemented))
		}
		for i := 0; i < len(list.declared) && i < len(list.implemented); i++ {
			if list.declared[i] != list.implemented[i] {
				t.Errorf("%s[%d]: declared %+v, implemented %+v", list.key, i, list.declared[i], list.implemented[i])
			}
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, doc.EndToEnd...), doc.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}
