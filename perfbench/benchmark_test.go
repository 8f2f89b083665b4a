package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// and the metrics this program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		list string
		json []entry
		code []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEndUnits}, {"per_layer", spec.PerLayer, layerUnits}} {
		want := make(map[string]string)
		for _, m := range tc.code {
			want[m.name] = m.unit
		}
		got := make(map[string]string)
		for _, m := range tc.json {
			got[m.Name] = m.Unit
		}
		for name, unit := range want {
			if got[name] != unit {
				t.Errorf("%s: %s printed with unit %q, BENCHMARK.json has %q", tc.list, name, unit, got[name])
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: BENCHMARK.json lists %s, which is never printed", tc.list, name)
			}
		}
	}
}
