package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON checks that the metrics the benchmark
// prints are exactly the ones BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, perfbench has %d", len(b.Workloads), len(workloads))
	}
	u := &spawned{unit: &unit{RunS: 1, Jobs: 1, JobMs: []float64{1}}}
	e2e := map[string]metric{}
	endToEnd([]*spawned{u}, []float64{1}, e2e)
	pl := map[string]metric{}
	layers([]*spawned{u}, pl)
	for _, c := range []struct {
		decls []decl
		got   map[string]metric
	}{{b.EndToEnd, e2e}, {b.PerLayer, pl}} {
		if len(c.decls) != len(c.got) {
			t.Errorf("BENCHMARK.json declares %d metrics, perfbench prints %d", len(c.decls), len(c.got))
		}
		for _, d := range c.decls {
			if m, ok := c.got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("metric %s (%s): printed as %+v, present %v", d.Name, d.Unit, m, ok)
			}
		}
	}
}
