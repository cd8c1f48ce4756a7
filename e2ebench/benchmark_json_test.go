package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesHarness keeps the repository's BENCHMARK.json
// and the metrics the harness prints in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	// replay runs by name but is not declared: the host's CPU speed moves
	// its medians by more than any allowed bound (see METRICS.md).
	if want := []string{"firehose", "tmax"}; !equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	check := func(kind string, defs []metricDef, got []struct{ name, unit string }) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].name != d.name || got[i].unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].name, got[i].unit, d.name, d.unit)
			}
		}
	}
	var e2e, layer []struct{ name, unit string }
	setupBound, maxOther := 0.0, 0.0
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, struct{ name, unit string }{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else if m.Bound > maxOther {
			maxOther = m.Bound
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, struct{ name, unit string }{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
