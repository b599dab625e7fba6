package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDefinitions(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("metric name %q is malformed or used twice", d.name)
			}
			seen[d.name] = true
			if !unitRE.MatchString(d.unit) {
				t.Errorf("metric %s: malformed unit %q", d.name, d.unit)
			}
			if d.better != "higher" && d.better != "lower" {
				t.Errorf("metric %s: better is %q", d.name, d.better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if d := defByName(endToEnd, "setup_s"); d == nil || d.unit != "s" || d.better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", d)
	}
	for _, d := range perLayer {
		if d.bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.name)
		}
	}
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload tables in this package in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var gated []spec
	for _, s := range specs {
		if s.ungated == "" {
			gated = append(gated, s)
		}
	}
	if len(b.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark gates %d", len(b.Workloads), len(gated))
	}
	for i, w := range b.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (m.Bound != nil) != bounded ||
				(bounded && math.Abs(*m.Bound-d.bound) > 1e-12) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func TestRenderRejectsMissingExtraAndNaN(t *testing.T) {
	defs := []metricDef{{name: "a", unit: "s"}, {name: "b", unit: "ms"}}
	if _, err := render(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := render(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("undefined metric accepted")
	}
	if _, err := render(defs, map[string]float64{"a": 1, "b": math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	out, err := render(defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || out["b"] != (metricValue{2, "ms"}) {
		t.Errorf("render = %v, %v", out, err)
	}
}
