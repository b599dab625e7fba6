package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one reported metric. BENCHMARK.json lists the same
// metrics; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound applies to end-to-end metrics only: the share of the
	// parent's median by which the metric may worsen.
	bound float64
}

// endToEnd are measured with tracing off.
var endToEnd = []metricDef{
	{"records_per_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_record", "ns", "lower", 0.25},
	{"allocs_per_record", "count", "lower", 0.1},
	{"alloc_bytes_per_record", "B", "lower", 0.1},
	{"peak_heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"ok_record_share", "share", "higher", 0.001},
}

// perLayer are measured by the traced run and the isolated replays.
var perLayer = []metricDef{
	{name: "trace.ns_per_record", unit: "ns", better: "lower"},
	{name: "trace.allocs_per_record", unit: "count", better: "lower"},
	{name: "trace.bytes_per_record", unit: "B", better: "lower"},
	{name: "trace.flows", unit: "count", better: "higher"},

	{name: "live.ingest_wait_ns_per_record", unit: "ns", better: "lower"},
	{name: "live.close_ms", unit: "ms", better: "lower"},
	{name: "live.verdict_lag_p50_ms", unit: "ms", better: "lower"},
	{name: "live.verdict_lag_p99_ms", unit: "ms", better: "lower"},
	{name: "live.verdict_lag_samples", unit: "count", better: "higher"},
	{name: "live.records_fed", unit: "count", better: "lower"},
	{name: "live.ring_drops", unit: "count", better: "lower"},
	{name: "live.record_cap_drops", unit: "count", better: "lower"},
	{name: "live.flows_seen", unit: "count", better: "higher"},
	{name: "live.flows_evicted.done", unit: "count", better: "higher"},
	{name: "live.flows_evicted.shutdown", unit: "count", better: "lower"},

	{name: "core.ns_per_record", unit: "ns", better: "lower"},
	{name: "core.ns_per_record.long", unit: "ns", better: "lower"},
	{name: "core.ns_per_record.short", unit: "ns", better: "lower"},
	{name: "core.long_over_short", unit: "ratio", better: "lower"},
	{name: "core.flush_us_per_flow", unit: "us", better: "lower"},
	{name: "core.allocs_per_flow", unit: "count", better: "lower"},
	{name: "core.stalls", unit: "count", better: "higher"},

	{name: "flight.overhead_ratio", unit: "ratio", better: "lower"},

	{name: "triage.ns_per_record", unit: "ns", better: "lower"},
	{name: "triage.fast_record_share", unit: "share", better: "higher"},
	{name: "triage.promoted_flow_share", unit: "share", better: "lower"},
	{name: "triage.truncated_promotions", unit: "count", better: "lower"},

	{name: "fleet.push_ms_p50", unit: "ms", better: "lower"},
	{name: "fleet.push_ms_p99", unit: "ms", better: "lower"},
	{name: "fleet.push_samples", unit: "count", better: "higher"},
	{name: "fleet.final_push_ms", unit: "ms", better: "lower"},
	{name: "fleet.snapshot_bytes_per_push", unit: "B", better: "lower"},
	{name: "fleet.merge_ms_p99", unit: "ms", better: "lower"},
	{name: "fleet.events_per_push", unit: "count", better: "higher"},
	{name: "fleet.digest_dropped", unit: "count", better: "lower"},

	{name: "ledger.unattributed_share", unit: "share", better: "lower"},
	{name: "ledger.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "ledger.isolated_cpu_share", unit: "share", better: "higher"},
	{name: "failed_share", unit: "share", better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render attaches units to measured values. Every defined metric must
// have a finite value and no undefined one may appear, so the output
// always carries exactly the metrics BENCHMARK.json names.
func render(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{v, d.unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not defined", name)
			}
		}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// ratio is a/b, or 0 when b is 0 (a class with no samples).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
