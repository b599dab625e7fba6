package main

import (
	"time"

	"tcpstall/internal/live"
)

// tracedShare is the part of a traced run's budget spent on
// end-to-end replays (traced and untraced, alternating); the rest goes
// to the isolated layer replays.
const tracedShare = 0.6

// minPairs is the fewest traced/untraced replay pairs a traced run
// makes.
const minPairs = 2

// runTraced measures the per-layer metrics: alternating untraced and
// traced replays of the production path, then the isolated import,
// core, core-with-flight and triage replays over the same flows.
func runTraced(s spec, path string, ref *reference, budget time.Duration) (*result, error) {
	start := time.Now()
	res := &result{Correct: true}
	var plain, traced []replay
	// The first replay warms the process up and is not measured.
	warm, err := runReplay(s, path, ref, false)
	if err != nil {
		return nil, err
	}
	res.tally(warm)
	for len(traced) < minPairs || time.Since(start) < time.Duration(tracedShare*float64(budget)) {
		for _, on := range []bool{false, true} {
			r, err := runReplay(s, path, ref, on)
			if err != nil {
				return nil, err
			}
			res.tally(r)
			if on {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
		}
	}

	flows, err := importFlows(path)
	if err != nil {
		return nil, err
	}
	var imps []importResult
	var cores, flights []coreResult
	var tris []triageResult
	for len(cores) == 0 || time.Since(start) < budget {
		imp, err := importReplay(path)
		if err != nil {
			return nil, err
		}
		imps = append(imps, imp)
		cores = append(cores, coreReplay(flows, false))
		flights = append(flights, coreReplay(flows, true))
		tris = append(tris, triageReplay(flows))
	}
	logf("%d traced and %d untraced replays, %d isolated rounds", len(traced), len(plain), len(cores))

	vals := map[string]float64{"trace.flows": float64(len(flows))}
	tracedMetrics(vals, plain, traced)
	isolatedMetrics(vals, imps, cores, flights, tris)
	// The rounds ran the import, core-with-flight and triage replays
	// together: add them up within each round.
	iso := make([]float64, len(imps))
	for i := range imps {
		iso[i] = isolatedNsPerRecord(imps[i], flights[i], tris[i], s.triage)
	}
	cpu := medianOf(plain, func(r replay) float64 { return float64(r.cpu) / float64(r.records) })
	vals["ledger.isolated_cpu_share"] = ratio(median(iso), cpu)
	vals["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	res.Metrics, err = render(perLayer, vals)
	return res, err
}

// tracedMetrics derives the live, fleet and ledger metrics from the
// traced replays, and the tracing overhead from both kinds.
func tracedMetrics(vals map[string]float64, plain, traced []replay) {
	per := func(f func(r replay) float64) float64 { return medianOf(traced, f) }
	perRec := func(d func(sp *spans) time.Duration) float64 {
		return per(func(r replay) float64 { return float64(d(r.spans)) / float64(r.records) })
	}
	vals["trace.ns_per_record"] = perRec(func(sp *spans) time.Duration { return sp.importCall - sp.ingestInImport })
	vals["live.ingest_wait_ns_per_record"] = perRec(func(sp *spans) time.Duration { return sp.ingest })
	vals["live.close_ms"] = per(func(r replay) float64 { return ms(r.spans.close) })
	vals["fleet.final_push_ms"] = per(func(r replay) float64 { return ms(r.spans.finalPush) })
	vals["ledger.unattributed_share"] = per(func(r replay) float64 { return r.spans.unattributed(r.wall) })

	var lags, pushes []float64
	for _, r := range traced {
		lags = append(lags, r.spans.verdictLagsMS()...)
		for _, d := range r.spans.pushes {
			pushes = append(pushes, ms(d))
		}
	}
	vals["live.verdict_lag_p50_ms"] = quantile(lags, 0.5)
	vals["live.verdict_lag_p99_ms"] = quantile(lags, 0.99)
	vals["live.verdict_lag_samples"] = float64(len(lags))
	vals["fleet.push_ms_p50"] = quantile(pushes, 0.5)
	vals["fleet.push_ms_p99"] = quantile(pushes, 0.99)
	vals["fleet.push_samples"] = float64(len(pushes))

	// The monitor's counters depend only on the capture, so any traced
	// replay's final snapshot carries them.
	snap := traced[len(traced)-1].spans.snap
	vals["live.records_fed"] = float64(snap.RecordsFed)
	vals["live.ring_drops"] = float64(snap.RingDrops)
	vals["live.record_cap_drops"] = float64(snap.RecordsCapDrop)
	vals["live.flows_seen"] = float64(snap.FlowsSeen)
	vals["live.flows_evicted.done"] = float64(snap.FlowsEvicted[live.EvictDone])
	vals["live.flows_evicted.shutdown"] = float64(snap.FlowsEvicted[live.EvictShutdown])

	vals["fleet.snapshot_bytes_per_push"] = per(func(r replay) float64 {
		return ratio(float64(r.spans.head.SnapshotBytes), float64(r.spans.head.Pushes))
	})
	vals["fleet.merge_ms_p99"] = per(func(r replay) float64 { return r.spans.head.MergeP99MS })
	vals["fleet.events_per_push"] = per(func(r replay) float64 {
		return ratio(float64(r.spans.head.StallEvents), float64(r.spans.head.Pushes))
	})
	vals["fleet.digest_dropped"] = per(func(r replay) float64 { return float64(r.spans.head.DigestDropped) })

	wall := func(r replay) float64 { return r.wall.Seconds() }
	vals["ledger.trace_overhead_ratio"] = medianOf(traced, wall) / medianOf(plain, wall)
}

// isolatedMetrics derives the trace, core, flight and triage metrics
// from the isolated replays.
func isolatedMetrics(vals map[string]float64, imps []importResult, cores, flights []coreResult, tris []triageResult) {
	vals["trace.allocs_per_record"] = medianOf(imps, func(r importResult) float64 {
		return ratio(float64(r.allocs), float64(r.records))
	})
	vals["trace.bytes_per_record"] = medianOf(imps, func(r importResult) float64 {
		return ratio(float64(r.allocBytes), float64(r.records))
	})

	nsPer := func(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }
	vals["core.ns_per_record"] = medianOf(cores, func(c coreResult) float64 { return nsPer(c.feed, c.records) })
	long := medianOf(cores, func(c coreResult) float64 { return nsPer(c.feedLong, c.recordsLong) })
	short := medianOf(cores, func(c coreResult) float64 { return nsPer(c.feedShort, c.recordsShort) })
	vals["core.ns_per_record.long"] = long
	vals["core.ns_per_record.short"] = short
	vals["core.long_over_short"] = ratio(long, short)
	vals["core.flush_us_per_flow"] = medianOf(cores, func(c coreResult) float64 {
		return ratio(float64(c.flush)/float64(time.Microsecond), float64(c.flows))
	})
	vals["core.allocs_per_flow"] = medianOf(cores, func(c coreResult) float64 {
		return ratio(float64(c.allocs), float64(c.flows))
	})
	vals["core.stalls"] = float64(cores[0].stalls)
	// Rounds ran core and core-with-flight back to back: compare within
	// each round.
	overhead := make([]float64, len(cores))
	for i := range cores {
		overhead[i] = ratio(float64(flights[i].total), float64(cores[i].total))
	}
	vals["flight.overhead_ratio"] = median(overhead)

	vals["triage.ns_per_record"] = medianOf(tris, func(r triageResult) float64 { return nsPer(r.elapsed, r.records) })
	t := tris[0]
	vals["triage.fast_record_share"] = ratio(float64(t.fastRecords), float64(t.records))
	vals["triage.promoted_flow_share"] = ratio(float64(t.promoted), float64(t.flows))
	vals["triage.truncated_promotions"] = float64(t.truncatedPromotions)
}
