package main

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"tcpstall/internal/fleet"
	"tcpstall/internal/live"
	"tcpstall/internal/trace"
)

// tinyCapture writes a tiny capture of s for seed and returns its path
// and reference.
func tinyCapture(t *testing.T, s spec, seed int64) (string, *reference) {
	t.Helper()
	path := filepath.Join(t.TempDir(), s.name+".pcap")
	if _, err := buildCapture(s, seed, path); err != nil {
		t.Fatal(err)
	}
	flows, err := importFlows(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, newReference(flows)
}

func TestReplayMatchesReference(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			s := tinySpec(t, s.name)
			path, ref := tinyCapture(t, s, 5)
			r, err := runReplay(s, path, ref, false)
			if err != nil {
				t.Fatal(err)
			}
			if r.check.failed != 0 || len(r.check.problems) != 0 {
				t.Fatalf("clean replay failed the check: %d records, %s", r.check.failed, r.check)
			}
			if r.records != ref.records || len(r.verdicts) != len(ref.verdicts) {
				t.Fatalf("replayed %d records in %d flows, reference %d in %d", r.records, len(r.verdicts), ref.records, len(ref.verdicts))
			}
			// Every connection closes in the capture, so every flow is
			// evicted at teardown rather than at shutdown.
			if got := r.totals.FlowsEvicted[live.EvictDone]; got != uint64(len(ref.verdicts)) {
				t.Fatalf("%d of %d flows evicted at teardown", got, len(ref.verdicts))
			}
		})
	}
}

// writeFlows writes flows as a capture and returns its path.
func writeFlows(t *testing.T, flows []*trace.Flow) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flows.pcap")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCapture(out, flows); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckCatchesDroppedRecord replays a capture that lost one
// record against the reference of the whole capture.
func TestCheckCatchesDroppedRecord(t *testing.T) {
	s := tinySpec(t, "web-search")
	_, ref := tinyCapture(t, s, 5)
	flows := s.generate(5)
	f := flows[len(flows)/2]
	f.Records = slices.Delete(f.Records, len(f.Records)/2, len(f.Records)/2+1)
	path := writeFlows(t, flows)
	r, err := runReplay(s, path, ref, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.check.failed != ref.records || len(r.check.problems) == 0 {
		t.Fatalf("dropped record: %d of %d records failed (%s)", r.check.failed, ref.records, r.check)
	}
}

func TestCheckCatchesFlippedCause(t *testing.T) {
	s := tinySpec(t, "web-search")
	path, ref := tinyCapture(t, s, 5)
	r, err := runReplay(s, path, ref, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.totals.Stalls) == 0 {
		t.Fatal("workload produced no stalls")
	}

	// At the head: one stall moves to another cause.
	flipped := r.totals
	flipped.Stalls = slices.Clone(r.totals.Stalls)
	flipped.Stalls[0].Count--
	flipped.Stalls = append(flipped.Stalls, fleet.StallCounter{Service: flipped.Stalls[0].Service, Cause: "flipped", Count: 1})
	if c := ref.check(flipped, r.verdicts); c.failed != ref.records {
		t.Fatalf("flipped head cause: %d of %d records failed (%s)", c.failed, ref.records, c)
	}

	// In one flow's settled verdicts.
	var id string
	for fid, fp := range r.verdicts {
		if fp != ref.verdicts[fid] {
			t.Fatalf("flow %s already differs", fid)
		}
		if id == "" || fid < id {
			id = fid
		}
	}
	verdicts := map[string]uint64{}
	for fid, fp := range r.verdicts {
		verdicts[fid] = fp
	}
	verdicts[id]++
	if c := ref.check(r.totals, verdicts); c.failed != ref.flowRecords[id] || len(c.problems) != 1 {
		t.Fatalf("flipped verdict of flow %s: %d records failed, want %d (%s)", id, c.failed, ref.flowRecords[id], c)
	}
}

func TestCheckCountsDrops(t *testing.T) {
	ref := &reference{records: 100, stalls: map[stallKey]uint64{}, verdicts: map[string]uint64{"a": 1}, flowRecords: map[string]int{"a": 100}}
	tot := fleet.Totals{Ingested: 100, RingDrops: 2, RecordCapDrops: 3, TriageTruncatedPromotions: 1}
	if c := ref.check(tot, map[string]uint64{"a": 1}); c.failed != 6 || len(c.problems) != 3 {
		t.Fatalf("drops: %d records failed, want 6 (%s)", c.failed, c)
	}
	if c := ref.check(tot, map[string]uint64{}); c.failed != 100 {
		t.Fatalf("missing flow and drops: %d records failed, want all 100 (%s)", c.failed, c)
	}
}

// TestLedgerOnTinyWorkload checks the traced replay's spans: they nest
// as the producer runs them and together explain the window.
func TestLedgerOnTinyWorkload(t *testing.T) {
	s := tinySpec(t, "web-search")
	path, ref := tinyCapture(t, s, 5)
	r, err := runReplay(s, path, ref, true)
	if err != nil {
		t.Fatal(err)
	}
	sp := r.spans
	self := sp.importCall - sp.ingestInImport
	if self <= 0 || sp.ingestInImport <= 0 || sp.ingest < sp.ingestInImport || sp.close <= 0 || sp.finalPush <= 0 {
		t.Fatalf("spans do not nest: %+v", sp)
	}
	if sum := self + sp.ingest + sp.close + sp.finalPush; sum > r.wall {
		t.Fatalf("spans add to %v, more than the %v window", sum, r.wall)
	}
	if u := sp.unattributed(r.wall); u < 0 || u > 0.10 {
		t.Fatalf("ledger leaves %.3f of the window unattributed", u)
	}
	if want := (ref.records + batchSize - 1) / batchSize; len(sp.batches) != want {
		t.Fatalf("%d batches for %d records, want %d", len(sp.batches), ref.records, want)
	}
	lags := sp.verdictLagsMS()
	var stalls int
	for _, n := range ref.stalls {
		stalls += int(n)
	}
	if len(lags) != stalls {
		t.Fatalf("%d verdict lags for %d stalls", len(lags), stalls)
	}
	for _, l := range lags {
		if l < 0 {
			t.Fatalf("negative verdict lag %v ms", l)
		}
	}
}

func TestLedgerArithmetic(t *testing.T) {
	sp := &spans{importCall: 60, ingestInImport: 20, ingest: 25, close: 10, finalPush: 5}
	// Import self time 40, plus 25 + 10 + 5, explains 80 of 100.
	if u := sp.unattributed(100); u < 0.1999 || u > 0.2001 {
		t.Fatalf("unattributed = %v, want 0.2", u)
	}
}

func TestIsolatedLedgerArithmetic(t *testing.T) {
	imp := importResult{records: 10, elapsed: 100}
	withFlight := coreResult{flowTotal: []time.Duration{200, 300}}
	tri := triageResult{elapsed: 50, promotedFlow: []bool{false, true}}
	// Triage off: the import and every flow's analysis, 600 over 10.
	if got := isolatedNsPerRecord(imp, withFlight, tri, false); got != 60 {
		t.Fatalf("triage off: %v ns per record, want 60", got)
	}
	// Triage on: the import, the fast path and the promoted flow's
	// analysis, 450 over 10.
	if got := isolatedNsPerRecord(imp, withFlight, tri, true); got != 45 {
		t.Fatalf("triage on: %v ns per record, want 45", got)
	}
}

func TestVerdictLagFindsClosingBatch(t *testing.T) {
	t0 := time.Unix(0, 0)
	sp := &spans{
		batches: []batchMark{{t0, 10}, {t0.Add(time.Millisecond), 20}, {t0.Add(2 * time.Millisecond), 30}},
		stalls: []stallMark{
			{t0.Add(5 * time.Millisecond), 15}, // closed in the second batch
			{t0.Add(3 * time.Millisecond), 30}, // the third
			{t0.Add(3 * time.Millisecond), 31}, // past the capture: skipped
		},
	}
	got := sp.verdictLagsMS()
	if want := []float64{4, 1}; !slices.Equal(got, want) {
		t.Fatalf("lags %v, want %v", got, want)
	}
}

// tinyRuns runs each workload tiny in both modes, seed 9.
func tinyRuns(t *testing.T, each func(s spec, traced bool, res *result)) {
	t.Helper()
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			s := tinySpec(t, s.name)
			res, err := run(s, 9, time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			each(s, traced, res)
		}
	}
}

// TestEveryMetricPresent checks that the output of every workload in
// both modes names exactly the defined metrics, with their units.
func TestEveryMetricPresent(t *testing.T) {
	tinyRuns(t, func(s spec, traced bool, res *result) {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		var names []string
		for name, v := range res.Metrics {
			names = append(names, name)
			if d := defByName(defs, name); d == nil || d.unit != v.Unit {
				t.Errorf("%s traced=%v: metric %s has unit %q", s.name, traced, name, v.Unit)
			}
		}
		if len(names) != len(defs) {
			sort.Strings(names)
			t.Errorf("%s traced=%v: got metrics %v", s.name, traced, names)
		}
	})
}

// TestTinyRunsPassCheck checks that every workload, tiny, passes the
// correctness check in both modes.
func TestTinyRunsPassCheck(t *testing.T) {
	tinyRuns(t, func(s spec, traced bool, res *result) {
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", s.name, traced, res.Correct, res.Failed, res.Attempted)
		}
	})
}

// TestTimestampOffsetCapture replays the tiny healthy mix as the
// generator makes it, its first frame 30 ms after time 0 (the first
// SYN's one-way delay) rather than at 0 as the benchmark writes it, and
// expects the same clean check.
//
// It fails, and shows a monitor defect. ImportPcap counts capture time
// from the first frame but leaves the timestamp options on the
// sender's clock, and both the analyzer and the triage fast path take
// capture time minus TSecr as an RTT sample, so on this capture every
// such sample is 30 ms short. A 7822-record healthy flow with a 61 ms
// RTT gets a 31 ms minimum sample; the one-RTT silence before its
// client FIN then exceeds the fast path's gap threshold (τ = 2 times
// that minimum), and the promotion replays a 1024-record ring that no
// longer reaches the flow's start, so the flow settles with fewer data
// packets than core.Analyze counts. A real capture never shares the
// server's timestamp clock either; it is left
// to show here for a fix in internal/core and internal/triage (an RTT
// sample from the capture time at which the echoed TSval was sent).
func TestTimestampOffsetCapture(t *testing.T) {
	s := tinySpec(t, "healthy-mix")
	path := writeFlows(t, s.build(9, s.flows))
	flows, err := importFlows(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runReplay(s, path, newReference(flows), false)
	if err != nil {
		t.Fatal(err)
	}
	if r.check.failed != 0 || len(r.check.problems) != 0 {
		t.Fatalf("capture offset from its timestamp clock failed the check: %d records, %s", r.check.failed, r.check)
	}
}

// TestHealthyMixLateSymptom replays the full-size healthy mix of seed
// 212971421 and expects a clean check.
//
// It fails, and shows a limit of the monitor's triage fast path. One
// of the mix's standard cloud-storage flows, 4234 records long, raises
// its first symptom (a duplicate-ACK streak) on record 1047, after its
// 1024-record ring has wrapped, so the promotion replays from the
// ring's start instead of the flow's. The head's stall totals still
// match, but the flow settles with fewer data packets than
// core.Analyze counts, and by the check's rules the truncated
// promotion and the flow's records fail. About one seed in a hundred
// has such a flow (seed 1089 of seeds 1000–1099, besides this one),
// and a gated run of the workload would fail on it; healthy-mix is
// therefore not in BENCHMARK.json (see spec.ungated). It is left to
// show here for a fix in internal/triage or internal/live.
func TestHealthyMixLateSymptom(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workload")
	}
	s, _ := specByName("healthy-mix")
	path := writeFlows(t, s.generate(212971421))
	flows, err := importFlows(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runReplay(s, path, newReference(flows), false)
	if err != nil {
		t.Fatal(err)
	}
	if r.check.failed != 0 || len(r.check.problems) != 0 {
		t.Fatalf("healthy mix failed the check: %d records, %s", r.check.failed, r.check)
	}
}

func defByName(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}
