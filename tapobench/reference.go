package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"

	"tcpstall/internal/core"
	"tcpstall/internal/fleet"
	"tcpstall/internal/trace"
)

// analysisConfig is the analyzer configuration tapod runs with
// (core.DefaultConfig, -tau 2); the reference and the live path both
// use it.
func analysisConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Tau = 2
	return cfg
}

// stallKey is one cell of the head's stall totals.
type stallKey struct{ service, cause string }

// reference is what a correct run must reproduce, computed once per
// workload and seed by core.Analyze over the flows of the capture.
type reference struct {
	records int
	stalls  map[stallKey]uint64
	// verdicts maps each flow ID to the fingerprint of its analysis;
	// flowRecords to its record count.
	verdicts    map[string]uint64
	flowRecords map[string]int
}

// importFlows reads the capture back as whole flows, the way the
// batch path (tapo) sees it.
func importFlows(path string) ([]*trace.Flow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ImportPcap(bufio.NewReaderSize(f, 1<<20), trace.ImportConfig{ServerPort: serverPort})
}

// newReference analyzes every flow of the capture with core.Analyze.
func newReference(flows []*trace.Flow) *reference {
	ref := &reference{
		stalls:      map[stallKey]uint64{},
		verdicts:    make(map[string]uint64, len(flows)),
		flowRecords: make(map[string]int, len(flows)),
	}
	cfg := analysisConfig()
	for _, f := range flows {
		a := core.Analyze(f, cfg)
		ref.records += len(f.Records)
		ref.flowRecords[f.ID] = len(f.Records)
		ref.verdicts[f.ID] = fingerprint(a)
		for _, st := range a.Stalls {
			ref.stalls[stallKey{a.Service, st.Cause.String()}]++
		}
	}
	return ref
}

// fingerprint condenses a flow's verdicts — its data packet count
// and each stall's cause and retransmission sub-cause, in order —
// into one comparable value. A flow the monitor truncated (record
// cap, or a triage promotion replayed from a partial ring) analyzes a
// different record set and so changes the data packet count too.
func fingerprint(a *core.FlowAnalysis) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", a.DataPackets, len(a.Stalls))
	for _, st := range a.Stalls {
		fmt.Fprintf(h, "/%d.%d", st.Cause, st.RetransCause)
	}
	return h.Sum64()
}

// verdictLog collects the per-flow fingerprints the monitor settles
// (its OnFlow hook), from every shard goroutine.
type verdictLog struct {
	mu sync.Mutex
	// got maps flow ID to fingerprint. guarded by mu
	got map[string]uint64
}

func newVerdictLog(flows int) *verdictLog {
	return &verdictLog{got: make(map[string]uint64, flows)}
}

func (v *verdictLog) onFlow(_ string, a *core.FlowAnalysis) {
	fp := fingerprint(a)
	v.mu.Lock()
	v.got[a.FlowID] = fp
	v.mu.Unlock()
}

// checkResult is the outcome of comparing one replay with the
// reference.
type checkResult struct {
	// failed counts records that failed: dropped at a ring or at the
	// record cap, lost to a truncated promotion, or belonging to a
	// flow whose verdicts differ from the reference. When the head's
	// totals themselves disagree with the reference, every record of
	// the replay failed.
	failed int
	// problems describes each disagreement, for the log.
	problems []string
}

func (c *checkResult) problem(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// check compares the head's totals and the settled per-flow verdicts
// with the reference.
func (ref *reference) check(t fleet.Totals, got map[string]uint64) checkResult {
	var c checkResult
	headOK := true
	if t.Ingested != uint64(ref.records) {
		c.problem("head ingested %d records, capture has %d", t.Ingested, ref.records)
		headOK = false
	}
	cells := map[stallKey]uint64{}
	for _, sc := range t.Stalls {
		cells[stallKey{sc.Service, sc.Cause}] += sc.Count
	}
	for _, k := range unionKeys(cells, ref.stalls) {
		if cells[k] != ref.stalls[k] {
			c.problem("head counts %d %s/%s stalls, reference %d", cells[k], k.service, k.cause, ref.stalls[k])
			headOK = false
		}
	}
	if !headOK {
		c.failed = ref.records
		return c
	}

	c.failed = int(t.RingDrops + t.RecordCapDrops + t.TriageTruncatedPromotions)
	if t.RingDrops > 0 {
		c.problem("%d records dropped at the ingest rings", t.RingDrops)
	}
	if t.RecordCapDrops > 0 {
		c.problem("%d records dropped at the per-flow record cap", t.RecordCapDrops)
	}
	if t.TriageTruncatedPromotions > 0 {
		c.problem("%d triage promotions replayed a truncated ring", t.TriageTruncatedPromotions)
	}
	bad := 0
	for id, want := range ref.verdicts {
		if fp, ok := got[id]; !ok || fp != want {
			c.failed += ref.flowRecords[id]
			bad++
		}
	}
	if bad > 0 {
		c.problem("%d of %d flows settled with verdicts that differ from the reference", bad, len(ref.verdicts))
	}
	if c.failed > ref.records {
		c.failed = ref.records
	}
	return c
}

func unionKeys(a, b map[stallKey]uint64) []stallKey {
	seen := map[stallKey]bool{}
	var out []stallKey
	for _, m := range []map[stallKey]uint64{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].service != out[j].service {
			return out[i].service < out[j].service
		}
		return out[i].cause < out[j].cause
	})
	return out
}

func (c checkResult) String() string { return strings.Join(c.problems, "; ") }
