package live

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/stats"
)

// Regenerate with:
//
//	go test ./internal/live -run TestMetricsGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the testdata/metrics*.golden files")

// goldenSnapshot exercises every label path of the exporter: several
// services (one with a quote and a backslash), sorted map keys,
// per-shard drops, and floats that need the shortest round-trip form.
func goldenSnapshot() Snapshot {
	dur := stats.NewHistogram(DurationBoundsMS)
	for _, v := range []float64{12, 75, 75, 250, 1234.5, 400, 99999, 250000} {
		dur.Add(v)
	}
	web := CauseKey{Service: "web-search", Cause: core.CausePacketDelay}
	rto := CauseKey{Service: "web-search", Cause: core.CauseTimeoutRetrans}
	odd := CauseKey{Service: `quo"te\back`, Cause: core.CauseZeroWindow}
	cs := CauseKey{Service: "cloud-storage", Cause: core.CauseDataUnavailable}
	return Snapshot{
		Uptime:              90500 * time.Millisecond,
		ActiveFlows:         17,
		Ingested:            1234567,
		RingDrops:           12,
		ShardRingDrops:      []uint64{5, 0, 7},
		FlowsSeen:           4242,
		FlowsEvicted:        map[string]uint64{"idle": 3, "done": 4100, "capacity": 2},
		FlowsTruncated:      1,
		RecordsFed:          999999,
		RecordsCapDrop:      30,
		FlightEventDrops:    11,
		FlightEvidenceDrops: 2,
		PromotedFlows:       4,
		ParkedFlows:         2,
		TriageFastRecords:   183204,
		TriagePromotions:    map[string]uint64{"gap": 11, "dupack": 3, "retrans": 7},
		TriageRepromotions:  3,
		TriageDemotions:     5,
		StallCount:          map[CauseKey]uint64{web: 6, rto: 1, odd: 2, cs: 9},
		StallSeconds:        map[CauseKey]float64{web: 0.1 + 0.2, rto: 1.5, odd: 1e-7, cs: 12345678.25},
		DurationsMS:         dur,
		RetransCount: map[core.RetransCause]uint64{
			core.RetransTail: 3, core.RetransDouble: 1, core.RetransUndetermined: 2,
		},
		RetransSeconds: map[core.RetransCause]float64{
			core.RetransTail: 2.25, core.RetransDouble: 0.5, core.RetransUndetermined: 3,
		},
		Window: WindowSnapshot{
			Span:         time.Minute,
			StallCount:   map[CauseKey]uint64{web: 2, odd: 1},
			StallSeconds: map[CauseKey]float64{web: 0.75, odd: 2.5e-3},
		},
	}
}

// TestMetricsGolden pins tapod's /metrics text byte for byte for a
// fixed Snapshot and for the zero Snapshot (every family empty, the
// histogram nil). The runtime families read the live process, so only
// their HELP and TYPE lines are pinned.
func TestMetricsGolden(t *testing.T) {
	for path, snap := range map[string]Snapshot{
		"testdata/metrics.golden":       goldenSnapshot(),
		"testdata/metrics_empty.golden": {},
	} {
		var b strings.Builder
		writeMetrics(&b, snap)
		var rt strings.Builder
		writeRuntimeMetrics(&rt)
		for _, line := range strings.SplitAfter(rt.String(), "\n") {
			if strings.HasPrefix(line, "#") {
				b.WriteString(line)
			}
		}
		got := b.String()
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("/metrics drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
		}
	}
}
