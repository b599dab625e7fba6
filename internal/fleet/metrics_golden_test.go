package fleet

import (
	"flag"
	"os"
	"strings"
	"testing"

	"tcpstall/internal/stats"
)

// Regenerate with:
//
//	go test ./internal/fleet -run TestMetricsGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the testdata/metrics*.golden files")

// TestMetricsGolden pins the head's /metrics text byte for byte for
// fixed HeadStats, Totals and WindowTotals, and for an idle head's
// zero values (every labelled family empty).
func TestMetricsGolden(t *testing.T) {
	st := HeadStats{
		Members:       3,
		LiveMembers:   2,
		Registrations: 4,
		Restarts:      1,
		Expiries:      1,
		Pushes:        1234567,
		FinalPushes:   1,
		Rejects:       map[string]uint64{"stale_epoch": 2, "duplicate_seq": 5, "bad_snapshot": 1},
		SnapshotBytes: 987654321,
		MergeCount:    250,
		MergeP50MS:    0.125,
		MergeP99MS:    1.0000001,
	}
	tot := Totals{
		Epochs:            4,
		Ingested:          5000000,
		RingDrops:         12,
		RecordsFed:        4999000,
		RecordCapDrops:    30,
		SampledOut:        7,
		FlowsSeen:         8080,
		FlowsEvicted:      map[string]uint64{"shutdown": 3, "done": 8000, "idle": 77},
		UnknownConfigKeys: 2,
		TriageFastRecords: 1000,
		Stalls: []StallCounter{
			{Service: "cloud-storage", Cause: "data-unavailable", Count: 9, Seconds: 12345678.25},
			{Service: `quo"te\back`, Cause: "zero-rwnd", Count: 2, Seconds: 1e-7},
			{Service: "web-search", Cause: "pkt-delay", Count: 6, Seconds: 0.1 + 0.2},
		},
		Retrans: []RetransCounter{
			{Subcause: "double-retrans", Count: 1, Seconds: 0.5},
			{Subcause: "tail-retrans", Count: 3, Seconds: 2.25},
		},
		DurationsMS: stats.HistogramState{
			Bounds: []float64{50, 100, 1600, 102400},
			Counts: []uint64{1, 2, 0, 4, 1},
			Sum:    120001.5,
		},
	}
	win := WindowTotals{
		SpanS:   60,
		Members: 2,
		Stalls:  []StallCounter{{Service: "web-search", Cause: "pkt-delay", Count: 2, Seconds: 0.75}},
	}
	for path, render := range map[string]func(*strings.Builder){
		"testdata/metrics.golden":       func(b *strings.Builder) { writeMetrics(b, st, tot, win) },
		"testdata/metrics_empty.golden": func(b *strings.Builder) { writeMetrics(b, HeadStats{}, Totals{}, WindowTotals{}) },
	} {
		var b strings.Builder
		render(&b)
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
