package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

// largeFlowCases are the long flows the scoreboard's cost depends on:
// two simulated lossy responses (~2 MB and ~20 MB) and a seeded
// cloud-storage batch. Each case pins the SHA-256 of the Analysis JSON
// and of the settled flight evidence (decision trails with every
// branch value, dsacks_for_seg included, plus record windows and
// events), so any change to how the analyzer keeps its scoreboard must
// reproduce the verdicts and the evidence byte for byte. The analysis
// pass also asserts the scoreboard against its full recount after
// every record.
var largeFlowCases = []struct {
	name      string
	flows     func(t *testing.T) []*trace.Flow
	analysis  string
	evidences string
}{
	{
		name:      "lossy-2MB",
		flows:     func(t *testing.T) []*trace.Flow { return []*trace.Flow{core.LossyFlow(t, 2_000_000)} },
		analysis:  "350e44a2c3bed1cb6d8ee20ca4d70044da0247a57bd592ca5b7e6e50cb9eaa6b",
		evidences: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	},
	{
		name:      "lossy-20MB",
		flows:     func(t *testing.T) []*trace.Flow { return []*trace.Flow{core.LossyFlow(t, 20_000_000)} },
		analysis:  "22fab4aad72b9c176f5380ab83d7e53c8bb01491f1746e38c5a45f1600b7cbae",
		evidences: "55a5778428a7bff2eb385d0626edd730f112a6334c1f61dca9b9a9c5767275eb",
	},
	{
		name: "cloud-storage-seed7",
		flows: func(t *testing.T) []*trace.Flow {
			var out []*trace.Flow
			for _, fr := range workload.Generate(workload.CloudStorage(), 7, workload.GenOptions{Flows: 24}) {
				if len(fr.Flow.Records) > 0 {
					out = append(out, fr.Flow)
				}
			}
			return out
		},
		analysis:  "5b8204c56c7fb05964fecea97d67979cb81ca21c9876832e80d645f1675fb71d",
		evidences: "de59a2242c2b71807952c9d5a411ec0157c264f8b9de55d90eeeced5f89231d9",
	},
}

func TestLargeFlowGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ~25 MB of lossy transfer")
	}
	// spurious counts stalls classified by Table-5 rule 3, whose
	// verdict depends on DSACKs stamped on the retransmitted segment.
	spurious := 0
	for _, tc := range largeFlowCases {
		t.Run(tc.name, func(t *testing.T) {
			flows := tc.flows(t)
			records := 0
			var analyses []*core.FlowAnalysis
			ha, he := sha256.New(), sha256.New()
			for _, f := range flows {
				records += len(f.Records)
				inc := core.NewIncremental(core.Config{})
				inc.SetMeta(core.FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
				core.FeedChecked(t, inc, f.Records)
				analyses = append(analyses, inc.Flush())

				_, rec := core.AnalyzeFlight(f, core.Config{}, flight.Config{MaxStalls: 1 << 20})
				for _, ev := range rec.Evidences() {
					b, err := json.Marshal(ev.JSON())
					if err != nil {
						t.Fatal(err)
					}
					he.Write(b)
					he.Write([]byte{'\n'})
				}
			}
			b, err := core.MarshalAnalyses(analyses)
			if err != nil {
				t.Fatal(err)
			}
			ha.Write(b)
			stalls, retrans := 0, 0
			for _, a := range analyses {
				stalls += len(a.Stalls)
				retrans += a.RetransPackets
				for _, st := range a.Stalls {
					if st.Cause == core.CauseTimeoutRetrans && st.RetransCause == core.RetransAckDelayLoss {
						spurious++
					}
				}
			}
			if retrans == 0 {
				t.Fatal("no retransmissions: the golden would not exercise the scoreboard")
			}
			t.Logf("%d flows, %d records, %d retransmissions, %d stalls", len(flows), records, retrans, stalls)
			if got := hex.EncodeToString(ha.Sum(nil)); got != tc.analysis {
				t.Errorf("analysis JSON sha256 = %s, want %s", got, tc.analysis)
			}
			if got := hex.EncodeToString(he.Sum(nil)); got != tc.evidences {
				t.Errorf("evidence JSON sha256 = %s, want %s", got, tc.evidences)
			}
		})
	}
	if spurious == 0 {
		t.Error("no ack-delay/loss stall in any case: DSACK stamping is not pinned")
	}
}
