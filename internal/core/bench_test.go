package core

import (
	"testing"
	"time"

	"tcpstall/internal/netem"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
)

// lossyFlow simulates one response of size bytes over a 40 ms path
// with 2% Bernoulli loss on the data direction — the long lossy flow
// the throughput benches and the large-flow goldens replay. The seed
// is fixed, so the same size always yields the same trace.
func lossyFlow(tb testing.TB, size int64) *trace.Flow {
	tb.Helper()
	s := sim.New()
	rng := sim.NewRNG(1)
	down := netem.New(s, rng, netem.Config{Delay: 20e6, Loss: netem.Bernoulli{P: 0.02}})
	up := netem.New(s, rng, netem.Config{Delay: 20e6})
	col := trace.NewCollector("bench", "bench")
	conn := tcpsim.NewLinkedConn(s, tcpsim.ConnConfig{
		Sender:   tcpsim.DefaultSenderConfig(),
		Receiver: tcpsim.DefaultReceiverConfig(),
		Requests: []tcpsim.Request{{Size: size}},
	}, down, up, col)
	conn.Start()
	s.Run()
	if !conn.Metrics().Done {
		tb.Fatal("lossy flow did not complete")
	}
	return col.Flow
}

// BenchmarkAnalyzeShort measures the per-flow overhead on web-search
// sized flows.
func BenchmarkAnalyzeShort(b *testing.B) {
	fl := lossyFlow(b, 14_000)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(fl, cfg)
	}
}

// BenchmarkFeed and BenchmarkFeedBatch drive the incremental analyzer
// over the same ~2MB lossy flow per-record and batched. The delta is
// the pure call overhead FeedBatch amortizes — exactly what the live
// shard loop saves by grouping its drained batches into per-flow
// runs. Run with -benchmem to see the per-flow allocation profile.
func BenchmarkFeed(b *testing.B) {
	fl := lossyFlow(b, 2_000_000)
	cfg := DefaultConfig()
	b.SetBytes(fl.DataBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := NewIncremental(cfg)
		for j := range fl.Records {
			inc.Feed(&fl.Records[j])
		}
		inc.Flush()
	}
}

func BenchmarkFeedBatch(b *testing.B) {
	fl := lossyFlow(b, 2_000_000)
	cfg := DefaultConfig()
	b.SetBytes(fl.DataBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := NewIncremental(cfg)
		inc.FeedBatch(fl.Records)
		inc.Flush()
	}
}

// stuckAckFlow is the scoreboard's worst case: a hostile capture whose
// cumulative ACK never advances past the first segment while SACK
// blocks cover everything after it, so the unacked window is the whole
// flow. It alternates one data segment and one ACK until it holds n
// records.
func stuckAckFlow(n int) *trace.Flow {
	h := newHandFlow()
	for i := 1; len(h.recs) < n; i++ {
		h.data(time.Millisecond, i*1000, 1000)
		h.ack(time.Millisecond, 0, 1000, (i+1)*1000)
	}
	return &trace.Flow{ID: "stuck-ack", Service: "bench", Records: h.recs}
}

// ladderRungs are the flow lengths the analyzer's per-record cost must
// not depend on: ~0.2, 2 and 20 MB lossy responses.
var ladderRungs = []struct {
	name string
	size int64
}{
	{"0.2MB", 200_000},
	{"2MB", 2_000_000},
	{"20MB", 20_000_000},
}

// BenchmarkAnalyzeLadder measures TAPO throughput, in ns/record and in
// bytes of analyzed stream, on each ladder rung plus the stuck-ACK
// flow, whose window never shrinks: that rung stays quadratic by
// design (see DESIGN.md, "Scoreboard cost") and is reported, not
// gated.
func BenchmarkAnalyzeLadder(b *testing.B) {
	cfg := DefaultConfig()
	run := func(b *testing.B, fl *trace.Flow) {
		b.SetBytes(fl.DataBytes())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Analyze(fl, cfg)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fl.Records)), "ns/record")
	}
	for _, r := range ladderRungs {
		b.Run(r.name, func(b *testing.B) { run(b, lossyFlow(b, r.size)) })
	}
	b.Run("stuck-ack-20k", func(b *testing.B) { run(b, stuckAckFlow(20_000)) })
}

// TestAnalyzerCostFlatInFlowLength gates the ladder: ns/record on the
// 20 MB rung must stay within 2× of the 0.2 MB rung. A scoreboard that
// rescans the flow's history on every ACK fails by an order of
// magnitude (~40× measured); one bounded by the unacked window lands
// near 1×. Each timing replays about the same number of records on
// either rung; the rungs alternate, so a stretch of host load falls on
// both, and the minimum of several timings filters scheduler noise.
func TestAnalyzerCostFlatInFlowLength(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const recordsPerTiming, timings = 50_000, 5
	cfg := DefaultConfig()
	flows := []*trace.Flow{
		lossyFlow(t, ladderRungs[0].size),
		lossyFlow(t, ladderRungs[len(ladderRungs)-1].size),
	}
	var ns [2]float64
	for k := 0; k < timings; k++ {
		for j, fl := range flows {
			reps := (recordsPerTiming + len(fl.Records) - 1) / len(fl.Records)
			start := time.Now()
			for i := 0; i < reps; i++ {
				Analyze(fl, cfg)
			}
			d := float64(time.Since(start).Nanoseconds()) / float64(reps*len(fl.Records))
			if k == 0 || d < ns[j] {
				ns[j] = d
			}
		}
	}
	short, long := flows[0], flows[1]
	s, l := ns[0], ns[1]
	t.Logf("%d records: %.0f ns/record; %d records: %.0f ns/record; ratio %.2f",
		len(short.Records), s, len(long.Records), l, l/s)
	if l > 2*s {
		t.Errorf("ns/record at %d records is %.1f× that at %d records, want ≤ 2×",
			len(long.Records), l/s, len(short.Records))
	}
}
