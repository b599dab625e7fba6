package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
	"tcpstall/internal/workload"
)

// snaplen is the capture length of every exported frame: headers
// only, as real server-side captures are taken (tcpdump -s 128).
const snaplen = 128

// spec describes one workload: how to build its flows from a seed and
// how tapod would be configured to monitor it.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	why string
	// triage is tapod's -triage setting for this traffic: on for the
	// healthy-heavy mix it exists for, off (the -pcap default) else.
	triage bool
	// flows sizes the workload; see build.
	flows int
	build func(seed int64, flows int) []*trace.Flow
	// ungated, if set, is why the workload is left out of
	// BENCHMARK.json: it stays runnable by name, but no run of it is
	// gated.
	ungated string
}

var specs = []spec{
	{
		name:   "cloud-storage",
		why:    "long lossy multi-file flows: the analyzer's per-record cost dominates, so core and flight changes show here",
		triage: false,
		flows:  250,
		build:  buildCloudStorage,
	},
	{
		name:   "healthy-mix",
		why:    "healthy twins of all three services with 1 sick flow per 32 and triage on: isolates pcap read, demux, triage and intake",
		triage: true,
		flows:  1000,
		build:  buildHealthyMix,
		ungated: "some seeds fail the check: a long sick flow whose first symptom comes after its 1024-record triage ring " +
			"has wrapped gets a truncated promotion (see TestHealthyMixLateSymptom)",
	},
	{
		name:   "web-search",
		why:    "many short flows on a seeded arrival schedule: per-flow costs (admission, flush, eviction, digests) dominate",
		triage: false,
		flows:  20000,
		build:  buildWebSearch,
	},
}

// generate builds the workload's flows for seed, starting at time 0.
func (s spec) generate(seed int64) []*trace.Flow {
	flows := s.build(seed, s.flows)
	startAtZero(flows)
	return flows
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// buildCloudStorage generates flows of the paper's cloud-storage
// model, all connected from capture time 0. Opening all 250 at once is
// a chosen operating point, not a measured one: nothing in the model
// gives a concurrency, and every connection open at once keeps the
// flow table at its largest for the whole capture. The analyzer's cost grows
// with the square of a flow's length, so a few of the model's
// heavy-tailed transfers would make one seed's capture far costlier
// per record than another's. Each connection's total transfer size is
// therefore pinned to a fixed stratum of the model's own size
// distribution (see stratifiedSizes), smallest first; the seed draws
// everything else — request count and split, think times, RTT, loss,
// bandwidth, client buffers.
func buildCloudStorage(seed int64, flows int) []*trace.Flow {
	svc := workload.CloudStorage()
	sizes := stratifiedSizes(svc, flows)
	next := 0
	// Workers: 1 calls Mutate in flow order, so next indexes sizes.
	return flowsOf(workload.Generate(svc, seed, workload.GenOptions{
		Flows:   flows,
		Workers: 1,
		Mutate: func(c *tcpsim.ConnConfig) {
			scaleRequests(c.Requests, sizes[next])
			next++
		},
	}))
}

const (
	// sizeSamples connections of the model, drawn with sizeSeed, give
	// the size distribution that stratifiedSizes cuts into strata.
	sizeSamples = 5000
	sizeSeed    = 1
)

// stratifiedSizes returns n per-connection transfer sizes in bytes,
// ascending: the midpoints of n equally likely strata of the service
// model's bytes-per-connection distribution. The distribution is
// sampled from the model itself with a fixed seed, so every seed gets
// the same sizes.
func stratifiedSizes(svc workload.Service, n int) []int64 {
	var mu sync.Mutex
	totals := make([]int64, 0, sizeSamples)
	workload.Generate(svc, sizeSeed, workload.GenOptions{
		Flows:      sizeSamples,
		SkipTraces: true,
		Mutate: func(c *tcpsim.ConnConfig) {
			var sum int64
			for _, r := range c.Requests {
				sum += r.Size
			}
			mu.Lock()
			totals = append(totals, sum)
			mu.Unlock()
			// Only the draw is wanted: make the simulation trivial.
			c.Requests = []tcpsim.Request{{Size: 1}}
			c.Deadline = time.Nanosecond
		},
	})
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	out := make([]int64, n)
	for k := range out {
		out[k] = totals[(2*k+1)*len(totals)/(2*n)]
	}
	return out
}

// scaleRequests rescales a connection's responses, keeping their
// proportions and pause positions, so that they total total bytes.
func scaleRequests(reqs []tcpsim.Request, total int64) {
	var sum int64
	for _, r := range reqs {
		sum += r.Size
	}
	f := float64(total) / float64(sum)
	for i := range reqs {
		r := &reqs[i]
		r.Size = max(1, int64(float64(r.Size)*f))
		for j := range r.Pauses {
			r.Pauses[j].AfterBytes = int64(float64(r.Pauses[j].AfterBytes) * f)
		}
	}
}

// buildHealthyMix generates, for each service, flows healthy twins
// plus one standard (sick) flow per 32, interleaved in capture time.
// It mirrors livebench's healthy-heavy mix.
func buildHealthyMix(seed int64, perService int) []*trace.Flow {
	sick := perService / 32
	if sick < 1 {
		sick = 1
	}
	rng := sim.NewRNG(seed)
	var out []*trace.Flow
	for _, svc := range workload.Services() {
		out = append(out, flowsOf(workload.Generate(workload.Healthy(svc), rng.Int63(), workload.GenOptions{Flows: perService}))...)
		out = append(out, flowsOf(workload.Generate(svc, rng.Int63(), workload.GenOptions{Flows: sick}))...)
	}
	return out
}

// webArrivalsPerSec is the mean connection arrival rate of the
// web-search schedule, a chosen operating point: the model gives no
// arrival rate. Connections last 0.6s on average, so about 600 are
// open at once — a bounded flow table — and teardown evictions run
// throughout the replay instead of piling up at the end.
const webArrivalsPerSec = 1000

// buildWebSearch generates short web-search flows and shifts each onto
// a seeded Poisson arrival schedule.
func buildWebSearch(seed int64, flows int) []*trace.Flow {
	rng := sim.NewRNG(seed)
	out := flowsOf(workload.Generate(workload.WebSearch(), rng.Int63(), workload.GenOptions{Flows: flows}))
	var at float64 // seconds
	for _, f := range out {
		at += rng.Exponential(1.0 / webArrivalsPerSec)
		shift(f, time.Duration(at*1000)*time.Millisecond)
	}
	return out
}

// shift moves a flow in capture time by d. The TCP timestamp options
// are sim times too and move with it, so RTT samples taken from TSecr
// stay what they were.
func shift(f *trace.Flow, d sim.Duration) {
	for i := range f.Records {
		r := &f.Records[i]
		r.T = r.T.Add(d)
		if r.Seg.TSVal != 0 {
			r.Seg.TSVal = r.Seg.TSVal.Add(d)
		}
		if r.Seg.TSEcr != 0 {
			r.Seg.TSEcr = r.Seg.TSEcr.Add(d)
		}
	}
}

// startAtZero moves every flow earlier by the time of the earliest
// record, so that the capture's first frame is at time 0. The
// generator stamps timestamp options from the same clock as capture
// times, starting at 0, and the analyzer and the triage fast path take
// capture time minus TSecr as an RTT sample; ImportPcap counts capture
// time from the first frame but leaves the options as they are. A
// capture whose first frame is later than 0 — the generator's first
// SYN arrives one one-way delay in — would shorten every such sample by
// that much on import. Starting at 0 keeps capture times and
// timestamp options on one clock, as the generator made them; see
// TestTimestampOffsetCapture for what the offset does.
func startAtZero(flows []*trace.Flow) {
	var first sim.Time
	for i, f := range flows {
		if t := f.Records[0].T; i == 0 || t < first {
			first = t
		}
	}
	for _, f := range flows {
		shift(f, -sim.Duration(first))
	}
}

// flowsOf keeps the generated flows that have records, each with its
// close handshake completed.
func flowsOf(res []workload.FlowResult) []*trace.Flow {
	out := make([]*trace.Flow, 0, len(res))
	for _, r := range res {
		if len(r.Flow.Records) > 0 {
			completeClose(r.Flow)
			out = append(out, r.Flow)
		}
	}
	return out
}

// completeClose appends what a server-side capture shows after the
// server's FIN: the client's FIN/ACK, arriving one round trip later,
// and the server's ACK of it, sent at once. The simulator stops at the
// server's FIN, and without the last two segments the monitor's
// teardown rule (FINs both ways, then a pure ACK) never fires, so
// every flow would stay resident until the monitor closes. The round
// trip is the flow's own handshake RTT, measured at the server as the
// analyzer measures it: from the last SYN-ACK to the client's first
// segment after it. Timestamp options, where the flow carries them,
// continue as a real stack would send them. Flows that do not end in a
// server FIN, or have no handshake RTT, are left alone.
func completeClose(f *trace.Flow) {
	n := len(f.Records)
	fin := f.Records[n-1].Seg
	rtt, ok := handshakeRTT(f)
	if f.Records[n-1].Dir != tcpsim.DirOut || !fin.Flags.Has(packet.FlagFIN) || !ok {
		return
	}
	var last *trace.Record // the client's last segment
	for i := n - 1; i >= 0 && last == nil; i-- {
		if f.Records[i].Dir == tcpsim.DirIn {
			last = &f.Records[i]
		}
	}
	if last == nil {
		return
	}
	t := f.Records[n-1].T.Add(rtt)
	cliSeq := last.Seg.Seq + uint32(last.Seg.Len)
	cliFin := tcpsim.Segment{Flags: packet.FlagFIN | packet.FlagACK, Seq: cliSeq, Ack: fin.Seq + 1, Wnd: last.Seg.Wnd}
	ack := tcpsim.Segment{Flags: packet.FlagACK, Seq: fin.Seq + 1, Ack: cliSeq + 1, Wnd: fin.Wnd}
	if fin.TSVal != 0 {
		// The simulator stamps both ends from one clock: the client
		// sends its FIN half a round trip after the server's.
		cliFin.TSVal, cliFin.TSEcr = f.Records[n-1].T.Add(rtt/2), fin.TSVal
		ack.TSVal, ack.TSEcr = t, cliFin.TSVal
	}
	f.Records = append(f.Records,
		trace.Record{T: t, Dir: tcpsim.DirIn, Seg: cliFin},
		trace.Record{T: t, Dir: tcpsim.DirOut, Seg: ack},
	)
}

// handshakeRTT is the time from the flow's last SYN-ACK to the
// client's first segment after it, reporting false if the flow has no
// such pair or the time is not positive.
func handshakeRTT(f *trace.Flow) (sim.Duration, bool) {
	var synack sim.Time
	for i := range f.Records {
		r := &f.Records[i]
		switch {
		case r.Dir == tcpsim.DirOut && r.Seg.Flags.Has(packet.FlagSYN|packet.FlagACK):
			synack = r.T
		case r.Dir == tcpsim.DirIn && !r.Seg.Flags.Has(packet.FlagSYN) && synack > 0:
			rtt := r.T.Sub(synack)
			return rtt, rtt > 0
		}
	}
	return 0, false
}

// writeCapture exports flows as one headers-only capture.
func writeCapture(w io.Writer, flows []*trace.Flow) error {
	return trace.ExportPcap(w, flows, trace.ExportConfig{Snaplen: snaplen})
}

// buildCapture generates the workload for seed and writes it to path,
// returning the number of records written.
func buildCapture(s spec, seed int64, path string) (int, error) {
	flows := s.generate(seed)
	n := 0
	for _, f := range flows {
		n += len(f.Records)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := writeCapture(bw, flows); err != nil {
		f.Close()
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	return n, nil
}
