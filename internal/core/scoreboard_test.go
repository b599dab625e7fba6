package core

import (
	"fmt"
	"testing"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/tcpsim"
	"tcpstall/internal/trace"
)

// The recount helpers are the scoreboard's definition: full scans over
// every segment the flow has sent. The analyzer keeps the same values
// as counters and walks only segs[una:]; checkScoreboard asserts the
// two agree.

// recountPacketsOut is snd_nxt − snd_una in segments.
func recountPacketsOut(a *analyzer) int {
	n := 0
	for i := range a.segs {
		g := &a.segs[i]
		if !g.acked && g.sent > 0 {
			n++
		}
	}
	return n
}

func recountSackedOut(a *analyzer) int {
	n := 0
	for i := range a.segs {
		g := &a.segs[i]
		if g.sacked && !g.acked {
			n++
		}
	}
	return n
}

// recountSegsAbove counts distinct sent, unacked segments strictly
// above seq.
func recountSegsAbove(a *analyzer, seq uint64) int {
	n := 0
	for i := range a.segs {
		g := &a.segs[i]
		if g.seq > seq && !g.acked {
			n++
		}
	}
	return n
}

// checkScoreboard asserts the analyzer's incremental scoreboard
// against the recounts: both counters, segsAbove at the bottom and
// top of the window, the first-unacked invariant, and the stall
// references that keep DSACK stamping alive below una.
func checkScoreboard(a *analyzer) error {
	if a.una < 0 || a.una > len(a.segs) {
		return fmt.Errorf("una %d outside [0, %d]", a.una, len(a.segs))
	}
	refs := 0
	for i := range a.segs {
		if i < a.una && !a.segs[i].acked {
			return fmt.Errorf("segs[%d] below una %d is unacked", i, a.una)
		}
		if a.segs[i].stallRef {
			refs++
		}
	}
	if refs != len(a.stallSegs) {
		return fmt.Errorf("%d stallRef segments, %d in stallSegs", refs, len(a.stallSegs))
	}
	for _, ps := range a.pending {
		if i := ps.retransSegIdx; i >= 0 && !a.segs[i].stallRef {
			return fmt.Errorf("stall %d retransmits segs[%d], which is not stallRef", ps.stall.ID, i)
		}
	}
	if got, want := a.packetsOut, recountPacketsOut(a); got != want {
		return fmt.Errorf("packets_out counter %d, recount %d", got, want)
	}
	if got, want := a.sackedOut, recountSackedOut(a); got != want {
		return fmt.Errorf("sacked_out counter %d, recount %d", got, want)
	}
	if n := len(a.segs); n > 0 {
		for _, seq := range []uint64{a.segs[min(a.una, n-1)].seq, a.segs[n-1].seq} {
			if got, want := a.segsAbove(seq), recountSegsAbove(a, seq); got != want {
				return fmt.Errorf("segsAbove(%d) = %d, recount %d", seq, got, want)
			}
		}
	}
	return nil
}

// feedChecked feeds records one at a time and asserts the scoreboard
// after each.
func feedChecked(tb testing.TB, inc *Incremental, recs []trace.Record) {
	tb.Helper()
	for i := range recs {
		inc.Feed(&recs[i])
		if err := checkScoreboard(&inc.a); err != nil {
			tb.Fatalf("after record %d: %v", i, err)
		}
	}
}

// handFlow builds records in the server's data sequence space: out
// and in take stream offsets relative to the first data byte, so the
// cases below read as scoreboards rather than wire values.
type handFlow struct {
	isn  uint32
	t    sim.Time
	recs []trace.Record
}

func newHandFlow() *handFlow {
	h := &handFlow{isn: 0xFFFFF000} // wraps through 2^32 mid-flow
	h.at(0, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagSYN, Seq: 100, Wnd: 65535})
	h.at(time.Millisecond, tcpsim.DirOut, tcpsim.Segment{Flags: packet.FlagSYN | packet.FlagACK, Seq: h.isn, Ack: 101, Wnd: 65535})
	// The request ACKs the SYN-ACK 40 ms later: the RTT seed.
	h.at(40*time.Millisecond, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagACK, Seq: 101, Ack: h.isn + 1, Len: 100, Wnd: 65535})
	return h
}

func (h *handFlow) at(dt time.Duration, dir tcpsim.Dir, seg tcpsim.Segment) {
	h.t += sim.Time(dt)
	h.recs = append(h.recs, trace.Record{T: h.t, Dir: dir, Seg: seg})
}

func (h *handFlow) wire(off int) uint32 { return h.isn + 1 + uint32(off) }

// data sends [off, off+n) dt after the previous record.
func (h *handFlow) data(dt time.Duration, off, n int) {
	h.at(dt, tcpsim.DirOut, tcpsim.Segment{Flags: packet.FlagACK, Seq: h.wire(off), Ack: 201, Len: n, Wnd: 65535})
}

// ack acknowledges up to off, with optional SACK blocks [l, r) given
// as consecutive offset pairs.
func (h *handFlow) ack(dt time.Duration, off int, sack ...int) {
	var blocks []packet.SACKBlock
	for i := 0; i+1 < len(sack); i += 2 {
		blocks = append(blocks, packet.SACKBlock{Left: h.wire(sack[i]), Right: h.wire(sack[i+1])})
	}
	h.at(dt, tcpsim.DirIn, tcpsim.Segment{Flags: packet.FlagACK, Seq: 201, Ack: h.wire(off), Wnd: 65535,
		SACK: packet.SACKBlocks(blocks...)})
}

// analyzeChecked runs the hand-built flow with the scoreboard oracle
// on and returns the analysis and the analyzer it came from.
func (h *handFlow) analyzeChecked(t *testing.T) (*FlowAnalysis, *analyzer) {
	t.Helper()
	inc := NewIncremental(Config{})
	feedChecked(t, inc, h.recs)
	return inc.Flush(), &inc.a
}

// A DSACK that arrives after the stall's retransmitted segment was
// cumulatively acked must still mark it spurious: the segment sits
// below una by then, and only its stall reference keeps it stamped.
func TestScoreboardDSACKAfterCumulativeAck(t *testing.T) {
	h := newHandFlow()
	for i := 0; i < 6; i++ {
		h.data(time.Millisecond, i*1000, 1000)
	}
	h.ack(40*time.Millisecond, 1000)
	h.ack(time.Millisecond, 2000)
	// Silence well past min(2·SRTT, RTO), then segment 2 is resent:
	// a timeout-retransmission stall with segments 3–5 above it.
	h.data(400*time.Millisecond, 2000, 1000)
	h.ack(40*time.Millisecond, 6000)
	// The original of segment 2 was never lost: the receiver reports
	// the duplicate.
	h.ack(time.Millisecond, 6000, 2000, 3000)

	a, an := h.analyzeChecked(t)
	if an.una != len(an.segs) {
		t.Fatalf("una = %d, want every one of %d segments acked", an.una, len(an.segs))
	}
	if len(a.Stalls) != 1 {
		t.Fatalf("stalls = %+v, want one", a.Stalls)
	}
	st := a.Stalls[0]
	if st.Cause != CauseTimeoutRetrans || st.RetransCause != RetransAckDelayLoss {
		t.Errorf("stall = %v/%v, want retransmission/ack-delay-loss (T5.3)", st.Cause, st.RetransCause)
	}
	if g := &an.segs[2]; len(g.spuriousAt) != 1 {
		t.Errorf("segment 2 carries %d DSACK stamps, want 1", len(g.spuriousAt))
	}
}

// A retransmission at an offset never sent before, below maxEnd, adds
// a segment whose range lies inside the acked stream: once the
// cumulative ACK passes it, acked segments no longer form a prefix of
// segs, and the window scans must still see the unacked ones.
func TestScoreboardRetransAtUnseenOffset(t *testing.T) {
	h := newHandFlow()
	for i := 0; i < 4; i++ {
		h.data(time.Millisecond, i*1000, 1000)
	}
	// Re-sent as [500, 1000): a new segment, index 4.
	h.data(time.Millisecond, 500, 500)
	h.ack(40*time.Millisecond, 1000) // acks segs 0 and 4, not 1–3
	h.ack(time.Millisecond, 1000, 2000, 3000)
	h.ack(time.Millisecond, 1000, 2000, 4000)
	h.ack(time.Millisecond, 4000)

	a, an := h.analyzeChecked(t)
	if an.una != len(an.segs) {
		t.Fatalf("una = %d, want every one of %d segments acked", an.una, len(an.segs))
	}
	// in_flight after each ACK: the request ACK sees nothing sent; the
	// ACK to 1000 leaves segments 1–3 out; two SACKs eat into them.
	want := []int{0, 3, 2, 1, 0}
	if fmt.Sprint(a.InFlightOnAck) != fmt.Sprint(want) {
		t.Errorf("InFlightOnAck = %v, want %v", a.InFlightOnAck, want)
	}
	if a.DataPackets != 5 || a.RetransPackets != 0 {
		t.Errorf("data/retrans packets = %d/%d, want 5/0", a.DataPackets, a.RetransPackets)
	}
}

// A spurious retransmission of an already-acked segment is counted as
// a retransmission but is not outstanding: packets_out stays 0, and a
// DSACK for it stamps nothing a stall can read.
func TestScoreboardSpuriousRetransOfAcked(t *testing.T) {
	h := newHandFlow()
	for i := 0; i < 3; i++ {
		h.data(time.Millisecond, i*1000, 1000)
	}
	h.ack(40*time.Millisecond, 3000)
	h.data(400*time.Millisecond, 1000, 1000)
	h.ack(40*time.Millisecond, 3000, 1000, 2000)

	a, an := h.analyzeChecked(t)
	if an.packetsOut != 0 || an.una != 3 {
		t.Errorf("packets_out = %d, una = %d; want 0, 3", an.packetsOut, an.una)
	}
	if a.RetransPackets != 1 {
		t.Errorf("retrans packets = %d, want 1", a.RetransPackets)
	}
	if len(a.Stalls) != 1 || a.Stalls[0].Cause != CauseResourceConstraint || a.Stalls[0].PacketsOut != 0 {
		t.Errorf("stalls = %+v, want one resource-constraint stall with nothing outstanding", a.Stalls)
	}
	if want := []int{0, 0, 0}; fmt.Sprint(a.InFlightOnAck) != fmt.Sprint(want) {
		t.Errorf("InFlightOnAck = %v, want %v", a.InFlightOnAck, want)
	}
}
