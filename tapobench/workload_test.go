package main

import (
	"bytes"
	"testing"
	"time"

	"tcpstall/internal/packet"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
)

// tinyFlows sizes each workload for tests: a handful of flows, enough
// for every layer to see traffic.
var tinyFlows = map[string]int{
	"cloud-storage": 6,
	"healthy-mix":   40,
	"web-search":    300,
}

func tinySpec(t *testing.T, name string) spec {
	t.Helper()
	s, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	s.flows = tinyFlows[name]
	return s
}

func captureBytes(t *testing.T, s spec, seed int64) ([]*trace.Flow, []byte) {
	t.Helper()
	flows := s.generate(seed)
	var buf bytes.Buffer
	if err := writeCapture(&buf, flows); err != nil {
		t.Fatal(err)
	}
	return flows, buf.Bytes()
}

func TestCaptureIsDeterministic(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			s := tinySpec(t, s.name)
			_, a := captureBytes(t, s, 7)
			_, b := captureBytes(t, s, 7)
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed gave different captures")
			}
			_, c := captureBytes(t, s, 8)
			if bytes.Equal(a, c) {
				t.Fatal("different seeds gave the same capture")
			}
		})
	}
}

// TestEveryRecordSurvivesSnaplen checks that the headers-only capture
// loses nothing the analyzer reads: it imports to exactly the records
// a full-payload capture of the same flows imports to, and every
// generated record comes back with its direction, flags, sequence
// numbers and payload length, at its capture time, with its timestamp
// options on the same clock (to their millisecond resolution).
func TestEveryRecordSurvivesSnaplen(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			s := tinySpec(t, s.name)
			gen, short := captureBytes(t, s, 3)
			var full bytes.Buffer
			if err := trace.ExportPcap(&full, gen, trace.ExportConfig{}); err != nil {
				t.Fatal(err)
			}
			if full.Len() <= len(short) {
				t.Fatalf("full capture is %d bytes, headers-only %d", full.Len(), len(short))
			}
			got := importBytes(t, short)
			want := importBytes(t, full.Bytes())
			if len(got) != len(gen) || len(want) != len(gen) {
				t.Fatalf("imported %d and %d flows, generated %d", len(got), len(want), len(gen))
			}
			// Flows are matched by the client's ISN, which the SYN carries.
			byISN := func(flows []*trace.Flow) map[uint32]*trace.Flow {
				m := map[uint32]*trace.Flow{}
				for _, f := range flows {
					m[f.Records[0].Seg.Seq] = f
				}
				return m
			}
			gotISN, genISN := byISN(got), byISN(gen)
			for _, w := range want {
				isn := w.Records[0].Seg.Seq
				f, g := gotISN[isn], genISN[isn]
				if f == nil || g == nil || len(f.Records) != len(w.Records) || len(f.Records) != len(g.Records) {
					t.Fatalf("flow %s did not come back whole", w.ID)
				}
				for j := range f.Records {
					r, fr, gr := &f.Records[j], &w.Records[j], &g.Records[j]
					if *r != *fr {
						t.Fatalf("record %d of flow %s differs from the full capture's: %+v, want %+v", j, f.ID, r, fr)
					}
					if r.Dir != gr.Dir || r.Seg.Flags != gr.Seg.Flags || r.Seg.Seq != gr.Seg.Seq ||
						r.Seg.Ack != gr.Seg.Ack || r.Seg.Len != gr.Seg.Len {
						t.Fatalf("record %d of flow %s changed: %+v became %+v", j, f.ID, gr, r)
					}
					if r.T != gr.T || !sameTick(r.Seg.TSVal, gr.Seg.TSVal) || !sameTick(r.Seg.TSEcr, gr.Seg.TSEcr) {
						t.Fatalf("record %d of flow %s moved in time: %+v became %+v", j, f.ID, gr, r)
					}
				}
			}
		})
	}
}

// sameTick reports whether an imported timestamp option is the
// generated one truncated to the option's millisecond ticks.
func sameTick(got, gen sim.Time) bool {
	if gen == 0 {
		return got == 0
	}
	d := gen.Sub(got)
	return got != 0 && d >= 0 && d < time.Millisecond
}

func importBytes(t *testing.T, capture []byte) []*trace.Flow {
	t.Helper()
	flows, err := trace.ImportPcap(bytes.NewReader(capture), trace.ImportConfig{ServerPort: serverPort})
	if err != nil {
		t.Fatal(err)
	}
	return flows
}

func TestCompleteCloseAddsTeardown(t *testing.T) {
	s := tinySpec(t, "web-search")
	for _, f := range s.build(1, 20) {
		n := len(f.Records)
		fin, cliFin, ack := f.Records[n-3], f.Records[n-2], f.Records[n-1]
		if !fin.Seg.Flags.Has(packet.FlagFIN) || !cliFin.Seg.Flags.Has(packet.FlagFIN) || ack.Seg.Flags.Has(packet.FlagFIN) ||
			fin.Dir == cliFin.Dir || ack.Dir != fin.Dir || ack.Seg.Len != 0 {
			t.Fatalf("flow %s does not end in FIN, FIN, ACK: %+v %+v %+v", f.ID, fin, cliFin, ack)
		}
		if cliFin.Seg.Ack != fin.Seg.Seq+1 || ack.Seg.Ack != cliFin.Seg.Seq+1 {
			t.Fatalf("flow %s: close handshake does not acknowledge the FINs", f.ID)
		}
		// The client's FIN arrives one handshake RTT after the
		// server's; the server acknowledges it at once.
		rtt, ok := handshakeRTT(f)
		if !ok || cliFin.T != fin.T.Add(rtt) || ack.T != cliFin.T {
			t.Fatalf("flow %s: FINs at %v and %v, final ACK at %v, handshake RTT %v", f.ID, fin.T, cliFin.T, ack.T, rtt)
		}
	}
}
