package main

import (
	"os"
	"runtime"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/flight"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
)

// The isolated replays run the flows of the capture through one layer
// at a time on the benchmark's own goroutine, so that the end-to-end
// numbers can be split into per-layer costs measured on the same
// input.

// Flow-length classes for the analyzer's per-record cost: the
// scoreboard walk grows with flow length, so long flows cost more per
// record than short ones.
const (
	longFlowRecords  = 4096
	shortFlowRecords = 512
)

// importResult is ImportPcapRecords alone, with a no-op handler: its
// time and allocations, without the monitor's mixed in.
type importResult struct {
	records    int
	elapsed    time.Duration
	allocs     uint64
	allocBytes uint64
}

func importReplay(path string) (importResult, error) {
	var res importResult
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	err = trace.ImportPcapRecords(f, trace.ImportConfig{ServerPort: serverPort}, func(trace.RecordEvent) error {
		res.records++
		return nil
	})
	res.elapsed = time.Since(t)
	runtime.ReadMemStats(&m1)
	res.allocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return res, err
}

// coreResult is the incremental analyzer alone, one flow after
// another, as a live shard runs an always-on flow: construct, feed the
// records in one FeedBatch, flush.
type coreResult struct {
	// total covers construction, feeding and flushing; flowTotal is
	// the same per flow, in the order of the flows.
	total     time.Duration
	flowTotal []time.Duration
	// feed is split by flow-length class; records likewise.
	feed, feedLong, feedShort          time.Duration
	records, recordsLong, recordsShort int
	flush                              time.Duration
	flows                              int
	allocs                             uint64
	stalls                             int
}

func coreReplay(flows []*trace.Flow, withFlight bool) coreResult {
	res := coreResult{flowTotal: make([]time.Duration, len(flows))}
	cfg := analysisConfig()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, f := range flows {
		t0 := time.Now()
		inc := core.NewIncremental(cfg)
		inc.SetMeta(core.FlowMeta{ID: f.ID, Service: f.Service, MSS: f.MSS, InitRwnd: f.InitRwnd})
		if withFlight {
			inc.SetRecorder(flight.NewRecorder(flight.Config{}))
		}
		t1 := time.Now()
		inc.FeedBatch(f.Records)
		t2 := time.Now()
		a := inc.Flush()
		t3 := time.Now()

		n := len(f.Records)
		feed := t2.Sub(t1)
		res.total += t3.Sub(t0)
		res.flowTotal[i] = t3.Sub(t0)
		res.feed += feed
		res.records += n
		switch {
		case n >= longFlowRecords:
			res.feedLong += feed
			res.recordsLong += n
		case n < shortFlowRecords:
			res.feedShort += feed
			res.recordsShort += n
		}
		res.flush += t3.Sub(t2)
		res.flows++
		res.stalls += len(a.Stalls)
	}
	runtime.ReadMemStats(&m1)
	res.allocs = m1.Mallocs - m0.Mallocs
	return res
}

// triageResult is the triage fast path alone: every record through
// Observe, with the flow attached at its first symptom as the live
// monitor promotes it.
type triageResult struct {
	elapsed             time.Duration
	records             int
	fastRecords         int // records of flows that never raised a symptom
	flows, promoted     int
	truncatedPromotions int
	// promotedFlow marks the flows that raised a symptom, in the order
	// of the flows.
	promotedFlow []bool
}

// triageConfig is the fast-path configuration the live monitor derives
// from tapod's analyzer configuration.
func triageConfig() triage.Config {
	cfg := analysisConfig()
	return triage.Config{Tau: cfg.Tau, MinRTO: cfg.MinRTO, InitRTO: cfg.InitRTO}.WithDefaults()
}

func triageReplay(flows []*trace.Flow) triageResult {
	res := triageResult{promotedFlow: make([]bool, len(flows))}
	cfg := triageConfig()
	arena := triage.NewArena()
	t := time.Now()
	for i, f := range flows {
		tf := triage.NewFlowIn(cfg, arena)
		promoted := false
		for i := range f.Records {
			sym, _, _ := tf.Observe(&f.Records[i])
			if sym != triage.SymNone && !promoted {
				promoted = true
				if tf.Attach() {
					res.truncatedPromotions++
				}
			}
		}
		tf.Release()
		res.records += len(f.Records)
		res.flows++
		if promoted {
			res.promoted++
			res.promotedFlow[i] = true
		} else {
			res.fastRecords += len(f.Records)
		}
	}
	res.elapsed = time.Since(t)
	return res
}

// isolatedNsPerRecord is what the isolated replays say one record
// costs on the production path: the import, plus the triage fast path
// where it is on, plus the analysis with a flight recorder of every
// flow the monitor analyzes (all of them with triage off, the ones
// triage promotes with it on).
func isolatedNsPerRecord(imp importResult, withFlight coreResult, tri triageResult, triageOn bool) float64 {
	total := imp.elapsed
	for i, d := range withFlight.flowTotal {
		if !triageOn || tri.promotedFlow[i] {
			total += d
		}
	}
	if triageOn {
		total += tri.elapsed
	}
	return ratio(float64(total), float64(imp.records))
}
