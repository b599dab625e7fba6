package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/metrics"
	"tcpstall/internal/stats"
)

// NewHandler exposes a Monitor's metrics and admin planes:
//
//	GET /metrics                 Prometheus text exposition (see writeMetrics)
//	GET /healthz                 liveness — 200 "ok" while the monitor accepts records
//	GET /flows                   JSON list of active flows (?n= limits)
//	GET /flows/{id}              one active flow, 404 when unknown/evicted
//	GET /debug/flows/{id}/trace  the flow's flight-recorder evidence
//	GET /stalls                  JSON ring of the most recent closed stalls (?n= limits)
//	GET /config                  JSON of the effective (defaulted) configuration
//
// Every successful response carries Cache-Control: no-store, as on the
// fleet head: a cached copy of a live view is wrong by definition.
func NewHandler(m *Monitor) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		writeMetrics(w, m.Snapshot())
		writeRuntimeMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if m.closed.Load() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /flows", func(w http.ResponseWriter, r *http.Request) {
		limit, ok := limitParam(w, r)
		if !ok {
			return
		}
		flows := m.Flows()
		sort.Slice(flows, func(i, j int) bool { return flows[i].ID < flows[j].ID })
		active := len(flows)
		if limit > 0 && limit < len(flows) {
			flows = flows[:limit]
		}
		writeJSON(w, map[string]any{"active": active, "flows": flows})
	})
	mux.HandleFunc("GET /flows/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := m.Flow(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown flow (never seen, or already evicted)", http.StatusNotFound)
			return
		}
		writeJSON(w, info)
	})
	mux.HandleFunc("GET /debug/flows/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		ft, ok := m.FlowTrace(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown flow (never seen, or already evicted)", http.StatusNotFound)
			return
		}
		writeJSON(w, ft)
	})
	mux.HandleFunc("GET /stalls", func(w http.ResponseWriter, r *http.Request) {
		limit, ok := limitParam(w, r)
		if !ok {
			return
		}
		stalls := m.RecentStalls()
		if limit > 0 && limit < len(stalls) {
			stalls = stalls[len(stalls)-limit:] // newest-biased tail
		}
		out := make([]stallJSON, 0, len(stalls))
		for _, ls := range stalls {
			out = append(out, newStallJSON(ls))
		}
		writeJSON(w, map[string]any{"count": len(out), "stalls": out})
	})
	mux.HandleFunc("GET /config", func(w http.ResponseWriter, r *http.Request) {
		cfg := m.Config()
		out := map[string]any{
			"shards":               cfg.Shards,
			"max_flows":            cfg.MaxFlows,
			"max_records_per_flow": cfg.MaxRecordsPerFlow,
			"idle_timeout":         cfg.IdleTimeout.String(),
			"ring_size":            cfg.RingSize,
			"window":               cfg.Window.String(),
			"window_buckets":       cfg.WindowBuckets,
			"recent_stalls":        cfg.RecentStalls,
			"analysis": map[string]any{
				"tau":        cfg.Analysis.Tau,
				"dup_thresh": cfg.Analysis.DupThresh,
				"init_cwnd":  cfg.Analysis.InitCwnd,
				"init_rto":   cfg.Analysis.InitRTO.String(),
				"min_rto":    cfg.Analysis.MinRTO.String(),
			},
			// The runtime block is the live truth: these values start as
			// the constructed configuration but can be retuned while the
			// monitor runs (a fleet head pushes them via the member's
			// heartbeat responses).
			"runtime": map[string]any{
				"max_records_per_flow": m.MaxRecordsPerFlow(),
				"triage_enabled":       m.TriageEnabled(),
				"flight_enabled":       m.FlightEnabled(),
			},
		}
		if cfg.Triage != nil {
			out["triage"] = map[string]any{
				"ring_cap":     cfg.Triage.RingCap,
				"tau":          cfg.Triage.Tau,
				"min_rto":      cfg.Triage.MinRTO.String(),
				"init_rto":     cfg.Triage.InitRTO.String(),
				"dup_burst":    cfg.Triage.DupBurst,
				"demote_after": cfg.Triage.DemoteAfter.String(),
			}
		}
		writeJSON(w, out)
	})
	return mux
}

// maxLimitParam bounds ?n=: anything past it cannot be a real paging
// request (the flow table itself caps far lower) and is rejected
// rather than silently clamped, so a fat-fingered or adversarial
// value surfaces as a 400 instead of an unbounded-looking query that
// quietly worked.
const maxLimitParam = 1 << 20

// limitParam parses the optional ?n= result cap; on a malformed,
// negative or absurdly large value it writes 400 and reports false.
func limitParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query().Get("n")
	if q == "" {
		return 0, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		http.Error(w, "bad query: n must be a non-negative integer", http.StatusBadRequest)
		return 0, false
	}
	if n > maxLimitParam {
		http.Error(w, "bad query: n exceeds the maximum of 1048576", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// stallJSON flattens a LiveStall for the admin plane. ID is the
// stall's flow-scoped identifier — the same one evidence refs and
// groundtruth grading use.
type stallJSON struct {
	FlowID       string  `json:"flow_id"`
	Service      string  `json:"service,omitempty"`
	ID           int     `json:"id"`
	StartS       float64 `json:"start_s"`
	EndS         float64 `json:"end_s"`
	DurationMS   float64 `json:"duration_ms"`
	Cause        string  `json:"cause"`
	Category     string  `json:"category"`
	RetransCause string  `json:"retrans_cause,omitempty"`
	// Evidence names the flight-recorder entry for this stall
	// (resolve via /debug/flows/{flow_id}/trace); absent when the
	// recorder is disabled.
	Evidence string `json:"evidence,omitempty"`
}

func newStallJSON(ls core.LiveStall) stallJSON {
	sj := stallJSON{
		FlowID:     ls.FlowID,
		Service:    ls.Service,
		ID:         ls.Stall.ID,
		StartS:     ls.Stall.Start.Seconds(),
		EndS:       ls.Stall.End.Seconds(),
		DurationMS: float64(ls.Stall.Duration) / float64(time.Millisecond),
		Cause:      ls.Stall.Cause.String(),
		Category:   core.CategoryOf(ls.Stall.Cause).String(),
	}
	if ls.Stall.Cause == core.CauseTimeoutRetrans {
		sj.RetransCause = ls.Stall.RetransCause.String()
	}
	if ls.Stall.Evidence != nil {
		sj.Evidence = ls.Stall.Evidence.String()
	}
	return sj
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Metrics declares the families tapod's /metrics renders from a
// monitor Snapshot; RuntimeMetrics declares the daemon's own Go runtime
// health, served after them. Declaration order is exposition order.
var Metrics, RuntimeMetrics metrics.Registry

var (
	mUptime              = Metrics.Gauge("tapod_uptime_seconds", "Time since the monitor started.")
	mIngested            = Metrics.Counter("tapod_records_ingested_total", "Records accepted into shard rings.")
	mDropped             = Metrics.Counter("tapod_records_dropped_total", "Records discarded, by reason.", "reason")
	mShardRingDrops      = Metrics.Counter("tapod_shard_ring_drops_total", "Records shed at each shard's full ingest ring.", "shard")
	mFlightDrops         = Metrics.Counter("tapod_flight_drops_total", "Flight-recorder ring truncation (settled at flow eviction), by kind.", "kind")
	mFed                 = Metrics.Counter("tapod_records_fed_total", "Records fed into per-flow analyzers.")
	mTriageRecords       = Metrics.Counter("tapod_triage_records_total", "Records handled by the triage fast path.")
	mPromotions          = Metrics.Counter("tapod_triage_promotions_total", "Flow promotions to full analysis, by symptom.", "symptom")
	mRepromotions        = Metrics.Counter("tapod_triage_repromotions_total", "Promotions that re-attached a parked analyzer.")
	mDemotions           = Metrics.Counter("tapod_triage_demotions_total", "Promoted flows parked after staying symptom-free.")
	mTruncatedPromotions = Metrics.Counter("tapod_triage_truncated_promotions_total", "Promotions whose symptom evidence predated the record ring (replayed from ring start).")
	mPromotedFlows       = Metrics.Gauge("tapod_triage_promoted_flows", "Live flows currently promoted to full analysis.")
	mParkedFlows         = Metrics.Gauge("tapod_triage_parked_flows", "Live flows holding a demoted (parked) analyzer.")
	mFlowsActive         = Metrics.Gauge("tapod_flows_active", "Flows currently tracked.")
	mFlowsSeen           = Metrics.Counter("tapod_flows_seen_total", "Flows ever admitted.")
	mFlowsEvicted        = Metrics.Counter("tapod_flows_evicted_total", "Flows evicted, by reason.", "reason")
	mFlowsTruncated      = Metrics.Counter("tapod_flows_truncated_total", "Flows that hit the per-flow record cap.")
	mStalls              = Metrics.Counter("tapod_stalls_total", "Closed stalls by service and Figure-5 cause.", "service", "cause", "category")
	mStallSeconds        = Metrics.Counter("tapod_stall_seconds_total", "Total stalled seconds by service and cause.", "service", "cause")
	mStallDuration       = Metrics.Histogram("tapod_stall_duration_ms", "Closed stall durations in milliseconds.")
	mRetransStalls       = Metrics.Counter("tapod_retrans_stalls_total", "Retransmission stalls by Table-5 sub-cause (settled at eviction).", "subcause")
	mRetransSeconds      = Metrics.Counter("tapod_retrans_stall_seconds_total", "Retransmission stall seconds by Table-5 sub-cause.", "subcause")
	mWindowStalls        = Metrics.Gauge("tapod_window_stalls", "Stalls closed inside the rolling window, by service and cause.", "service", "cause")
	mWindowStallSeconds  = Metrics.Gauge("tapod_window_stall_seconds", "Stalled seconds inside the rolling window.", "service", "cause")
	mWindowSpan          = Metrics.Gauge("tapod_window_span_seconds", "Width of the rolling window.")

	mGoroutines = RuntimeMetrics.Gauge("tapod_goroutines", "Current goroutine count.")
	mHeapAlloc  = RuntimeMetrics.Gauge("tapod_heap_alloc_bytes", "Bytes of allocated heap objects.")
	mHeapSys    = RuntimeMetrics.Gauge("tapod_heap_sys_bytes", "Heap memory obtained from the OS.")
	mGCCycles   = RuntimeMetrics.Counter("tapod_gc_cycles_total", "Completed GC cycles.")
	mGCPause    = RuntimeMetrics.Counter("tapod_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.")
)

// writeMetrics renders a Snapshot through the Metrics registry. Label
// sets are emitted in sorted order so scrapes are deterministic and
// diffable.
func writeMetrics(w io.Writer, s Snapshot) {
	p := Metrics.NewPage()
	p.Float(mUptime, s.Uptime.Seconds())
	p.Uint(mIngested, s.Ingested)
	p.Uint(mDropped, s.RingDrops, "ring_full")
	p.Uint(mDropped, s.RecordsCapDrop, "flow_record_cap")
	for i, n := range s.ShardRingDrops {
		p.Uint(mShardRingDrops, n, strconv.Itoa(i))
	}
	p.Uint(mFlightDrops, s.FlightEventDrops, "event")
	p.Uint(mFlightDrops, s.FlightEvidenceDrops, "evidence")
	p.Uint(mFed, s.RecordsFed)
	p.Uint(mTriageRecords, s.TriageFastRecords)
	p.UintMap(mPromotions, s.TriagePromotions)
	p.Uint(mRepromotions, s.TriageRepromotions)
	p.Uint(mDemotions, s.TriageDemotions)
	p.Uint(mTruncatedPromotions, s.TriageTruncatedPromotions)
	p.Uint(mPromotedFlows, uint64(s.PromotedFlows))
	p.Uint(mParkedFlows, uint64(s.ParkedFlows))
	p.Uint(mFlowsActive, uint64(s.ActiveFlows))
	p.Uint(mFlowsSeen, s.FlowsSeen)
	p.UintMap(mFlowsEvicted, s.FlowsEvicted)
	p.Uint(mFlowsTruncated, s.FlowsTruncated)
	forEachCause(s.StallCount, func(k CauseKey) {
		p.Uint(mStalls, s.StallCount[k], k.Service, k.Cause.String(), core.CategoryOf(k.Cause).String())
	})
	forEachCause(s.StallSeconds, func(k CauseKey) {
		p.Float(mStallSeconds, s.StallSeconds[k], k.Service, k.Cause.String())
	})
	dur := s.DurationsMS
	if dur == nil {
		dur = stats.NewHistogram(DurationBoundsMS)
	}
	p.Histogram(mStallDuration, dur.State())
	for _, c := range sortedRetrans(s.RetransCount) {
		p.Uint(mRetransStalls, s.RetransCount[c], c.String())
	}
	for _, c := range sortedRetrans(s.RetransSeconds) {
		p.Float(mRetransSeconds, s.RetransSeconds[c], c.String())
	}
	forEachCause(s.Window.StallCount, func(k CauseKey) {
		p.Uint(mWindowStalls, s.Window.StallCount[k], k.Service, k.Cause.String())
	})
	forEachCause(s.Window.StallSeconds, func(k CauseKey) {
		p.Float(mWindowStallSeconds, s.Window.StallSeconds[k], k.Service, k.Cause.String())
	})
	p.Float(mWindowSpan, s.Window.Span.Seconds())
	p.WriteTo(w)
}

// writeRuntimeMetrics renders the daemon's own Go runtime health —
// goroutine count, heap, GC pause — so the monitor watches itself
// with the same scrape that watches the flows.
func writeRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := RuntimeMetrics.NewPage()
	p.Uint(mGoroutines, uint64(runtime.NumGoroutine()))
	p.Uint(mHeapAlloc, ms.HeapAlloc)
	p.Uint(mHeapSys, ms.HeapSys)
	p.Uint(mGCCycles, uint64(ms.NumGC))
	p.Float(mGCPause, float64(ms.PauseTotalNs)/1e9)
	p.WriteTo(w)
}

func sortedRetrans[V any](m map[core.RetransCause]V) []core.RetransCause {
	keys := make([]core.RetransCause, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// forEachCause visits cause-keyed counters sorted by (service, cause).
func forEachCause[V any](m map[CauseKey]V, fn func(CauseKey)) {
	keys := make([]CauseKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Service != keys[j].Service {
			return keys[i].Service < keys[j].Service
		}
		return keys[i].Cause < keys[j].Cause
	})
	for _, k := range keys {
		fn(k)
	}
}
