package live

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tcpstall/internal/flight"
	"tcpstall/internal/sim"
)

// flightMonitor builds an unstarted monitor with recorders attached
// and one flow ("tapo-ev") that has stalled twice.
func flightMonitor(fcfg flight.Config) *Monitor {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m := New(Config{Shards: 1, Clock: clk.Now, Flight: &fcfg})
	feedDirect(m, dataEvent("tapo-ev", 0, 1000, 1460))
	feedDirect(m, dataEvent("tapo-ev", sim.Time(2*time.Second), 2460, 1460))
	feedDirect(m, dataEvent("tapo-ev", sim.Time(4*time.Second), 3920, 1460))
	return m
}

func TestHTTPFlowByID(t *testing.T) {
	m := flightMonitor(flight.Config{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	code, body := get(t, srv, "/flows/tapo-ev")
	if code != 200 {
		t.Fatalf("/flows/tapo-ev = %d %q", code, body)
	}
	var info FlowInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "tapo-ev" || info.Records != 3 || info.Stalls != 2 {
		t.Errorf("flow detail = %+v", info)
	}

	if code, body := get(t, srv, "/flows/no-such-flow"); code != 404 ||
		!strings.Contains(body, "unknown flow") {
		t.Errorf("/flows/no-such-flow = %d %q, want 404", code, body)
	}
}

func TestHTTPMalformedQuery(t *testing.T) {
	m := flightMonitor(flight.Config{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	for _, path := range []string{"/flows?n=abc", "/stalls?n=abc", "/flows?n=-1", "/stalls?n=-3"} {
		if code, body := get(t, srv, path); code != 400 || !strings.Contains(body, "bad query") {
			t.Errorf("%s = %d %q, want 400", path, code, body)
		}
	}

	// A valid limit trims the result set but keeps the true total.
	code, body := get(t, srv, "/stalls?n=1")
	if code != 200 {
		t.Fatalf("/stalls?n=1 = %d", code)
	}
	var stalls struct {
		Count  int         `json:"count"`
		Stalls []stallJSON `json:"stalls"`
	}
	if err := json.Unmarshal([]byte(body), &stalls); err != nil {
		t.Fatal(err)
	}
	if len(stalls.Stalls) != 1 || stalls.Stalls[0].ID != 1 {
		t.Errorf("limited /stalls kept %+v, want only the newest stall", stalls.Stalls)
	}
}

// /stalls must keep serving the retained ring while — and after — the
// monitor drains: observability cannot die before the process does.
func TestHTTPStallsDuringDrain(t *testing.T) {
	m := flightMonitor(flight.Config{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	m.Start()
	m.Close() // drains the (already processed) flow and stops the shards

	code, body := get(t, srv, "/stalls")
	if code != 200 {
		t.Fatalf("/stalls after drain = %d %q", code, body)
	}
	var stalls struct {
		Count  int         `json:"count"`
		Stalls []stallJSON `json:"stalls"`
	}
	if err := json.Unmarshal([]byte(body), &stalls); err != nil {
		t.Fatal(err)
	}
	if stalls.Count != 2 {
		t.Errorf("stall ring after drain = %+v", stalls)
	}
	for i, sj := range stalls.Stalls {
		if sj.ID != i {
			t.Errorf("stall %d carries ID %d — live IDs must match flow-scoped order", i, sj.ID)
		}
		if sj.Evidence == "" {
			t.Errorf("stall %d has no evidence ref", i)
		}
	}
	// Metrics stay scrapable too.
	if code, _ := get(t, srv, "/metrics"); code != 200 {
		t.Errorf("/metrics after drain = %d", code)
	}
}

func TestHTTPDebugFlowTrace(t *testing.T) {
	m := flightMonitor(flight.Config{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	code, body := get(t, srv, "/debug/flows/tapo-ev/trace")
	if code != 200 {
		t.Fatalf("/debug/flows/tapo-ev/trace = %d %q", code, body)
	}
	var ft FlowTrace
	if err := json.Unmarshal([]byte(body), &ft); err != nil {
		t.Fatal(err)
	}
	if !ft.Flight || len(ft.Evidences) != 2 || len(ft.Events) == 0 {
		t.Fatalf("trace = flight=%v evidences=%d events=%d", ft.Flight, len(ft.Evidences), len(ft.Events))
	}
	ev := ft.Evidences[0]
	if len(ev.Decision) == 0 || len(ev.Window) == 0 {
		t.Errorf("evidence lacks decision path or window: %+v", ev)
	}
	// Live evidence is provisional until the flow is flushed.
	if !ev.Provisional {
		t.Errorf("mid-flow evidence should be provisional")
	}

	if code, _ := get(t, srv, "/debug/flows/gone/trace"); code != 404 {
		t.Errorf("unknown flow trace = %d, want 404", code)
	}

	// Without Config.Flight the endpoint still answers, flagged off.
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m2 := New(Config{Shards: 1, Clock: clk.Now})
	feedDirect(m2, dataEvent("plain", 0, 1000, 1460))
	srv2 := httptest.NewServer(NewHandler(m2))
	defer srv2.Close()
	code, body = get(t, srv2, "/debug/flows/plain/trace")
	if code != 200 {
		t.Fatalf("disabled-flight trace = %d", code)
	}
	var ft2 FlowTrace
	if err := json.Unmarshal([]byte(body), &ft2); err != nil {
		t.Fatal(err)
	}
	if ft2.Flight || len(ft2.Evidences) != 0 {
		t.Errorf("disabled-flight trace = %+v", ft2)
	}
}

// Evidence-ring truncation must be visible end to end: the per-flow
// debug endpoint reports live drop counts, and /metrics folds them in
// once the flow is evicted.
func TestEvidenceRingTruncationAccounting(t *testing.T) {
	// MaxStalls 1 forces an evidence eviction on the second stall;
	// RingSize 2 forces event overwrites.
	m := flightMonitor(flight.Config{MaxStalls: 1, RingSize: 2})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	code, body := get(t, srv, "/debug/flows/tapo-ev/trace")
	if code != 200 {
		t.Fatalf("trace = %d", code)
	}
	var ft FlowTrace
	if err := json.Unmarshal([]byte(body), &ft); err != nil {
		t.Fatal(err)
	}
	if ft.EvidenceDrops != 1 {
		t.Errorf("evidence_drops = %d, want 1 (cap 1, two stalls)", ft.EvidenceDrops)
	}
	if ft.EventDrops == 0 {
		t.Errorf("event_drops = 0, want >0 with a 2-slot ring")
	}
	if len(ft.Evidences) != 1 || ft.Evidences[0].Ref.Stall != 1 {
		t.Errorf("retained evidence = %+v, want only stall 1", ft.Evidences)
	}

	// Before eviction the flight counters haven't settled.
	if _, body := get(t, srv, "/metrics"); !strings.Contains(body, `tapod_flight_drops_total{kind="evidence"} 0`) {
		t.Errorf("flight drops settled before eviction:\n%s", grepLines(body, "tapod_flight"))
	}

	m.Start()
	m.Close() // evicts the flow (reason shutdown), folding drops in

	_, body = get(t, srv, "/metrics")
	for _, want := range []string{
		`tapod_flight_drops_total{kind="evidence"} 1`,
		`tapod_shard_ring_drops_total{shard="0"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q after eviction:\n%s", want, grepLines(body, "tapod_flight|tapod_shard"))
		}
	}
	if !strings.Contains(body, `tapod_flight_drops_total{kind="event"}`) ||
		strings.Contains(body, `tapod_flight_drops_total{kind="event"} 0`) {
		t.Errorf("event drops not folded in:\n%s", grepLines(body, "tapod_flight"))
	}
}

// Runtime self-observability gauges must be part of every scrape.
func TestMetricsRuntimeGauges(t *testing.T) {
	m := flightMonitor(flight.Config{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	_, body := get(t, srv, "/metrics")
	for _, want := range []string{
		"tapod_goroutines ",
		"tapod_heap_alloc_bytes ",
		"tapod_gc_pause_seconds_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing runtime gauge %q", want)
		}
	}
}

// grepLines filters body to lines matching any |-separated substring,
// keeping failure output readable.
func grepLines(body, pats string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		for _, p := range strings.Split(pats, "|") {
			if strings.Contains(line, p) {
				out = append(out, line)
				break
			}
		}
	}
	return strings.Join(out, "\n")
}

// TestHandlerHeaders audits every GET endpoint for the content-type
// and cache-control contract the fleet head keeps: charset on every
// text body, no-store everywhere.
func TestHandlerHeaders(t *testing.T) {
	m := flightMonitor(flight.Config{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	for _, tc := range []struct {
		path        string
		contentType string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/healthz", "text/plain; charset=utf-8"},
		{"/flows", "application/json; charset=utf-8"},
		{"/flows/tapo-ev", "application/json; charset=utf-8"},
		{"/debug/flows/tapo-ev/trace", "application/json; charset=utf-8"},
		{"/stalls", "application/json; charset=utf-8"},
		{"/config", "application/json; charset=utf-8"},
	} {
		resp, err := srv.Client().Get(srv.URL + tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.contentType {
			t.Errorf("%s: Content-Type = %q, want %q", tc.path, got, tc.contentType)
		}
		if got := resp.Header.Get("Cache-Control"); got != "no-store" {
			t.Errorf("%s: Cache-Control = %q, want no-store", tc.path, got)
		}
	}
}
