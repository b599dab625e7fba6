package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tcpstall/internal/core"
	"tcpstall/internal/fleet"
	"tcpstall/internal/flight"
	"tcpstall/internal/live"
	"tcpstall/internal/sim"
	"tcpstall/internal/trace"
	"tcpstall/internal/triage"
)

const (
	// batchSize is the number of records handed to Member.IngestBatch
	// at a time.
	batchSize = 512
	// pushInterval is the member's periodic push interval. tapod's
	// default is 5s; a replay lasts about a second, so the benchmark
	// pushes every 100ms to exercise periodic pushes while records
	// flow.
	pushInterval = 100 * time.Millisecond
	// serverPort is the server side of every generated connection.
	serverPort = 80
)

// session is one instance of the production path tapod builds for
// `tapod -pcap … -speed 0 -head …`: a fleet head served over loopback
// HTTP, a live monitor with triage and flight constructed (fleet mode
// always constructs both) and enabled as tapod enables them for the
// workload, and a fleet member registered with the head.
type session struct {
	head     *fleet.Head
	srv      *http.Server
	served   chan struct{}
	tr       *http.Transport
	mon      *live.Monitor
	member   *fleet.Member
	verdicts *verdictLog
}

func newSession(s spec, verdicts *verdictLog, onStall func(core.LiveStall)) (*session, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("head listener: %w", err)
	}
	ss := &session{
		head:     fleet.NewHead(fleet.HeadConfig{}),
		served:   make(chan struct{}),
		tr:       &http.Transport{},
		verdicts: verdicts,
	}
	ss.srv = &http.Server{Handler: fleet.NewHandler(ss.head)}
	go func() {
		defer close(ss.served)
		_ = ss.srv.Serve(ln) // returns ErrServerClosed at shutdown
	}()
	ss.mon = live.New(live.Config{
		Analysis: analysisConfig(),
		Flight:   &flight.Config{},
		Triage:   &triage.Config{},
		OnFlow:   ss.verdicts.onFlow,
		OnStall:  onStall,
	})
	ss.mon.SetTriageEnabled(s.triage)
	ss.mon.SetFlightEnabled(true)
	ss.mon.Start()
	ss.member, err = fleet.NewMember(fleet.MemberConfig{
		ID:           "tapobench",
		Head:         "http://" + ln.Addr().String(),
		Monitor:      ss.mon,
		PushInterval: pushInterval,
		Client:       &http.Client{Transport: ss.tr, Timeout: 10 * time.Second},
	})
	if err == nil {
		err = ss.member.Register(context.Background())
	}
	if err != nil {
		ss.shutdown()
		return nil, err
	}
	return ss, nil
}

// shutdown stops everything the session started and waits for it.
func (ss *session) shutdown() {
	ss.mon.Close()
	ss.head.Close()
	_ = ss.srv.Close() // nothing to report: the replay is over
	<-ss.served
	ss.tr.CloseIdleConnections()
}

// pushLoop is Member.Run's push loop, run by the benchmark so that
// each push can be timed from outside. It returns when stop closes,
// after any push in flight has finished.
func (ss *session) pushLoop(stop <-chan struct{}, tsp *spans, errs *atomic.Int64) {
	tick := time.NewTicker(pushInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			t := time.Now()
			err := ss.member.Push(context.Background())
			if tsp != nil {
				tsp.pushes = append(tsp.pushes, time.Since(t))
			}
			if err != nil {
				errs.Add(1)
				fmt.Fprintln(os.Stderr, "tapobench: periodic push:", err)
			}
		}
	}
}

// replay is one run of the capture through the production path.
type replay struct {
	setup      time.Duration
	wall       time.Duration
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	// peakHeap is the peak live heap seen at a GC during the window,
	// above the live heap left after set-up.
	peakHeap   uint64
	records    int
	pushErrors int64
	// totals are the head's totals after the final push; verdicts the
	// per-flow fingerprints the monitor settled. check compares both
	// with the reference.
	totals   fleet.Totals
	verdicts map[string]uint64
	check    checkResult
	// spans is nil for untraced replays.
	spans *spans
}

// spans holds what a traced replay times from outside the program.
type spans struct {
	// importCall is the ImportPcapRecords call; ingestInImport the
	// part of it spent inside Member.IngestBatch (the callback's only
	// non-trivial work). ingest is all Member.IngestBatch time,
	// including the final partial batch after the import returns.
	importCall     time.Duration
	ingestInImport time.Duration
	ingest         time.Duration
	// close is live.Monitor.Close: draining the rings and flushing
	// every live flow. finalPush stops the periodic pushes (waiting
	// for one in flight) and sends Member.Close's final push.
	close     time.Duration
	finalPush time.Duration
	// pushes are the periodic Member.Push calls. Written only by the
	// push loop, read after it has exited.
	pushes []time.Duration

	batches []batchMark

	mu sync.Mutex
	// stalls records each OnStall call. guarded by mu
	stalls []stallMark

	snap live.Snapshot
	head fleet.HeadStats
}

// batchMark is one IngestBatch call: when it was submitted and the
// capture time of its last record.
type batchMark struct {
	submit time.Time
	lastT  sim.Time
}

// stallMark is one OnStall call: when it ran and the capture time of
// the record that closed the stall.
type stallMark struct {
	at  time.Time
	end sim.Time
}

func (sp *spans) onStall(ls core.LiveStall) {
	now := time.Now()
	sp.mu.Lock()
	sp.stalls = append(sp.stalls, stallMark{now, ls.Stall.End})
	sp.mu.Unlock()
}

// verdictLagsMS returns, per stall, the OnStall time minus the submit
// time of the batch holding the record that closed it. Capture times
// are non-decreasing in the capture, so that batch is the first whose
// last record is not earlier than the stall's end.
func (sp *spans) verdictLagsMS() []float64 {
	out := make([]float64, 0, len(sp.stalls))
	for _, st := range sp.stalls {
		i := sort.Search(len(sp.batches), func(i int) bool { return sp.batches[i].lastT >= st.end })
		if i == len(sp.batches) {
			continue
		}
		out = append(out, ms(st.at.Sub(sp.batches[i].submit)))
	}
	return out
}

// unattributed is the share of producer wall time the ledger does not
// explain: 1 minus import self time, ingest wait, close and final push
// over the window.
func (sp *spans) unattributed(wall time.Duration) float64 {
	self := sp.importCall - sp.ingestInImport
	return 1 - float64(self+sp.ingest+sp.close+sp.finalPush)/float64(wall)
}

// runReplay replays the capture at path once. The window runs from
// opening the capture to the head's totals covering the final push;
// set-up (head, monitor, member, registration) is timed separately,
// and generation and the reference are not timed at all.
func runReplay(s spec, path string, ref *reference, traced bool) (replay, error) {
	var r replay
	var sp *spans
	var onStall func(core.LiveStall)
	if traced {
		sp = &spans{batches: make([]batchMark, 0, ref.records/batchSize+1)}
		onStall = sp.onStall
	}
	verdicts := newVerdictLog(len(ref.verdicts))
	settleHeap()
	t0 := time.Now()
	ss, err := newSession(s, verdicts, onStall)
	r.setup = time.Since(t0)
	if err != nil {
		return r, fmt.Errorf("set-up: %w", err)
	}
	defer ss.shutdown()

	batch := make([]trace.RecordEvent, 0, batchSize)
	ingest := ss.member.IngestBatch
	if traced {
		ingest = func(evs []trace.RecordEvent) {
			t := time.Now()
			ss.member.IngestBatch(evs)
			sp.ingest += time.Since(t)
			sp.batches = append(sp.batches, batchMark{t, evs[len(evs)-1].Rec.T})
		}
	}
	var pushErrs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopPushes := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopPushes()

	runtime.GC()
	base := liveHeap()
	peak := watchPeak()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()

	wg.Add(1)
	go func() {
		defer wg.Done()
		ss.pushLoop(stop, sp, &pushErrs)
	}()
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	tImport := time.Now()
	err = trace.ImportPcapRecords(f, trace.ImportConfig{ServerPort: serverPort}, func(ev trace.RecordEvent) error {
		batch = append(batch, ev)
		if len(batch) == batchSize {
			ingest(batch)
			batch = batch[:0]
		}
		r.records++
		return nil
	})
	if traced {
		sp.importCall = time.Since(tImport)
		sp.ingestInImport = sp.ingest
	}
	f.Close()
	if err != nil {
		return r, fmt.Errorf("import: %w", err)
	}
	if len(batch) > 0 {
		ingest(batch)
	}
	tClose := time.Now()
	ss.mon.Close()
	tFinal := time.Now()
	stopPushes()
	err = ss.member.Close(context.Background())
	tDone := time.Now()
	if err != nil {
		return r, fmt.Errorf("final push: %w", err)
	}
	totals, err := ss.head.Totals()
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if p := peak.stop(); p > base {
		r.peakHeap = p - base
	}
	if err != nil {
		return r, fmt.Errorf("head totals: %w", err)
	}
	r.allocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.pushErrors = pushErrs.Load()

	// The shard goroutines have exited (Close waited for them), so the
	// verdict log is complete.
	ss.verdicts.mu.Lock()
	r.totals, r.verdicts = totals, ss.verdicts.got
	ss.verdicts.mu.Unlock()
	r.check = ref.check(r.totals, r.verdicts)
	if traced {
		sp.close = tFinal.Sub(tClose)
		sp.finalPush = tDone.Sub(tFinal)
		sp.snap = ss.mon.Snapshot()
		sp.head = ss.head.Stats()
		r.spans = sp
	}
	return r, nil
}

// settleHeap collects garbage and returns free memory to the OS, so
// that every set-up starts from the same state: whatever it allocates
// comes from fresh pages, as in a newly started daemon, instead of from
// whatever free spans the runtime happens to hold.
func settleHeap() { debug.FreeOSMemory() }

// timeSetups times n set-ups of a session, each from a fresh GC, and
// shuts each down again.
func timeSetups(s spec, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		verdicts := newVerdictLog(0)
		settleHeap()
		t := time.Now()
		ss, err := newSession(s, verdicts, nil)
		d := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ss.shutdown()
		out = append(out, d.Seconds())
	}
	return out, nil
}

// cpuTime is the process's user plus system CPU time: every goroutine,
// the garbage collector and the loopback HTTP traffic on both ends.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap occupied by objects the last GC found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// peakWatch records the largest live heap seen at the end of any GC
// cycle, by re-arming a finalizer on a sentinel object each cycle.
type peakWatch struct {
	stopped atomic.Bool
	peak    atomic.Uint64
}

type gcSentinel struct {
	w *peakWatch
	_ [16]byte // large enough to stay out of the tiny allocator
}

func watchPeak() *peakWatch {
	w := &peakWatch{}
	w.arm()
	return w
}

func (w *peakWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{w: w}, func(s *gcSentinel) {
		if s.w.stopped.Load() {
			return
		}
		s.w.observe(liveHeap())
		s.w.arm()
	})
}

func (w *peakWatch) observe(b uint64) {
	for {
		p := w.peak.Load()
		if b <= p || w.peak.CompareAndSwap(p, b) {
			return
		}
	}
}

// stop ends the watch and returns the peak, including the live heap
// as of the most recent GC.
func (w *peakWatch) stop() uint64 {
	w.stopped.Store(true)
	w.observe(liveHeap())
	return w.peak.Load()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
