// Command tapobench measures tcpstall's production path end to end:
// a seeded, headers-only capture replayed unpaced through
// trace.ImportPcapRecords, fleet.Member.IngestBatch, the live monitor
// and loopback pushes to a fleet head, the way
// `tapod -pcap … -speed 0 -head …` runs it. With -trace 1 it instead
// times each layer from outside and replays the same flows through
// core, flight and triage in isolation. See README.md for the
// workloads, the metrics and what each layer's metrics should move.
//
// Usage (from the root of the checkout):
//
//	bash tapobench/run.sh --workload cloud-storage --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	wl := flag.String("workload", "", "workload to run: cloud-storage, healthy-mix or web-search")
	seed := flag.Int64("seed", 1, "seed the workload is generated from")
	seconds := flag.Float64("seconds", 15, "how long to measure")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for the generated capture")
	flag.Parse()

	s, ok := specByName(*wl)
	if !ok || (*traceMode != 0 && *traceMode != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "tapobench: need -workload cloud-storage|healthy-mix|web-search, -trace 0|1 and -seconds > 0")
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(s, *seed, time.Duration(*seconds*float64(time.Second)), *traceMode == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapobench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// minReplays is the fewest measured replays a run makes, however
// short its time budget.
const minReplays = 3

// extraSetups is how many set-ups a run times on their own, besides
// the one each replay makes: a set-up takes about a millisecond, so
// its median needs more samples than the replays give.
const extraSetups = 30

// run builds the workload's capture and reference, then measures for
// budget.
func run(s spec, seed int64, budget time.Duration, traced bool, workdir string) (*result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(workdir, fmt.Sprintf("%s-%d-%d.pcap", s.name, seed, os.Getpid()))
	defer os.Remove(path)

	t := time.Now()
	generated, err := buildCapture(s, seed, path)
	if err != nil {
		return nil, err
	}
	flows, err := importFlows(path)
	if err != nil {
		return nil, err
	}
	ref := newReference(flows)
	if ref.records != generated {
		return nil, fmt.Errorf("capture holds %d records, %d were generated", ref.records, generated)
	}
	logf("%s seed %d: %d records in %d flows, prepared in %v", s.name, seed, ref.records, len(flows), time.Since(t).Round(time.Millisecond))
	flows = nil // not retained while the end-to-end replays run

	if traced {
		return runTraced(s, path, ref, budget)
	}
	return runEndToEnd(s, path, ref, budget)
}

// runEndToEnd replays the capture untraced until the budget is spent.
// The first replay warms the process up and counts only toward set-up
// time and correctness.
func runEndToEnd(s spec, path string, ref *reference, budget time.Duration) (*result, error) {
	deadline := time.Now().Add(budget)
	res := &result{Correct: true}
	var measured []replay
	var setups []float64
	for warm := true; warm || len(measured) < minReplays || time.Now().Before(deadline); warm = false {
		r, err := runReplay(s, path, ref, false)
		if err != nil {
			return nil, err
		}
		res.tally(r)
		setups = append(setups, r.setup.Seconds())
		if !warm {
			measured = append(measured, r)
		}
	}
	extra, err := timeSetups(s, extraSetups)
	if err != nil {
		return nil, err
	}
	setups = append(setups, extra...)
	// Medians over the replays: on a machine shared with other tenants
	// the speed of a replay drifts by tens of percent within seconds,
	// and the median of many replays damps that.
	perRecord := func(f func(r replay) float64) float64 {
		return medianOf(measured, func(r replay) float64 { return f(r) / float64(r.records) })
	}
	vals := map[string]float64{
		"records_per_s":          medianOf(measured, func(r replay) float64 { return float64(r.records) / r.wall.Seconds() }),
		"cpu_ns_per_record":      perRecord(func(r replay) float64 { return float64(r.cpu) }),
		"allocs_per_record":      perRecord(func(r replay) float64 { return float64(r.allocs) }),
		"alloc_bytes_per_record": perRecord(func(r replay) float64 { return float64(r.allocBytes) }),
		"peak_heap_mb":           medianOf(measured, func(r replay) float64 { return float64(r.peakHeap) / 1e6 }),
		"setup_s":                median(setups),
		"ok_record_share":        1 - float64(res.Failed)/float64(res.Attempted),
	}
	rates := make([]string, len(measured))
	for i, r := range measured {
		rates[i] = fmt.Sprintf("%.0f/%.0f/%.1f", float64(r.records)/r.wall.Seconds(), float64(r.cpu)/float64(r.records), float64(r.peakHeap)/1e6)
	}
	logf("%d measured replays, records/s / cpu ns per record / peak heap MB: %s", len(measured), strings.Join(rates, " "))
	res.Metrics, err = render(endToEnd, vals)
	return res, err
}

// tally folds one replay's correctness into the run's result.
func (res *result) tally(r replay) {
	res.Attempted += r.records
	res.Failed += r.check.failed
	if r.check.failed > 0 || len(r.check.problems) > 0 {
		res.Correct = false
		logf("replay failed the correctness check: %s", r.check)
	}
	if r.pushErrors > 0 {
		logf("%d periodic pushes failed", r.pushErrors)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tapobench: "+format+"\n", args...)
}
