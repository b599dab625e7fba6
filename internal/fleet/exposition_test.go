package fleet

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"tcpstall/internal/flight"
	"tcpstall/internal/live"
	"tcpstall/internal/triage"
	"tcpstall/internal/workload"
)

var (
	expoNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	expoSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	// expoLabelRe consumes one name="value" pair; the value may use
	// only the \\, \" and \n escapes.
	expoLabelRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"(?:,|$)`)
	expoTypes   = map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
)

// checkExposition parses a Prometheus text exposition (version 0.0.4)
// and returns every violation it finds. Beyond syntax (valid UTF-8,
// names, label escapes, values) it checks the grouping the exporters
// promise: each family opens with HELP then TYPE, is declared once,
// and owns exactly the samples that follow it; histogram buckets
// rise with le and are non-decreasing, ending at a +Inf bucket equal
// to _count.
func checkExposition(text string) []string {
	var problems []string
	lineNo := 0
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf("line %d: ", lineNo)+fmt.Sprintf(format, args...))
	}
	if !utf8.ValidString(text) {
		problems = append(problems, "exposition is not valid UTF-8")
	}
	declared := map[string]bool{}
	var help, family, typ string // pending HELP; current family and its TYPE
	var lastLE float64
	var lastBucket, infBucket uint64
	haveInf := false
	endFamily := func() {
		if typ == "histogram" && !haveInf {
			bad("histogram %s has no +Inf bucket", family)
		}
		family, typ, haveInf, lastLE, lastBucket = "", "", false, math.Inf(-1), 0
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		lineNo++
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if help != "" {
				bad("HELP for %s has no TYPE", help)
			}
			endFamily()
			if !expoNameRe.MatchString(name) {
				bad("invalid family name %q", name)
			}
			help = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, t, _ := strings.Cut(rest, " ")
			if help != name {
				bad("TYPE for %s without a preceding HELP", name)
				endFamily()
			}
			help = ""
			if declared[name] {
				bad("family %s declared twice", name)
			}
			if !expoTypes[t] {
				bad("family %s has invalid type %q", name, t)
			}
			declared[name] = true
			family, typ = name, t
			continue
		}
		m := expoSampleRe.FindStringSubmatch(line)
		if m == nil {
			bad("neither HELP, TYPE nor a sample: %q", line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		if help != "" {
			bad("HELP for %s has no TYPE", help)
			help = ""
		}
		le := ""
		for rest := labels; rest != ""; {
			lm := expoLabelRe.FindStringSubmatch(rest)
			if lm == nil {
				bad("malformed label set {%s}", labels)
				break
			}
			if lm[1] == "le" {
				le = lm[2]
			}
			rest = rest[len(lm[0]):]
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			bad("sample %s has value %q", name, value)
		}
		suffix, owned := strings.CutPrefix(name, family)
		switch {
		case family == "" || !owned:
			if declared[sampleBase(name)] {
				bad("sample %s outside its family's block (under %q)", name, family)
			} else {
				bad("sample %s belongs to no declared family", name)
			}
		case typ == "histogram" && suffix == "_bucket":
			ub, err := strconv.ParseFloat(le, 64)
			if err != nil || ub <= lastLE || uint64(v) < lastBucket {
				bad("histogram bucket le=%q %v out of order", le, value)
			}
			lastLE, lastBucket = ub, uint64(v)
			if math.IsInf(ub, 1) {
				haveInf, infBucket = true, uint64(v)
			}
		case typ == "histogram" && suffix == "_count":
			if !haveInf || uint64(v) != infBucket {
				bad("histogram %s _count %s does not equal its +Inf bucket", family, value)
			}
		case typ == "histogram" && suffix == "_sum":
		case typ == "summary" && (suffix == "" || suffix == "_sum" || suffix == "_count"):
		case suffix != "" || typ == "histogram":
			bad("sample %s outside its family's block (under %q)", name, family)
		}
	}
	if help != "" {
		bad("HELP for %s has no TYPE", help)
	}
	endFamily()
	return problems
}

// sampleBase strips a histogram or summary sample suffix.
func sampleBase(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			return base
		}
	}
	return name
}

// scrape GETs /metrics from a test server.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// hostileService is a service name a member can push: a tab, which
// Go's %q escapes as \t (not an exposition escape), and a byte that is
// not UTF-8.
const hostileService = "a\tb\xff"

// TestExpositionValid parses both planes' real scrapes: tapod's from a
// member monitor that saw triage promotions, evictions, retransmission
// sub-causes, flight-recorder drops and a hostile service name, and
// the head's after that member's real pushes.
func TestExpositionValid(t *testing.T) {
	ctx := context.Background()
	head := NewHead(HeadConfig{})
	headSrv := httptest.NewServer(NewHandler(head))
	defer headSrv.Close()
	defer head.Close()

	mon := live.New(live.Config{
		Shards:   2,
		RingSize: 1 << 14,
		Triage:   &triage.Config{},
		Flight:   &flight.Config{RingSize: 4, MaxStalls: 1},
	})
	mon.Start()
	tapodSrv := httptest.NewServer(live.NewHandler(mon))
	defer tapodSrv.Close()
	mb, err := NewMember(MemberConfig{ID: "edge-1", Head: headSrv.URL, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.Register(ctx); err != nil {
		t.Fatal(err)
	}
	evs := memberEvents(workload.WebSearch(), 7, 40)
	hostile := memberEvents(workload.WebSearch(), 8, 4)
	for i := range hostile {
		hostile[i].FlowID = "hostile-" + hostile[i].FlowID
		hostile[i].Service = hostileService
	}
	feedChunks(t, ctx, mb, append(evs, hostile...))
	if err := mb.Close(ctx); err != nil {
		t.Fatal(err)
	}

	tapodBody := scrape(t, tapodSrv.URL)
	headBody := scrape(t, headSrv.URL)
	for plane, body := range map[string]string{"tapod": tapodBody, "head": headBody} {
		for _, p := range checkExposition(body) {
			t.Errorf("%s /metrics: %s", plane, p)
		}
	}
	// The scrapes must actually carry the label paths under test.
	for _, want := range []string{
		`tapod_triage_promotions_total{symptom="`,
		`tapod_flows_evicted_total{reason="`,
		`tapod_retrans_stalls_total{subcause="`,
		"tapod_stalls_total{service=\"a\tb\uFFFD\",",
	} {
		if !strings.Contains(tapodBody, want) {
			t.Errorf("tapod /metrics lacks %q", want)
		}
	}
	if regexp.MustCompile(`tapod_flight_drops_total\{kind="event"\} 0\n`).MatchString(tapodBody) {
		t.Error("tapod /metrics shows no flight-recorder event drops")
	}
	for _, want := range []string{
		`fleet_retrans_stalls_total{subcause="`,
		"fleet_stalls_total{service=\"a\tb\uFFFD\",",
	} {
		if !strings.Contains(headBody, want) {
			t.Errorf("head /metrics lacks %q", want)
		}
	}
}

// TestHeadMetricsHostileLabels is the regression test for label-value
// escaping on the head: one push carrying a service name with a tab
// and a non-UTF-8 byte must not make the head's /metrics unparseable.
func TestHeadMetricsHostileLabels(t *testing.T) {
	head := NewHead(HeadConfig{})
	srv := httptest.NewServer(NewHandler(head))
	defer srv.Close()
	defer head.Close()

	reg, err := head.Register(RegisterRequest{Version: WireVersion, MemberID: "m"})
	if err != nil {
		t.Fatal(err)
	}
	snap := miniSnap("m", reg.Epoch, 1, 10)
	snap.Stalls = []StallCounter{{Service: hostileService, Cause: "rto", Count: 1, Seconds: 0.5}}
	// JSON turns the non-UTF-8 byte into U+FFFD in transit; the tab
	// arrives intact.
	if resp := postPush(t, srv.URL, marshal(t, snap)); !resp.OK {
		t.Fatalf("push: %+v", resp)
	}
	got := scrape(t, srv.URL)
	for _, p := range checkExposition(got) {
		t.Error(p)
	}
	if want := "fleet_stalls_total{service=\"a\tb\uFFFD\",cause=\"rto\"} 1\n"; !strings.Contains(got, want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestCheckExpositionSeeded shows checkExposition failing on each
// drift it exists to catch, and passing a clean page.
func TestCheckExpositionSeeded(t *testing.T) {
	const clean = "# HELP a_total A.\n# TYPE a_total counter\na_total{reason=\"x\"} 1\n" +
		"# HELP h_ms H.\n# TYPE h_ms histogram\nh_ms_bucket{le=\"1\"} 1\nh_ms_bucket{le=\"+Inf\"} 2\nh_ms_sum 3\nh_ms_count 2\n" +
		"# HELP s_ms S.\n# TYPE s_ms summary\ns_ms{quantile=\"0.5\"} 1\ns_ms_count 2\n"
	if p := checkExposition(clean); len(p) != 0 {
		t.Errorf("clean page rejected: %v", p)
	}
	for _, tc := range []struct{ name, text, want string }{
		{"illegal family name", "# HELP a-b A.\n# TYPE a-b gauge\n", "invalid family name"},
		{"illegal label name", "# HELP a A.\n# TYPE a gauge\na{bad-label=\"x\"} 1\n", "malformed label set"},
		{"Go-quoted tab", "# HELP a A.\n# TYPE a gauge\na{service=\"a\\tb\"} 1\n", "malformed label set"},
		{"invalid UTF-8", "# HELP a A.\n# TYPE a gauge\na{service=\"\xff\"} 1\n", "not valid UTF-8"},
		{"duplicate family", "# HELP a A.\n# TYPE a gauge\n# HELP a A.\n# TYPE a gauge\n", "declared twice"},
		{"invalid type", "# HELP a A.\n# TYPE a gaugee\n", "invalid type"},
		{"TYPE without HELP", "# TYPE a counter\na 1\n", "without a preceding HELP"},
		{"HELP without TYPE", "# HELP a A.\na 1\n", "HELP for a has no TYPE"},
		{"undeclared sample", "# HELP a A.\n# TYPE a gauge\nghost_total 9\n", "belongs to no declared family"},
		{"sample outside its family", "# HELP a A.\n# TYPE a gauge\n# HELP b B.\n# TYPE b gauge\na 1\n", "outside its family's block"},
		{"counter with a _count sample", "# HELP a A.\n# TYPE a counter\na_count 1\n", "outside its family's block"},
		{"non-numeric value", "# HELP a A.\n# TYPE a gauge\na one\n", "has value"},
		{"decreasing bucket", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", "out of order"},
		{"+Inf not _count", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n", "does not equal its +Inf bucket"},
		{"no +Inf bucket", "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\n", "no +Inf bucket"},
	} {
		p := checkExposition(tc.text)
		if !strings.Contains(strings.Join(p, "\n"), tc.want) {
			t.Errorf("%s: got %q, want a problem containing %q", tc.name, p, tc.want)
		}
	}
}
