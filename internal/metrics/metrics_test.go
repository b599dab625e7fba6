package metrics

import (
	"fmt"
	"strings"
	"testing"

	"tcpstall/internal/stats"
)

// mustPanic runs fn and fails unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("no panic, want one containing %q", want)
			return
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one containing %q", msg, want)
		}
	}()
	fn()
}

// TestDeclareRejects: every malformed declaration panics at init, so
// an exporter with a bad family cannot start.
func TestDeclareRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
		decl func(r *Registry)
	}{
		{"illegal family name", "invalid family name", func(r *Registry) {
			r.Gauge("tapod_mreg-bad", "Bad name.")
		}},
		{"family name starting with a digit", "invalid family name", func(r *Registry) {
			r.Counter("9tapod_total", "Bad name.")
		}},
		{"illegal label name", "invalid label name", func(r *Registry) {
			r.Counter("tapod_drops_total", "Drops.", "bad-label")
		}},
		{"reserved label name", "invalid label name", func(r *Registry) {
			r.Counter("tapod_drops_total", "Drops.", "__name__")
		}},
		{"repeated label", "repeats label", func(r *Registry) {
			r.Counter("tapod_drops_total", "Drops.", "reason", "reason")
		}},
		{"family without help", "no help text", func(r *Registry) {
			r.Counter("tapod_orphan_total", " ")
		}},
		{"duplicate family", "declared twice", func(r *Registry) {
			r.Gauge("tapod_flows_active", "Active flows.")
			r.Counter("tapod_flows_active", "Declared again.")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mustPanic(t, tc.want, func() { tc.decl(new(Registry)) })
		})
	}
}

// TestPageRejectsMisuse: a sample that cannot belong to the family it
// names panics instead of rendering a broken scrape.
func TestPageRejectsMisuse(t *testing.T) {
	var r, other Registry
	c := r.Counter("a_total", "A.", "reason")
	h := r.Histogram("a_ms", "A latency.")
	foreign := other.Gauge("b", "B.")
	p := r.NewPage()
	mustPanic(t, "not in this page's registry", func() { p.Uint(foreign, 1) })
	mustPanic(t, "0 label values for 1 labels", func() { p.Uint(c, 1) })
	mustPanic(t, "2 label values for 1 labels", func() { p.Float(c, 1, "x", "y") })
	mustPanic(t, "wrong sample kind for histogram", func() { p.Uint(h, 1) })
	mustPanic(t, "wrong sample kind for counter", func() { p.Histogram(c, stats.HistogramState{}) })
	mustPanic(t, "wrong sample kind for counter", func() { p.Summary(c, 0) })
}

// TestWriteTo: families come out in declaration order whatever order
// the samples were added in, each family's samples sit together under
// its header, and a family without samples still gets HELP and TYPE.
func TestWriteTo(t *testing.T) {
	var r Registry
	up := r.Gauge("x_up", "Up.")
	r.Counter("x_empty_total", "Never sampled.", "reason")
	drops := r.Counter("x_drops_total", "Drops, by reason.", "reason")
	secs := r.Counter("x_seconds_total", `Seconds \ with a
newline.`)
	p := r.NewPage()
	p.Uint(drops, 2, "b")
	tenth := 0.1
	p.Float(secs, tenth+0.2)
	p.Uint(up, 1)
	p.Uint(drops, 1234567, "a")
	p.UintMap(drops, map[string]uint64{"d": 4, "c": 3})
	var b strings.Builder
	p.WriteTo(&b)
	want := `# HELP x_up Up.
# TYPE x_up gauge
x_up 1
# HELP x_empty_total Never sampled.
# TYPE x_empty_total counter
# HELP x_drops_total Drops, by reason.
# TYPE x_drops_total counter
x_drops_total{reason="b"} 2
x_drops_total{reason="a"} 1234567
x_drops_total{reason="c"} 3
x_drops_total{reason="d"} 4
# HELP x_seconds_total Seconds \\ with a\nnewline.
# TYPE x_seconds_total counter
x_seconds_total 0.30000000000000004
`
	if got := b.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramAndSummary: buckets are cumulative, +Inf and _count
// both equal the total, and an empty wire state renders as zeros.
func TestHistogramAndSummary(t *testing.T) {
	var r Registry
	h := r.Histogram("x_ms", "Latency.")
	s := r.Summary("x_merge_ms", "Merge latency.")
	p := r.NewPage()
	p.Histogram(h, stats.HistogramState{Bounds: []float64{0.5, 100, 1e6}, Counts: []uint64{1, 0, 2, 3}, Sum: 1.5e6})
	p.Summary(s, 7, Quantile{0.5, 0.125}, Quantile{0.99, 2})
	var b strings.Builder
	p.WriteTo(&b)
	want := `# HELP x_ms Latency.
# TYPE x_ms histogram
x_ms_bucket{le="0.5"} 1
x_ms_bucket{le="100"} 1
x_ms_bucket{le="1e+06"} 3
x_ms_bucket{le="+Inf"} 6
x_ms_sum 1.5e+06
x_ms_count 6
# HELP x_merge_ms Merge latency.
# TYPE x_merge_ms summary
x_merge_ms{quantile="0.5"} 0.125
x_merge_ms{quantile="0.99"} 2
x_merge_ms_count 7
`
	if got := b.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}

	p = r.NewPage()
	p.Histogram(h, stats.HistogramState{})
	b.Reset()
	p.WriteTo(&b)
	if !strings.Contains(b.String(), "x_ms_bucket{le=\"+Inf\"} 0\nx_ms_sum 0\nx_ms_count 0\n") {
		t.Errorf("empty histogram state:\n%s", b.String())
	}
}

// TestLabelValueEscaping: label values take only the three escapes
// the exposition format defines; invalid UTF-8 becomes U+FFFD; and
// every printable ASCII value renders exactly as Go's %q did, so the
// exporters' scrapes stay byte-identical for ordinary labels.
func TestLabelValueEscaping(t *testing.T) {
	for in, want := range map[string]string{
		"a\tb\xff":    "a\tb\uFFFD",
		`quo"te\back`: `quo\"te\\back`,
		"two\nlines":  `two\nlines`,
		"web-search":  "web-search",
		"naïve ☃":     "naïve ☃",
	} {
		if got := escapeLabelValue(in); got != want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
	var ascii strings.Builder
	for c := byte(' '); c <= '~'; c++ {
		ascii.WriteByte(c)
	}
	if got, want := `"`+escapeLabelValue(ascii.String())+`"`, fmt.Sprintf("%q", ascii.String()); got != want {
		t.Errorf("printable ASCII renders as %s, %%q gave %s", got, want)
	}
}
