// Package metrics declares Prometheus metric families once and renders
// them in the text exposition format (version 0.0.4), stdlib-only so
// the daemons stay dependency-free. It is the only place in the module
// that writes # HELP and # TYPE lines.
//
// An exporter declares its families in a Registry at package
// initialisation. Declaration panics on an invalid family or label
// name, an empty help text or a name declared twice, so a malformed
// exporter cannot start. At scrape time the exporter fills a Page from
// its counters and writes it: every family in declaration order, HELP
// and TYPE even when it has no samples, each family's samples together
// under its header.
package metrics

import (
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"tcpstall/internal/stats"
)

// Type is a family's Prometheus metric type.
type Type string

// The metric types a family can be declared with.
const (
	Counter   Type = "counter"
	Gauge     Type = "gauge"
	Histogram Type = "histogram"
	Summary   Type = "summary"
)

var (
	familyNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// Family is one declared metric family.
type Family struct {
	Name   string
	Help   string
	Type   Type
	Labels []string

	reg *Registry
	idx int // position in reg.fams
}

// Registry is an ordered set of families, rendered in declaration
// order. The zero value is empty and ready to use.
type Registry struct {
	fams []*Family
}

// Counter declares a counter family with the given label names.
func (r *Registry) Counter(name, help string, labels ...string) *Family {
	return r.declare(name, help, Counter, labels)
}

// Gauge declares a gauge family with the given label names.
func (r *Registry) Gauge(name, help string, labels ...string) *Family {
	return r.declare(name, help, Gauge, labels)
}

// Histogram declares an unlabelled histogram family (its samples carry
// only the le label).
func (r *Registry) Histogram(name, help string) *Family {
	return r.declare(name, help, Histogram, nil)
}

// Summary declares an unlabelled summary family (its samples carry
// only the quantile label).
func (r *Registry) Summary(name, help string) *Family {
	return r.declare(name, help, Summary, nil)
}

func (r *Registry) declare(name, help string, typ Type, labels []string) *Family {
	if !familyNameRe.MatchString(name) {
		panic("metrics: invalid family name " + strconv.Quote(name))
	}
	if strings.TrimSpace(help) == "" {
		panic("metrics: family " + name + " has no help text")
	}
	for i, l := range labels {
		if !labelNameRe.MatchString(l) || strings.HasPrefix(l, "__") {
			panic("metrics: family " + name + " has invalid label name " + strconv.Quote(l))
		}
		for _, prev := range labels[:i] {
			if prev == l {
				panic("metrics: family " + name + " repeats label " + l)
			}
		}
	}
	for _, f := range r.fams {
		if f.Name == name {
			panic("metrics: family " + name + " declared twice")
		}
	}
	f := &Family{Name: name, Help: help, Type: typ, Labels: labels, reg: r, idx: len(r.fams)}
	r.fams = append(r.fams, f)
	return f
}

// Families returns the declared families in declaration order. The
// slice is shared; callers must not modify it.
func (r *Registry) Families() []*Family { return r.fams }

// Page collects one scrape's samples for a registry. Samples may be
// added in any order; WriteTo emits them grouped by family.
type Page struct {
	reg     *Registry
	samples [][]byte // rendered sample lines, indexed by Family.idx
}

// NewPage starts an empty scrape of r.
func (r *Registry) NewPage() *Page {
	return &Page{reg: r, samples: make([][]byte, len(r.fams))}
}

// Uint adds an integer sample, one label value per declared label.
// Integers keep exact decimal formatting (no float exponent).
func (p *Page) Uint(f *Family, v uint64, labelValues ...string) {
	p.add(f, "", f.Labels, labelValues, strconv.FormatUint(v, 10), Counter, Gauge)
}

// Float adds a float sample, one label value per declared label.
func (p *Page) Float(f *Family, v float64, labelValues ...string) {
	p.add(f, "", f.Labels, labelValues, formatFloat(v), Counter, Gauge)
}

// UintMap adds one sample per key of m to a single-label family,
// in key order so scrapes are deterministic.
func (p *Page) UintMap(f *Family, m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.Uint(f, m[k], k)
	}
}

// Histogram adds a histogram's cumulative _bucket series, _sum and
// _count from its wire state.
func (p *Page) Histogram(f *Family, h stats.HistogramState) {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	var cum uint64
	for i, ub := range h.Bounds {
		cum += h.Counts[i]
		p.add(f, "_bucket", leLabel, []string{formatFloat(ub)}, strconv.FormatUint(cum, 10), Histogram)
	}
	p.add(f, "_bucket", leLabel, []string{"+Inf"}, strconv.FormatUint(total, 10), Histogram)
	p.add(f, "_sum", nil, nil, formatFloat(h.Sum), Histogram)
	p.add(f, "_count", nil, nil, strconv.FormatUint(total, 10), Histogram)
}

// Quantile is one summary quantile and its value.
type Quantile struct{ Q, V float64 }

// Summary adds a summary's quantile samples and its _count.
func (p *Page) Summary(f *Family, count uint64, quantiles ...Quantile) {
	for _, q := range quantiles {
		p.add(f, "", quantileLabel, []string{formatFloat(q.Q)}, formatFloat(q.V), Summary)
	}
	p.add(f, "_count", nil, nil, strconv.FormatUint(count, 10), Summary)
}

var (
	leLabel       = []string{"le"}
	quantileLabel = []string{"quantile"}
)

// formatFloat prints the shortest round-trip form, as Prometheus
// clients do.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// add checks that f belongs to the page's registry, has one of the
// wanted types and gets one value per label name, then appends one
// sample line to f's block.
func (p *Page) add(f *Family, suffix string, names, values []string, value string, types ...Type) {
	if f.reg != p.reg {
		panic("metrics: family " + f.Name + " is not in this page's registry")
	}
	typeOK := false
	for _, t := range types {
		typeOK = typeOK || f.Type == t
	}
	if !typeOK {
		panic("metrics: wrong sample kind for " + string(f.Type) + " family " + f.Name)
	}
	if len(values) != len(names) {
		panic("metrics: family " + f.Name + " got " + strconv.Itoa(len(values)) +
			" label values for " + strconv.Itoa(len(names)) + " labels")
	}
	b := append(p.samples[f.idx], f.Name...)
	b = append(b, suffix...)
	if len(names) > 0 {
		b = append(b, '{')
		for i, n := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, n...)
			b = append(b, `="`...)
			b = append(b, escapeLabelValue(values[i])...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = append(b, value...)
	p.samples[f.idx] = append(b, '\n')
}

// escapeLabelValue applies the exposition format's only three label
// escapes (backslash, double quote, newline) and replaces invalid
// UTF-8, which the format forbids. Every other character, tabs and
// non-ASCII included, passes through, so ordinary ASCII values render
// exactly as Go's %q would.
func escapeLabelValue(v string) string {
	return labelEscaper.Replace(strings.ToValidUTF8(v, "\uFFFD"))
}

// WriteTo writes every family of the registry in declaration order:
// HELP, TYPE, then the samples the page collected for it, if any.
func (p *Page) WriteTo(w io.Writer) (int64, error) {
	var b []byte
	for _, f := range p.reg.fams {
		b = append(b, "# HELP "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, helpEscaper.Replace(f.Help)...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, f.Type...)
		b = append(b, '\n')
		b = append(b, p.samples[f.idx]...)
	}
	n, err := w.Write(b)
	return int64(n), err
}
