package metrics_test

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"tcpstall/internal/fleet"
	"tcpstall/internal/live"
	"tcpstall/internal/metrics"
)

var (
	// docNameRe finds a backticked metric name of this module's
	// exporters anywhere in a document.
	docNameRe = regexp.MustCompile("`((?:tapod|tapoctl|fleet)_[a-zA-Z0-9_:]*)`")
	// docRowRe reads a metric-table row: | `family` | type | meaning |
	docRowRe = regexp.MustCompile("^\\| `([a-zA-Z_:][a-zA-Z0-9_:]*)` \\| ([a-z]+) \\|")
)

// checkDocs holds metric registries and documents to each other. No
// family may be registered by two registries; every family needs a
// table row whose Type column matches its declared type; and every
// backticked metric name in the documents must be registered.
func checkDocs(regs []*metrics.Registry, docs map[string]string) []string {
	var problems []string
	registered := map[string]*metrics.Family{}
	var names []string
	for _, r := range regs {
		for _, f := range r.Families() {
			if _, dup := registered[f.Name]; dup {
				problems = append(problems, fmt.Sprintf("%s is registered by more than one exporter", f.Name))
				continue
			}
			registered[f.Name] = f
			names = append(names, f.Name)
		}
	}
	files := make([]string, 0, len(docs))
	for file := range docs {
		files = append(files, file)
	}
	sort.Strings(files)
	rows := map[string]string{} // family → Type column
	for _, file := range files {
		for i, line := range strings.Split(docs[file], "\n") {
			if m := docRowRe.FindStringSubmatch(line); m != nil {
				rows[m[1]] = m[2]
			}
			for _, m := range docNameRe.FindAllStringSubmatch(line, -1) {
				if familyOf(m[1], registered) == nil {
					problems = append(problems, fmt.Sprintf("%s:%d mentions %s, which no exporter registers", file, i+1, m[1]))
				}
			}
		}
	}
	for _, name := range names {
		typ, ok := rows[name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s has no row in the metric tables", name))
		case typ != string(registered[name].Type):
			problems = append(problems, fmt.Sprintf("%s row says %s, registry declares %s", name, typ, registered[name].Type))
		}
	}
	return problems
}

// familyOf resolves a documented name to its family. A histogram's or
// summary's sample names (_bucket, _sum, _count) resolve to it too.
func familyOf(name string, registered map[string]*metrics.Family) *metrics.Family {
	if f := registered[name]; f != nil {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suffix)
		if f := registered[base]; ok && f != nil && (f.Type == metrics.Histogram || f.Type == metrics.Summary) {
			return f
		}
	}
	return nil
}

// TestMetricsRegistryMatchesDocs holds tapod's and the head's
// registries to the metric tables in README.md and DESIGN.md.
func TestMetricsRegistryMatchesDocs(t *testing.T) {
	docs := map[string]string{}
	for _, file := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile("../../" + file)
		if err != nil {
			t.Fatal(err)
		}
		docs[file] = string(b)
	}
	regs := []*metrics.Registry{&live.Metrics, &live.RuntimeMetrics, &fleet.Metrics}
	for _, p := range checkDocs(regs, docs) {
		t.Error(p)
	}
}

// TestMetricsRegistryDocsSeeded shows each drift checkDocs exists to
// catch failing on seeded input: an undocumented family, a stale row
// for a family no exporter registers, a wrong Type column and a name
// registered by two exporters. The histogram's _bucket sample name in
// prose is a false-positive guard.
func TestMetricsRegistryDocsSeeded(t *testing.T) {
	var tapod, head metrics.Registry
	tapod.Gauge("tapod_mreg_flows_active", "Active flows.")
	tapod.Counter("tapod_mreg_drops_total", "Drops, by reason.", "reason")
	tapod.Counter("tapod_mreg_secret_total", "Not in the docs.")
	tapod.Histogram("tapod_mreg_lat_ms", "Latency.")
	head.Gauge("tapod_mreg_flows_active", "Declared by the head too.")
	docs := map[string]string{"docs.md": "" +
		"| `tapod_mreg_flows_active` | gauge | active flows |\n" +
		"| `tapod_mreg_drops_total` | gauge | drops, by `reason` |\n" +
		"| `tapod_mreg_lat_ms` | histogram | latency; see `tapod_mreg_lat_ms_bucket` |\n" +
		"| `tapod_mreg_gone_total` | counter | removed exporter, stale row |\n",
	}
	got := checkDocs([]*metrics.Registry{&tapod, &head}, docs)
	want := []string{
		"tapod_mreg_flows_active is registered by more than one exporter",
		"docs.md:4 mentions tapod_mreg_gone_total, which no exporter registers",
		"tapod_mreg_drops_total row says gauge, registry declares counter",
		"tapod_mreg_secret_total has no row in the metric tables",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("checkDocs:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
