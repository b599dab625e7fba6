// Command tapolint runs the repo's invariant analyzers over the given
// packages and exits nonzero when any finding survives. It is the CI
// gate behind every refactor: the per-package invariants
// (wraparound-safe sequence arithmetic, deterministic simulation,
// lock discipline, observer purity, wire-format hygiene, hot-path
// allocation budgets) and the whole-program ones (deadlock-free lock
// ordering, goroutine termination, wire-format freeze) are exactly
// the unwritten rules whose silent violation would invalidate the
// reproduction. The /metrics exporters need no analyzer: each family
// is declared once in an internal/metrics registry, and a test holds
// the registries and the README metric tables to each other.
//
// Usage:
//
//	go run ./cmd/tapolint ./...
//	go run ./cmd/tapolint -only seqsafe,detclock ./internal/core/
//	go run ./cmd/tapolint -only lockorder,goexit,wirefreeze ./...
//	go run ./cmd/tapolint -json ./...
//	go run ./cmd/tapolint -allows ./...
//	go run ./cmd/tapolint -update-wirefreeze ./...
//
// Suppress a finding with a justified directive on the same line or
// the line above: //lint:allow <analyzer> <reason>. The reason is not
// optional: -allows audits every directive in the tree and exits
// nonzero on any that carries no justification.
//
// -update-wirefreeze regenerates the committed wire-surface snapshot
// (internal/lint/testdata/wirefreeze/wire.json) after an intentional
// protocol change; bump fleet.WireVersion in the same commit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tcpstall/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	allows := flag.Bool("allows", false, "audit //lint:allow directives; exit nonzero on reasonless ones")
	updateWF := flag.Bool("update-wirefreeze", false, "regenerate the wire-surface snapshot instead of checking it")
	flag.Parse()

	if *list {
		listAnalyzers(os.Stdout)
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tapolint: %v\n", err)
		os.Exit(2)
	}
	if *updateWF {
		lint.WirefreezeUpdate = true
		if *only == "" {
			analyzers = []*lint.Analyzer{lint.Wirefreeze}
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tapolint: %v\n", err)
		os.Exit(2)
	}

	if *allows {
		if bad := renderAllows(os.Stdout, lint.Allows(pkgs)); bad > 0 {
			fmt.Fprintf(os.Stderr, "tapolint: %d lint:allow directive(s) without a reason\n", bad)
			os.Exit(1)
		}
		return
	}

	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tapolint: %v\n", err)
		os.Exit(2)
	}
	if *updateWF {
		fmt.Fprintf(os.Stderr, "tapolint: wrote wirefreeze snapshot\n")
	}
	if *jsonOut {
		renderJSON(os.Stdout, diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tapolint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// listAnalyzers renders the -list table: one analyzer per line,
// registration order, name column wide enough for the longest.
func listAnalyzers(w io.Writer) {
	width := 0
	for _, a := range lint.Analyzers {
		if len(a.Name) > width {
			width = len(a.Name)
		}
	}
	for _, a := range lint.Analyzers {
		fmt.Fprintf(w, "%-*s %s\n", width, a.Name, a.Doc)
	}
}

// selectAnalyzers resolves a -only spec, or all analyzers for "".
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return lint.Analyzers, nil
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a := lint.ByName(strings.TrimSpace(name))
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// jsonFinding is the -json wire shape; stable field names so CI job
// summaries can be generated from it.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// renderJSON writes the findings as a JSON array ([] when clean).
func renderJSON(w io.Writer, diags []lint.Diagnostic) {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// renderAllows prints every escape hatch in the tree with its
// justification and returns how many carry none.
func renderAllows(w io.Writer, allows []lint.Allow) (bad int) {
	for _, a := range allows {
		reason := a.Reason
		if reason == "" {
			reason = "(NO REASON)"
			bad++
		}
		fmt.Fprintf(w, "%s: %s: %s\n", a.Pos, a.Analyzer, reason)
	}
	fmt.Fprintf(w, "%d directive(s), %d without a reason\n", len(allows), bad)
	return bad
}
