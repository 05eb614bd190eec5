// Command camovet runs the engine's project-specific invariant
// analyzers (internal/vet, DESIGN.md §14) over the module: the
// machine-checked contracts behind the engine's hand-maintained
// invariants — byte-determinism, the 0 allocs/op hot path, the
// obs.CounterID exposition registry and the fault-point catalog. It is wired into CI as a required job alongside
// go vet and staticcheck; a clean tree exits 0 with no output.
//
// Usage:
//
//	camovet ./...                 — analyze packages (patterns as for go list)
//	camovet -json ./...           — machine-readable findings (stable order,
//	                                for diffing across commits)
//	camovet -run determinism ./…  — run a comma-separated analyzer subset
//	camovet -list                 — print the suite and each contract
//
// Exit status: 0 when no findings, 1 when findings, 2 on load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"camouflage/internal/vet"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON (stable order for cross-commit diffs)")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzer suite and exit")
	dir := flag.String("C", ".", "directory to resolve package patterns in")
	flag.Parse()

	analyzers := vet.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *run != "" {
		analyzers = selectAnalyzers(analyzers, *run)
	}

	m, err := vet.Load(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "camovet: %v\n", err)
		os.Exit(2)
	}
	findings, err := vet.RunAnalyzers(m, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "camovet: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []vet.Diagnostic{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "camovet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range findings {
			fmt.Println(d)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "camovet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

func selectAnalyzers(all []*vet.Analyzer, names string) []*vet.Analyzer {
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		want[strings.TrimSpace(n)] = true
	}
	var out []*vet.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	for n := range want {
		fmt.Fprintf(os.Stderr, "camovet: unknown analyzer %q (see -list)\n", n)
		os.Exit(2)
	}
	return out
}
