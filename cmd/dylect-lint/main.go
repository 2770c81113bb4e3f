// Command dylect-lint runs the repository's domain-specific static-analysis
// suite (internal/analysis) over the module: time-unit hygiene, scheduling
// hazards, stats integrity, enum exhaustiveness, serving-layer context
// flow, and the interprocedural contracts — observation purity, hot-path
// allocation-freedom, and determinism over everything the simulation,
// rendering and export entry points reach (detflow).
//
// Usage:
//
//	dylect-lint [flags] [packages]
//
// Packages default to ./... relative to the current directory. Exit status
// is 0 when clean, 1 when findings are reported, 2 on usage or load errors.
//
// Findings can be suppressed at the offending line with
// //lint:ignore <analyzer> <reason> — see internal/analysis. The -ignores
// flag audits the suppressions themselves: it lists every directive and
// exits 1 if any is malformed, names an unknown analyzer, or is stale
// (the named analyzer no longer fires on the covered lines).
package main

import (
	"flag"
	"fmt"
	"os"

	"dylect/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("dylect-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as a JSON array")
		list    = fs.Bool("list", false, "list analyzers and exit")
		enable  = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable = fs.String("disable", "", "comma-separated analyzers to skip")
		dir     = fs.String("C", ".", "directory to resolve package patterns in")
		ignores = fs.Bool("ignores", false, "audit //lint:ignore suppressions: list all, fail on stale or malformed ones")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dylect-lint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintf(stderr, "dylect-lint: %v\n", err)
		return 2
	}

	prog, err := analysis.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "dylect-lint: %v\n", err)
		return 2
	}
	if *ignores {
		uses, findings := analysis.AuditIgnores(prog)
		if err := writeIgnores(stdout, uses, findings, *jsonOut); err != nil {
			fmt.Fprintf(stderr, "dylect-lint: %v\n", err)
			return 2
		}
		if len(findings) > 0 {
			return 1
		}
		return 0
	}
	findings := analysis.RunAnalyzers(prog, analyzers)
	if err := writeFindings(stdout, findings, *jsonOut); err != nil {
		fmt.Fprintf(stderr, "dylect-lint: %v\n", err)
		return 2
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
