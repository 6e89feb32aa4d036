// Command simlint runs the repository's static-analysis suite
// (internal/analysis) over the given packages:
//
//	go run ./cmd/simlint ./...
//
// It prints one line per finding and exits non-zero when any survive their
// //simlint:allow suppressions. The eight analyzers and the invariants they
// guard are documented in the README's "Static analysis" section; -list
// prints them. -only restricts the run to a comma-separated subset.
//
// simlint is a standalone multichecker rather than a `go vet -vettool`
// because the vettool protocol needs golang.org/x/tools/go/analysis, and
// this repository builds with the standard library alone.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := analysis.All()
	if *only != "" {
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			found := false
			for _, a := range analyzers {
				if a.Name == name {
					picked = append(picked, a)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(stderr, "simlint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
		}
		analyzers = picked
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}
	pkgs, err := analysis.NewLoader(wd).Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}
	diags, err := analysis.RunPackages(analyzers, pkgs)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, analysis.FormatDiags(diags))
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
