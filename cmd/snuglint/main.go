// Command snuglint runs lint.Check (internal/lint) over this module. It
// machine-checks, in every package of module snug, the invariants the
// golden digests only sample: no map-iteration-order dependence
// (maporder), no wall-clock reads (wallclock), identity-derived RNG seeds
// (seeddiscipline), and live //snug:allow directives.
//
//	snuglint [packages]                 defaults to ./...
//
// It needs only a go toolchain on PATH. Exit status is 0 when clean, 2
// when there are findings, 1 on errors. See DESIGN.md §"Statically-checked
// invariants" for the rules and the //snug:allow grammar.
package main

import (
	"flag"
	"fmt"
	"os"

	"snug/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: snuglint [packages]\n")
	}
	flag.Parse()
	diags, err := lint.Main(os.Stderr, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "snuglint: %v\n", err)
		os.Exit(1)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "snuglint: %d finding(s)\n", len(diags))
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "snuglint: clean")
}
