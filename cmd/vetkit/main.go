// vetkit is the repo's invariant checker: a multichecker over the five
// project-specific analyzers in internal/analysis/..., run by `make lint`
// (and therefore `make tier1`) over the whole tree. It exits non-zero on
// any finding, so an invariant regression fails the gate exactly like a
// broken test.
//
//	vetkit [-json] [-q] [packages...]
//
// With no package patterns it analyzes ./.... Each analyzer prints a
// summary line (packages and files scanned, findings) so a regression is
// attributable at a glance; -json emits the same data machine-readably for
// CI consumption; -q suppresses the summary and prints findings only.
//
// The analyzers and the contracts they encode:
//
//	hotpath         //vetkit:hotpath functions are allocation-free
//	walbeforeapply  //vetkit:wal-before-apply methods log before applying
//	lockdiscipline  no mutex copies; Lock pairs with Unlock on all paths
//	closecheck      Close/Sync errors on writable files are checked
//	metriclint      obs.Registry and expvar names are snake_case,
//	                registered exactly once, and never registered from a
//	                hotpath function
//
// See the README's "Static analysis" section for the annotation
// vocabulary and how to extend the suite.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/closecheck"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/metriclint"
	"repro/internal/analysis/walapply"
)

// analyzers is the suite, in the order summaries print.
var analyzers = []*analysis.Analyzer{
	hotpath.Analyzer,
	walapply.Analyzer,
	lockcheck.Analyzer,
	closecheck.Analyzer,
	metriclint.Analyzer,
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings and summaries as JSON (for CI)")
	quiet := flag.Bool("q", false, "suppress per-analyzer summary lines")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vetkit [-json] [-q] [packages...]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	results, err := analysis.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	total := 0
	for _, res := range results {
		total += len(res.Findings)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Results  []analysis.Result `json:"results"`
			Findings int               `json:"findings"`
		}{results, total}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, res := range results {
			for _, d := range res.Findings {
				fmt.Println(d)
			}
		}
		if !*quiet {
			for _, res := range results {
				fmt.Printf("vetkit: %-15s packages=%-3d files=%-3d findings=%d\n",
					res.Analyzer, res.Packages, res.Files, len(res.Findings))
			}
		}
	}
	if total > 0 {
		os.Exit(1)
	}
}
