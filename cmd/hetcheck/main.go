// Command hetcheck runs the cross-configuration correctness harness:
// a deterministic randomized sweep of the Config cross-product that
// checks every registered invariant (sortedness, permutation checksum,
// execution-strategy equivalence, the Theorem-1 balance bound, the
// histogram refinement's balance and round bounds, per-step PDM I/O
// budgets, virtual-time attribution) and shrinks any failure to a
// minimal ready-to-paste repro.  Every histogram case's rounds print
// beside its sample_keys and its round bound.
//
// Usage:
//
//	hetcheck                 full sweep, 32 random seeds
//	hetcheck -quick          PR-gate sweep (8 seeds, smaller inputs)
//	hetcheck -seeds 256      nightly-scale sweep
//	hetcheck -invariant balance,step-io
//	hetcheck -json           machine-readable summary on stdout
//
// Exit status is 0 when every invariant held, 1 on any violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"hetsort/internal/check"
)

func main() {
	var (
		seeds     = flag.Int("seeds", 0, "number of randomized cases beyond the corner list (0 = default: 32, or 8 with -quick)")
		baseSeed  = flag.Int64("base-seed", 1, "first seed of the sequence (nightlies vary this to explore fresh cases)")
		quick     = flag.Bool("quick", false, "PR-gate mode: fewer seeds, smaller inputs, crash/resume on a subset")
		invariant = flag.String("invariant", "", "comma-separated invariant name filter (substring match; empty = all)")
		jsonOut   = flag.Bool("json", false, "print the summary as JSON on stdout")
		verbose   = flag.Bool("v", false, "print one line per case")
		noCrash   = flag.Bool("no-crash", false, "skip the durable crash/resume variant (no scratch directory)")
		list      = flag.Bool("list", false, "list the invariant registry and exit")
	)
	flag.Parse()

	if *list {
		for _, inv := range check.Registry() {
			fmt.Printf("%-12s %s\n", inv.Name, inv.Doc)
		}
		return
	}

	scratch := ""
	if !*noCrash {
		dir, err := os.MkdirTemp("", "hetcheck")
		if err != nil {
			fmt.Fprintf(os.Stderr, "hetcheck: %v\n", err)
			os.Exit(2)
		}
		defer os.RemoveAll(dir)
		scratch = dir
	}

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	sum := check.Sweep(check.Options{
		Seeds:      *seeds,
		BaseSeed:   *baseSeed,
		Quick:      *quick,
		Invariants: *invariant,
		Scratch:    scratch,
		Progress:   progress,
	})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fmt.Fprintf(os.Stderr, "hetcheck: %v\n", err)
			os.Exit(2)
		}
	} else {
		if len(sum.Rounds) > 0 {
			fmt.Printf("%-44s %5s %7s %6s %11s %5s\n", "histogram case", "p", "n", "rounds", "sample_keys", "bound")
			for _, r := range sum.Rounds {
				fmt.Printf("%-44s %5d %7d %6d %11d %5d\n", r.Case, r.P, r.N, r.Rounds, r.SampleKeys, r.Bound)
			}
		}
		fmt.Printf("hetcheck: %d cases, %d runs, %d failure(s)\n", sum.Cases, sum.Runs, sum.FailCount)
	}
	for _, f := range sum.Failures {
		fmt.Fprintln(os.Stderr, f.String())
		fmt.Fprintln(os.Stderr, f.Repro)
	}
	if sum.FailCount > 0 {
		os.Exit(1)
	}
}
