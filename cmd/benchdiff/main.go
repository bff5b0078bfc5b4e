// Command benchdiff compares two performance baselines written by
// `sweep -bench-out` (the BENCH_<date>.json format of internal/bench)
// and gates on geomean IPC regression and on coverage.
//
// Usage:
//
//	benchdiff old.json new.json              # exit 1 if geomean IPC drops >= 2%
//	benchdiff -threshold 0.05 old.json new.json
//	benchdiff -warn old.json new.json        # report but always exit 0
//
// The comparison covers only deterministic fields (IPC, CPI-stack
// shares); wall-clock throughput is informational and never gates.
// The gate also fails when no cells match or when a cell of the old
// baseline is missing from the new one (bench.Diff.Gate). Exit status:
// 0 = pass, 1 = gate failure, 2 = usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		threshold = flag.Float64("threshold", 0.02, "geomean IPC regression gate (fraction, 0.02 = 2%)")
		warn      = flag.Bool("warn", false, "report regressions but exit 0 (first-landing / advisory mode)")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold f] [-warn] old.json new.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	old, err := bench.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := bench.ReadFile(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	d := bench.Compare(old, cur)
	d.Render(os.Stdout, *threshold)
	if err := d.Gate(*threshold); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff: FAIL:", err)
		if !*warn {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchdiff: -warn set; exiting 0")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
