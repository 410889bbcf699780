// Command datanet-bench regenerates every table and figure of the paper's
// evaluation on the simulated substrate and prints them as text tables,
// series and sparklines. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured numbers.
//
// Usage:
//
//	datanet-bench            # run the full suite
//	datanet-bench -only fig5 # run one suite section by name
package main

import (
	"flag"
	"fmt"
	"os"

	"datanet/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single suite section by name (an unknown name lists the valid ones)")
	csvDir := flag.String("csv", "", "also write the figure series as CSV files into this directory")
	htmlOut := flag.String("html", "", "also write a self-contained HTML report (inline SVG) to this path")
	workers := flag.Int("parallel", 1, "worker-pool size for independent suite experiments (output is identical at any count)")
	benchOut := flag.String("json-bench", "", "run the suite plus the hot-path microbenches (build MB/s, estimates/sec, HTTP p50/p99) and write the benchmark record to this JSON file")
	flag.Parse()

	if *benchOut == "" {
		if *htmlOut != "" {
			if err := experiments.WriteHTMLReport(*htmlOut); err != nil {
				fail(err)
			}
			fmt.Println("wrote", *htmlOut)
			if *csvDir == "" && *only == "" {
				return
			}
		}
		if *csvDir != "" {
			files, err := experiments.WriteCSVSuite(*csvDir)
			if err != nil {
				fail(err)
			}
			for _, f := range files {
				fmt.Println("wrote", f)
			}
			if *only == "" {
				return
			}
		}
	}

	rep, err := experiments.RunSuite(os.Stdout, *workers, *only)
	if err != nil {
		fail(err)
	}
	if *benchOut == "" {
		return
	}
	// A single section's record (-only) carries just its makespans and
	// counters; the full suite's adds the hot-path microbenches.
	if *only == "" {
		if rep.HotPath, err = experiments.MeasureHotPaths(); err != nil {
			fail(err)
		}
	}
	if err := rep.WriteJSON(*benchOut); err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, "wrote", *benchOut)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "datanet-bench:", err)
	os.Exit(1)
}
