// Command mplgo-paper is the reproducible experiment-grid runner: it
// reads a checked-in grid spec (scripts/paper/experiments.json), executes
// every cell — benchmark × worker sweep × heap mode × barrier ablation,
// with warmups and repeats — in a fresh subprocess, and
// writes the paper-ready artifacts into the output directory:
//
//	samples.csv          every repeat of every cell, raw
//	summary_grouped.csv  per-cell mean/min/max/stddev/95% CI
//	speedup_curves.csv   measured and simulated speedup per sweep group
//	overhead.csv         per-group T1/Tseq overhead with CIs
//	crossval.csv/.txt    measured T_P vs Brent's bound and the simulator
//	results.json         raw cell results (samples, W/S, fingerprints)
//	host.json            the host fingerprint of the run
//
// Every table passes a validator before it is written, and the run exits
// nonzero on any Brent-bound violation: W/effP ≤ T_P ≤ W/effP + c·S must
// hold for every cell, with W and S from the deterministic trace replay
// and effP = min(P, host cores).
//
// Usage:
//
//	mplgo-paper -grid scripts/paper/experiments.json [-out scripts/paper/out]
//	            [-bench "go run ./cmd/mplgo-bench"] [-inprocess] [-trace-cells]
//	            [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"mplgo/internal/expgrid"
)

func main() {
	grid := flag.String("grid", "scripts/paper/experiments.json", "experiment grid spec")
	out := flag.String("out", "scripts/paper/out", "output directory")
	benchCmd := flag.String("bench", "go run ./cmd/mplgo-bench",
		"cell subprocess command (appended: -exp grid-cell -cell <file>)")
	inprocess := flag.Bool("inprocess", false,
		"run cells in this process instead of subprocesses (loses isolation; for quick looks)")
	traceCells := flag.Bool("trace-cells", false,
		"write one Chrome trace per cell into <out>/traces/, stamped with the cell identity")
	list := flag.Bool("list", false, "print the expanded cells and exit without running")
	cores := flag.Int("cores", 0, "override the host core count for sweep expansion (0 = detect)")
	flag.Parse()

	spec, err := expgrid.LoadSpec(*grid)
	if err != nil {
		fatal("loading grid: %v", err)
	}

	r := &expgrid.Runner{Spec: spec, Progress: os.Stderr, Cores: *cores}
	if !*inprocess {
		r.BenchCmd = strings.Fields(*benchCmd)
	}
	if *traceCells {
		r.TraceDir = filepath.Join(*out, "traces")
		if err := os.MkdirAll(r.TraceDir, 0o755); err != nil {
			fatal("%v", err)
		}
	}

	if *list {
		n := *cores
		if n <= 0 {
			n = runtime.NumCPU()
		}
		for _, c := range spec.Expand(n) {
			fmt.Printf("%s  (n=%d repeats=%d warmups=%d seed=%d)\n",
				c.ID, c.N, c.Repeats, c.Warmups, c.Seed)
		}
		return
	}

	rep, err := r.Run()
	if err != nil {
		fatal("grid run: %v", err)
	}
	if err := rep.WriteOutputs(*out); err != nil {
		fatal("writing outputs: %v", err)
	}
	fmt.Fprintf(os.Stderr, "# wrote %s/{%s,%s,%s,%s,%s,%s}\n", *out,
		expgrid.SamplesCSV, expgrid.SummaryCSV, expgrid.SpeedupCSV,
		expgrid.OverheadCSV, expgrid.CrossvalCSV, expgrid.ResultsJSON)
	for _, w := range rep.SimFlags {
		fmt.Fprintf(os.Stderr, "# warn: %s\n", w)
	}
	for _, w := range rep.ChecksumWarnings {
		fmt.Fprintf(os.Stderr, "# warn: %s\n", w)
	}
	if err := rep.Err(); err != nil {
		for _, v := range rep.BrentViolations {
			fmt.Fprintf(os.Stderr, "# BRENT: %s\n", v)
		}
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "# cross-validation: all %d cells within Brent's bound\n",
		len(rep.CrossVal))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mplgo-paper: "+format+"\n", args...)
	os.Exit(1)
}
