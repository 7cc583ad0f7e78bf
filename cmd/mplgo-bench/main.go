// Command mplgo-bench regenerates the paper's tables and figures
// (experiment index in DESIGN.md §5).
//
// Usage:
//
//	mplgo-bench -exp time       # T1: time table (Tseq, T1, T64, overhead, speedup)
//	mplgo-bench -exp space      # T2: space table (max residency, blowups)
//	mplgo-bench -exp speedup    # F1: speedup curves vs processors
//	mplgo-bench -exp lang       # T3: language comparison vs native Go
//	mplgo-bench -exp entangle   # T4: entanglement cost metrics
//	mplgo-bench -exp ablate     # F2: barrier-mode ablation
//	mplgo-bench -exp elide      # E: mlang static barrier elision on/off
//	mplgo-bench -exp spacecurve # F3: residency vs processors
//	mplgo-bench -exp stw        # A6: hierarchical vs stop-the-world collection
//	                            # (modeled T_P)
//	mplgo-bench -exp all        # everything above, in order
//	mplgo-bench -exp trace      # traced run → Chrome trace_event JSON
//	                            # (-trace <file>, -tracebench, -traceprocs;
//	                            #  never part of "all" — tracing is untimed)
//	mplgo-bench -exp grid-cell -cell <file>
//	                            # machine-readable experiment-grid cell:
//	                            # run the Cell JSON in <file> ('-' for
//	                            # stdin) and print its CellResult JSON on
//	                            # stdout. This is cmd/mplgo-paper's
//	                            # subprocess mode — never part of "all".
//
// -scale divides every benchmark's default problem size (e.g. -scale 4
// runs quarter-size problems for a quick look).
//
// Whenever the time experiment runs, a machine-readable copy of the T1
// table is written as BENCH_<timestamp>.json (per-benchmark Tseq/T1/T64,
// overhead, speedup, and the T4 entanglement cost metrics of the T1 run),
// so every perf change leaves a diffable trail.
// -json overrides the output path; -json off disables it.
//
// -baseline <file.json> compares the fresh T1 report against a previous
// one and exits nonzero if any benchmark's overhead (T1/Tseq) regressed by
// more than -tolerance (default 10%). CI uses this against the checked-in
// baseline report. When the baseline's host fingerprint does not match the
// current host (different cores, GOMAXPROCS, or toolchain — or no
// fingerprint at all), regressions are downgraded to warnings: a number
// measured on different hardware bounds nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mplgo/internal/bench"
	"mplgo/internal/expgrid"
	"mplgo/internal/tables"
)

func main() {
	exp := flag.String("exp", "all", "experiment: time|space|speedup|lang|entangle|ablate|elide|spacecurve|stw|trace|all")
	scale := flag.Int("scale", 1, "divide default problem sizes by this factor")
	tracePath := flag.String("trace", "trace.json",
		"output path for -exp trace (Chrome trace_event JSON; '-' for stdout)")
	traceBench := flag.String("tracebench", "pipeline", "benchmark -exp trace runs")
	traceProcs := flag.Int("traceprocs", 4, "worker count for -exp trace")
	jsonOut := flag.String("json", "auto",
		"T1 JSON report path; 'auto' names it BENCH_<timestamp>.json, 'off' disables")
	baseline := flag.String("baseline", "",
		"previous BENCH_*.json to compare the fresh T1 report against; exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.10,
		"relative T1-overhead regression tolerated by -baseline (0.10 = 10%)")
	cellPath := flag.String("cell", "",
		"grid-cell JSON for -exp grid-cell ('-' reads stdin)")
	flag.Parse()

	// Grid-cell mode is fully machine-readable: the cell comes in as
	// JSON, the result goes out as JSON, and nothing else touches stdout.
	if *exp == "grid-cell" {
		if err := runGridCell(*cellPath); err != nil {
			fmt.Fprintf(os.Stderr, "grid-cell: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var sizes map[string]int
	if *scale > 1 {
		sizes = map[string]int{}
		for _, b := range bench.All {
			n := b.DefaultN / *scale
			if n < 4 {
				n = 4
			}
			// fib and nqueens scale by subtraction, not division.
			switch b.Name {
			case "fib":
				n = b.DefaultN - *scale
			case "nqueens":
				n = b.DefaultN - 1
			}
			sizes[b.Name] = n
		}
	}

	w := os.Stdout
	run := func(name string, f func()) {
		if *exp == name || *exp == "all" {
			f()
			fmt.Fprintln(w)
		}
	}
	run("time", func() {
		rows := tables.TimeTable(sizes, w)
		if *jsonOut == "off" {
			return
		}
		now := time.Now().UTC()
		path := *jsonOut
		if path == "auto" {
			path = fmt.Sprintf("BENCH_%s.json", now.Format("20060102T150405Z"))
		}
		if err := tables.WriteBenchJSON(rows, now.Format(time.RFC3339), *scale, path); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		if *baseline != "" {
			base, err := tables.ReadBenchJSON(*baseline)
			if err != nil {
				fmt.Fprintf(os.Stderr, "reading baseline %s: %v\n", *baseline, err)
				os.Exit(1)
			}
			fresh, err := tables.ReadBenchJSON(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "re-reading %s: %v\n", path, err)
				os.Exit(1)
			}
			if regs := tables.CompareBenchReports(base, fresh, *tolerance); len(regs) > 0 {
				// A baseline measured on a different host bounds nothing:
				// warn instead of failing, and say why (the fingerprints).
				if !fresh.Host.Matches(base.Host) {
					fmt.Fprintf(os.Stderr,
						"WARNING: baseline host does not match this host — regressions reported, not gated\n"+
							"  baseline: %s\n  current:  %s\n", base.Host, fresh.Host)
					for _, r := range regs {
						fmt.Fprintf(os.Stderr, "  warn: %s\n", r)
					}
					return
				}
				fmt.Fprintf(os.Stderr, "T1-overhead regressions vs %s:\n", *baseline)
				for _, r := range regs {
					fmt.Fprintf(os.Stderr, "  %s\n", r)
				}
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "no T1-overhead regression vs %s (tolerance %.0f%%)\n",
				*baseline, *tolerance*100)
		}
	})
	run("space", func() { tables.SpaceTable(sizes, w) })
	run("speedup", func() { tables.SpeedupFigure(sizes, w) })
	run("lang", func() { tables.LangTable(sizes, w) })
	run("entangle", func() { tables.EntangleTable(sizes, w) })
	run("ablate", func() { tables.AblateFigure(sizes, w) })
	run("elide", func() { tables.ElideTable(w) })
	run("spacecurve", func() { tables.SpaceFigure(sizes, w) })
	run("stw", func() { tables.STWTable(sizes, w) })

	// The trace experiment is opt-in only (never part of "all"): it is
	// untimed, writes a trace file, and exists for cmd/mplgo-trace and
	// Perfetto, not for the tables.
	if *exp == "trace" {
		if _, err := tables.TraceRun(*traceBench, sizes, *traceProcs, w, *tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
	}

	switch *exp {
	case "time", "space", "speedup", "lang", "entangle", "ablate", "elide", "spacecurve", "stw", "trace", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// runGridCell executes one experiment-grid cell (cmd/mplgo-paper's
// subprocess protocol): Cell JSON in, CellResult JSON out on stdout.
func runGridCell(path string) error {
	if path == "" {
		return fmt.Errorf("-exp grid-cell requires -cell <file>")
	}
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	var cell expgrid.Cell
	if err := json.Unmarshal(data, &cell); err != nil {
		return fmt.Errorf("bad cell JSON: %w", err)
	}
	res, err := expgrid.ExecuteCell(cell)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(out, '\n'))
	return err
}
