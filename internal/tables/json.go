package tables

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// BenchEntry is one per-benchmark record of the machine-readable report:
// the measured sequential baseline, single-processor hierarchical time,
// the simulated 64-processor point, and the derived ratios the T1 table
// prints.
type BenchEntry struct {
	Name      string  `json:"name"`
	Entangled bool    `json:"entangled"`
	TseqNS    int64   `json:"tseq_ns"`
	T1NS      int64   `json:"t1_ns"`
	T64SimNS  int64   `json:"t64_sim_ns"`
	Overhead  float64 `json:"overhead"`  // T1 / Tseq
	Speedup64 float64 `json:"speedup64"` // Tseq / T64(sim)

	// Per-repeat samples and their 95% confidence intervals. TseqNS/T1NS
	// above are best-of-N (the gated, noise-robust statistic); the samples
	// make drift visible per entry instead of only across baselines — a
	// wide CI on a regressed entry says "noisy box", a tight one says
	// "real". Never gated on.
	TseqSamplesNS []int64 `json:"tseq_samples_ns,omitempty"`
	T1SamplesNS   []int64 `json:"t1_samples_ns,omitempty"`
	TseqCI95NS    int64   `json:"tseq_ci95_ns,omitempty"` // half-width on the mean
	T1CI95NS      int64   `json:"t1_ci95_ns,omitempty"`   // half-width on the mean

	// T4 entanglement cost metrics of the T1 run: how hard the slow path
	// was exercised and what it cost in pinned memory. Zero for the
	// disentangled suite.
	EntReads        int64 `json:"ent_reads"`
	Pins            int64 `json:"pins"`
	PinnedPeakBytes int64 `json:"pinned_peak_bytes"`

	// Space trajectory of the T1 run: pin-retained chunks, max residency in
	// words, and completed concurrent-collection cycles (zero unless the run
	// enabled the concurrent collector). Never gated on — CompareBenchReports
	// gates only the overhead ratio — but tracked so space regressions are
	// visible in the BENCH_*.json diffs.
	RetainedChunks int64 `json:"retained_chunks"`
	LiveWords      int64 `json:"live_words"`
	CGCCycles      int64 `json:"cgc_cycles"`

	// Barrier-elision coverage of the T1 run — also never gated, tracked so
	// the trajectory shows how much of each benchmark's access traffic the
	// static disentanglement analysis removed from the managed path. Zero
	// for the Go-native suite (no front-end analysis).
	StaticRegions int64 `json:"static_regions"`
	ElidedLoads   int64 `json:"elided_loads"`
	ElidedStores  int64 `json:"elided_stores"`

	// Sampled time-series of the retention counters from one extra traced
	// (untimed) run, so the JSON trail shows the *shape* of retention —
	// a pin leak that drains by the end of the run has the same final
	// retained_chunks as a healthy run, but a very different series.
	RetainedSeries   []CounterPoint `json:"retained_chunks_series,omitempty"`
	PinnedPeakSeries []CounterPoint `json:"pinned_peak_bytes_series,omitempty"`

	// Server-load latency columns, written by cmd/mplgo-load for the
	// examples/server workload. These entries have no Tseq/T1 pair — they
	// come from an open-loop wall-clock run, not the timed bench harness —
	// so CompareBenchReports never gates on them (Overhead is zero);
	// they ride in the JSON purely as a tracked latency/goodput
	// trajectory. Latencies are measured from each request's *scheduled*
	// arrival (open loop — queueing and retry backoff count), over
	// completed requests only.
	LatP50NS    int64   `json:"lat_p50_ns,omitempty"`
	LatP99NS    int64   `json:"lat_p99_ns,omitempty"`
	LatP999NS   int64   `json:"lat_p999_ns,omitempty"`
	OfferedRPS  float64 `json:"offered_rps,omitempty"`
	GoodputRPS  float64 `json:"goodput_rps,omitempty"`
	ReqAdmitted int64   `json:"requests_admitted,omitempty"`
	ReqShed     int64   `json:"requests_shed,omitempty"`
	ReqDeadline int64   `json:"requests_deadline_exceeded,omitempty"`
}

// BenchReport is the top-level JSON document written beside the tables so
// perf work has a tracked trajectory: each run of `mplgo-bench -exp time`
// drops a BENCH_<timestamp>.json that later runs (and reviewers) can diff.
type BenchReport struct {
	Timestamp  string `json:"timestamp"` // RFC 3339, UTC
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Scale      int    `json:"scale"` // problem-size divisor the run used
	// Host fingerprints the machine the report was measured on. The CI
	// bench gate compares it against the current host and downgrades
	// regressions to warnings when they differ — a baseline from another
	// box bounds nothing (PR 8's 10–30% drift story, retired).
	Host       *Fingerprint `json:"host,omitempty"`
	Benchmarks []BenchEntry `json:"benchmarks"`
}

// WriteBenchJSON serializes the T1 rows to path as an indented JSON
// report stamped with the given RFC 3339 timestamp.
func WriteBenchJSON(rows []TimeRow, timestamp string, scale int, path string) error {
	rep := BenchReport{
		Timestamp:  timestamp,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale,
		Host:       CurrentFingerprint(),
	}
	for _, r := range rows {
		rep.Benchmarks = append(rep.Benchmarks, BenchEntry{
			Name:             r.Name,
			Entangled:        r.Entangled,
			TseqNS:           r.Tseq.Nanoseconds(),
			T1NS:             r.T1.Nanoseconds(),
			TseqSamplesNS:    durationsNS(r.TseqSamples),
			T1SamplesNS:      durationsNS(r.T1Samples),
			TseqCI95NS:       int64(SummarizeNS(durationsNS(r.TseqSamples)).CI95),
			T1CI95NS:         int64(SummarizeNS(durationsNS(r.T1Samples)).CI95),
			T64SimNS:         r.T64.Nanoseconds(),
			Overhead:         r.Overhead,
			Speedup64:        r.Speedup64,
			EntReads:         r.EntReads,
			Pins:             r.Pins,
			PinnedPeakBytes:  r.PinnedPeakBytes,
			RetainedChunks:   r.RetainedChunks,
			LiveWords:        r.LiveWords,
			CGCCycles:        r.CGCCycles,
			StaticRegions:    r.StaticRegions,
			ElidedLoads:      r.ElidedLoads,
			ElidedStores:     r.ElidedStores,
			RetainedSeries:   r.RetainedSeries,
			PinnedPeakSeries: r.PinnedPeakSeries,
		})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func durationsNS(ds []time.Duration) []int64 {
	if len(ds) == 0 {
		return nil
	}
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = d.Nanoseconds()
	}
	return out
}

// WriteReport serializes an already-assembled report to path — the
// update path for tools (cmd/mplgo-load) that merge entries into an
// existing BENCH_*.json rather than generating one from TimeRows.
func WriteReport(rep *BenchReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchJSON loads a previously written bench report.
func ReadBenchJSON(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// gateFloorNS exempts very short benchmarks from the regression gate:
// below ~2ms of T1, the overhead ratio is dominated by timer granularity
// and process-level mode switches (observed as stable ±25% bimodality even
// under best-of-N sampling), so gating on it would only produce flakes.
// The entries are still recorded in the JSON for the perf trajectory.
const gateFloorNS = 2_000_000

// CompareBenchReports checks fresh against base and returns one line per
// benchmark whose T1 overhead (T1/Tseq) regressed by more than tolerance
// (e.g. 0.15 for 15%). Overhead is a ratio of two timings from the same
// run, so it is far more stable across machines and load than raw
// nanoseconds — that is what makes it usable as a CI gate. Benchmarks
// missing from either report, and ones faster than gateFloorNS, are
// skipped (the suite may grow).
func CompareBenchReports(base, fresh *BenchReport, tolerance float64) []string {
	baseline := make(map[string]BenchEntry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		baseline[e.Name] = e
	}
	var regressions []string
	for _, e := range fresh.Benchmarks {
		b, ok := baseline[e.Name]
		if !ok || b.Overhead <= 0 {
			continue
		}
		if e.T1NS < gateFloorNS && b.T1NS < gateFloorNS {
			continue
		}
		if e.Overhead > b.Overhead*(1+tolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s: overhead %.2fx vs baseline %.2fx (+%.0f%%, tolerance %.0f%%)",
					e.Name, e.Overhead, b.Overhead,
					(e.Overhead/b.Overhead-1)*100, tolerance*100))
		}
	}
	return regressions
}
