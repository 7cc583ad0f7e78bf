package tables

import (
	"fmt"
	"io"
	"os"
	"sort"

	"mplgo/internal/bench"
	"mplgo/internal/trace"
	"mplgo/mpl"
)

// CounterPoint is one sample of a traced runtime counter: the value the
// runtime reported at TNS nanoseconds into the traced run.
type CounterPoint struct {
	TNS int64 `json:"t_ns"`
	V   int64 `json:"v"`
}

// seriesPoints bounds the counter series recorded into the bench JSON;
// longer traces are downsampled evenly so the report stays diffable.
const seriesPoints = 32

// counterSeries extracts the time-series of one counter from a trace
// snapshot, merged across rings, time-ordered, and downsampled to at most
// seriesPoints samples (the last sample is always kept). A series that
// never leaves zero is dropped entirely — a disentangled benchmark emits
// the pinned-bytes counters at every join, and 32 zero points per
// benchmark would only pad the JSON diffs.
func counterSeries(snap [][]trace.Event, ctr trace.Counter) []CounterPoint {
	var pts []CounterPoint
	nonzero := false
	for _, ring := range snap {
		for _, e := range ring {
			if e.Kind == trace.EvCounter && trace.Counter(e.Arg1) == ctr {
				pts = append(pts, CounterPoint{TNS: e.TS, V: int64(e.Arg2)})
				nonzero = nonzero || e.Arg2 != 0
			}
		}
	}
	if !nonzero {
		return nil
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].TNS < pts[j].TNS })
	if len(pts) <= seriesPoints {
		return pts
	}
	out := make([]CounterPoint, 0, seriesPoints)
	stride := float64(len(pts)-1) / float64(seriesPoints-1)
	for i := 0; i < seriesPoints; i++ {
		out = append(out, pts[int(float64(i)*stride+0.5)])
	}
	out[seriesPoints-1] = pts[len(pts)-1]
	return out
}

// tracedSeries reruns one benchmark (untimed) with a tracer installed and
// returns the sampled retained-chunks and pinned-peak-bytes series. The
// timed measurements never see a tracer — this run exists only to attach
// a space trajectory to the bench JSON.
func tracedSeries(b bench.Benchmark, n int) (retained, pinnedPeak []CounterPoint) {
	tr := mpl.NewTracer(1, 0)
	mpl.TraceEnable()
	runMPL(b, n, mpl.Config{Procs: 1, Tracer: tr})
	mpl.TraceDisable()
	snap := tr.Snapshot()
	return counterSeries(snap, trace.CtrRetainedChunks),
		counterSeries(snap, trace.CtrPinnedPeakBytes)
}

// TraceRun executes one benchmark with tracing enabled and writes the
// Chrome trace_event export to tracePath (stdout if "-"). The run is not
// timed — its point is the trace, which cmd/mplgo-trace summarizes and
// Perfetto renders. Returns the number of events captured.
func TraceRun(name string, sizes map[string]int, procs int, w io.Writer, tracePath string) (int, error) {
	b, ok := bench.ByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown benchmark %q", name)
	}
	n := size(b, sizes)
	tr := mpl.NewTracer(procs, 0)
	mpl.TraceEnable()
	_, wall, _ := runMPL(b, n, mpl.Config{Procs: procs, Tracer: tr})
	mpl.TraceDisable()

	events := 0
	for _, ring := range tr.Snapshot() {
		events += len(ring)
	}

	out := os.Stdout
	if tracePath != "-" {
		f, err := os.Create(tracePath)
		if err != nil {
			return events, err
		}
		defer f.Close()
		out = f
	}
	if err := mpl.WriteChrome(out, tr); err != nil {
		return events, err
	}
	fmt.Fprintf(w, "# trace: %s n=%d procs=%d wall=%s events=%d -> %s\n",
		b.Name, n, procs, fmtD(wall), events, tracePath)
	return events, nil
}
