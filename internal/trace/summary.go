// Trace summarizer: parses a Chrome trace_event file produced by
// WriteChrome (the raw ring record rides along in each event's args)
// and derives the operational numbers a perf investigation starts from:
// steal and entangled-read rates, the pin-lifetime histogram, and
// per-phase collection latency. cmd/mplgo-trace is a thin wrapper.

package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// PinLifetimeBuckets is the number of log2 histogram buckets: bucket i
// counts pins whose pin→unpin span was in [2^i, 2^(i+1)) nanoseconds,
// with the last bucket absorbing everything longer (~1s and up).
const PinLifetimeBuckets = 31

// Summary is what one trace reduces to.
type Summary struct {
	Events         int           // decoded ring events
	Span           time.Duration // last timestamp minus first
	ByKind         map[Kind]int  // event counts per kind
	Workers        int           // rings that carried at least one event
	Steals         int
	Forks          int
	SlowReads      int
	EntangledReads int
	Pins           int
	Unpins         int

	// Rates per second of traced span (0 when the span is empty).
	StealsPerSec         float64
	SlowReadsPerSec      float64
	EntangledReadsPerSec float64

	// SlowReadRate is the barrier slow-path rate: slow reads per
	// entangled read opportunity is not recoverable from the trace alone,
	// so this is slow reads per second of span; the per-read fraction
	// comes from the bench JSON's ent_reads columns.

	// PinLifetimes is the log2-bucketed pin→unpin latency histogram.
	// Pins whose unpin never appears (still pinned at snapshot, or the
	// unpin fell off the ring) are counted in UnmatchedPins.
	PinLifetimes  [PinLifetimeBuckets]int
	UnmatchedPins int

	// Collection latency, from matched begin/end pairs per ring.
	LGC      PhaseStats
	CGCCycle PhaseStats
	CGCMark  PhaseStats
	CGCSweep PhaseStats

	// Counter track maxima (pinned bytes, live words, ...).
	CounterMax map[Counter]uint64

	// Steal-to-first-event latency: for each EvSteal, the gap until the
	// stealing worker's next trace event — the first evidence the stolen
	// task is actually running. An upper bound on scheduler hand-off
	// latency at trace granularity (the next event may itself be late).
	StealLat         PhaseStats
	StealLatByWorker map[int]*WorkerStealLat

	// Grid-cell identity (PR 9's expgrid runner stamps every cell trace
	// with grid_cell/grid_seed counters). HasGrid reports whether the
	// trace carried them.
	GridCell uint64
	GridSeed uint64
	HasGrid  bool
}

// WorkerStealLat is one worker's steal-to-first-event latency profile.
type WorkerStealLat struct {
	PhaseStats
	Hist [PinLifetimeBuckets]int
}

// PhaseStats aggregates matched begin/end spans of one phase kind.
type PhaseStats struct {
	Count int
	Total time.Duration
	Max   time.Duration
}

func (p *PhaseStats) add(d time.Duration) {
	p.Count++
	p.Total += d
	if d > p.Max {
		p.Max = d
	}
}

// Mean returns the average span (0 when no spans matched).
func (p PhaseStats) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / time.Duration(p.Count)
}

// rawArgs is the ring record WriteChrome embeds in every event.
type rawArgs struct {
	Kind  string `json:"kind"`
	Arg1  uint64 `json:"arg1"`
	Arg2  uint64 `json:"arg2"`
	TSNS  int64  `json:"ts_ns"`
	Depth int32  `json:"depth"`
	Value uint64 `json:"value"` // counter events carry the sample here
}

type fileEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Args rawArgs `json:"args"`
}

type traceFile struct {
	TraceEvents []fileEvent `json:"traceEvents"`
}

// Summarize parses a Chrome trace_event stream written by WriteChrome
// and reduces it. Malformed JSON, a missing traceEvents array, or events
// without the embedded ring record are errors — the summarizer doubles
// as the CI validator for exported traces.
func Summarize(r io.Reader) (*Summary, error) {
	var tf traceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("trace: not a trace_event object: %w", err)
	}
	if tf.TraceEvents == nil {
		return nil, fmt.Errorf("trace: no traceEvents array")
	}

	s := &Summary{
		ByKind:           make(map[Kind]int),
		CounterMax:       make(map[Counter]uint64),
		StealLatByWorker: make(map[int]*WorkerStealLat),
	}
	// Pending steal timestamps per worker, matched against the worker's
	// next event.
	stealAt := make(map[int]int64)
	var minTS, maxTS int64
	first := true
	workers := make(map[int]bool)
	// Pin lifetimes are matched globally by ref bits: the pin and its
	// unpin are usually emitted by different strands (the reader pins,
	// the joining parent unpins).
	pinAt := make(map[uint64]int64)
	// Phase begin stacks per (ring, phase name): phases never interleave
	// within one ring, but LGC spans of different workers do overlap.
	type phaseKey struct {
		tid  int
		name string
	}
	begins := make(map[phaseKey][]int64)

	// Events within one ring are time-ordered, but the file concatenates
	// rings; sort globally so pin→unpin matching sees causal order.
	evs := make([]fileEvent, 0, len(tf.TraceEvents))
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" {
			continue // metadata carries no ring record
		}
		if e.Args.Kind == "" {
			return nil, fmt.Errorf("trace: event %q missing embedded ring record (args.kind)", e.Name)
		}
		evs = append(evs, e)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Args.TSNS < evs[j].Args.TSNS })

	phaseFor := func(s *Summary, name string) *PhaseStats {
		switch name {
		case "LGC":
			return &s.LGC
		case "CGC cycle":
			return &s.CGCCycle
		case "CGC mark":
			return &s.CGCMark
		case "CGC sweep":
			return &s.CGCSweep
		}
		return nil
	}

	for _, e := range evs {
		k, ok := KindFromName(e.Args.Kind)
		if !ok {
			return nil, fmt.Errorf("trace: unknown event kind %q", e.Args.Kind)
		}
		s.Events++
		s.ByKind[k]++
		workers[e.TID] = true
		if first || e.Args.TSNS < minTS {
			minTS = e.Args.TSNS
		}
		if first || e.Args.TSNS > maxTS {
			maxTS = e.Args.TSNS
		}
		first = false

		// Close a pending steal→first-event window for this worker.
		if t0, ok := stealAt[e.TID]; ok {
			delete(stealAt, e.TID)
			d := time.Duration(e.Args.TSNS - t0)
			if d < 0 {
				d = 0
			}
			s.StealLat.add(d)
			wl := s.StealLatByWorker[e.TID]
			if wl == nil {
				wl = &WorkerStealLat{}
				s.StealLatByWorker[e.TID] = wl
			}
			wl.add(d)
			b := bits.Len64(uint64(d))
			if b >= PinLifetimeBuckets {
				b = PinLifetimeBuckets - 1
			}
			wl.Hist[b]++
		}

		switch k {
		case EvSteal:
			s.Steals++
			stealAt[e.TID] = e.Args.TSNS
		case EvFork:
			s.Forks++
		case EvSlowRead:
			s.SlowReads++
		case EvEntangledRead:
			s.EntangledReads++
		case EvPin:
			s.Pins++
			pinAt[e.Args.Arg1] = e.Args.TSNS
		case EvUnpin:
			s.Unpins++
			if t0, ok := pinAt[e.Args.Arg1]; ok {
				delete(pinAt, e.Args.Arg1)
				d := e.Args.TSNS - t0
				if d < 0 {
					d = 0
				}
				b := bits.Len64(uint64(d))
				if b >= PinLifetimeBuckets {
					b = PinLifetimeBuckets - 1
				}
				s.PinLifetimes[b]++
			}
		case EvCounter:
			ctr := Counter(e.Args.Arg1)
			v := e.Args.Arg2
			if e.Ph == "C" {
				// Counter events are exported as "C" rows whose args carry
				// only the value; arg1/arg2 are in the name/value fields.
				if c2, ok := CounterFromName(e.Name); ok {
					ctr, v = c2, e.Args.Value
				}
			}
			if v > s.CounterMax[ctr] {
				s.CounterMax[ctr] = v
			}
		}

		switch e.Ph {
		case "B":
			begins[phaseKey{e.TID, e.Name}] = append(begins[phaseKey{e.TID, e.Name}], e.Args.TSNS)
		case "E":
			key := phaseKey{e.TID, e.Name}
			if st := begins[key]; len(st) > 0 {
				t0 := st[len(st)-1]
				begins[key] = st[:len(st)-1]
				if ph := phaseFor(s, e.Name); ph != nil {
					ph.add(time.Duration(e.Args.TSNS - t0))
				}
			}
		}
	}

	s.UnmatchedPins = len(pinAt)
	s.Workers = len(workers)
	if !first {
		s.Span = time.Duration(maxTS - minTS)
	}
	if sec := s.Span.Seconds(); sec > 0 {
		s.StealsPerSec = float64(s.Steals) / sec
		s.SlowReadsPerSec = float64(s.SlowReads) / sec
		s.EntangledReadsPerSec = float64(s.EntangledReads) / sec
	}

	if v, ok := s.CounterMax[CtrGridCell]; ok {
		s.HasGrid = true
		s.GridCell = v
		s.GridSeed = s.CounterMax[CtrGridSeed]
	}
	return s, nil
}

// Format renders the summary as the human-readable report mplgo-trace
// prints.
func (s *Summary) Format(w io.Writer) {
	fmt.Fprintf(w, "events:           %d over %v (%d active rings)\n", s.Events, s.Span, s.Workers)
	if s.HasGrid {
		fmt.Fprintf(w, "grid cell:        id=%d seed=%d\n", s.GridCell, s.GridSeed)
	}
	fmt.Fprintf(w, "forks:            %d\n", s.Forks)
	fmt.Fprintf(w, "steals:           %d (%.1f/s)\n", s.Steals, s.StealsPerSec)
	fmt.Fprintf(w, "slow reads:       %d (%.1f/s)\n", s.SlowReads, s.SlowReadsPerSec)
	fmt.Fprintf(w, "entangled reads:  %d (%.1f/s)\n", s.EntangledReads, s.EntangledReadsPerSec)
	fmt.Fprintf(w, "pins:             %d (%d unpinned in trace, %d unmatched)\n",
		s.Pins, s.Unpins, s.UnmatchedPins)

	if s.Pins > 0 {
		fmt.Fprintf(w, "pin lifetime histogram (log2 ns):\n")
		for b, n := range s.PinLifetimes {
			if n == 0 {
				continue
			}
			lo := time.Duration(0)
			if b > 0 {
				lo = time.Duration(int64(1) << (b - 1))
			}
			hi := time.Duration(int64(1) << b)
			fmt.Fprintf(w, "  [%12v, %12v)  %d\n", lo, hi, n)
		}
	}

	phase := func(name string, p PhaseStats) {
		if p.Count == 0 {
			return
		}
		fmt.Fprintf(w, "%-17s %d spans, mean %v, max %v\n", name+":", p.Count, p.Mean(), p.Max)
	}
	phase("LGC", s.LGC)
	phase("CGC cycle", s.CGCCycle)
	phase("CGC mark", s.CGCMark)
	phase("CGC sweep", s.CGCSweep)

	if s.StealLat.Count > 0 {
		fmt.Fprintf(w, "steal latency (steal → next event): %d matched, mean %v, max %v\n",
			s.StealLat.Count, s.StealLat.Mean(), s.StealLat.Max)
		tids := make([]int, 0, len(s.StealLatByWorker))
		for t := range s.StealLatByWorker {
			tids = append(tids, t)
		}
		sort.Ints(tids)
		for _, t := range tids {
			wl := s.StealLatByWorker[t]
			fmt.Fprintf(w, "  worker %-3d %4d steals, mean %v, max %v | log2-ns hist:",
				t, wl.Count, wl.Mean(), wl.Max)
			for b, n := range wl.Hist {
				if n == 0 {
					continue
				}
				fmt.Fprintf(w, " [2^%d)=%d", b, n)
			}
			fmt.Fprintf(w, "\n")
		}
	}

	// Generic counter maxima: grid_* counters get their own labelled
	// line above, so keep them out of the raw list.
	ctrs := make([]Counter, 0, len(s.CounterMax))
	for c := range s.CounterMax {
		name := c.String()
		if strings.HasPrefix(name, "grid_") {
			continue
		}
		ctrs = append(ctrs, c)
	}
	if len(ctrs) > 0 {
		sort.Slice(ctrs, func(i, j int) bool { return ctrs[i] < ctrs[j] })
		fmt.Fprintf(w, "counter maxima:\n")
		for _, c := range ctrs {
			fmt.Fprintf(w, "  %-20s %d\n", c.String(), s.CounterMax[c])
		}
	}
}
