package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"mplgo/mpl"
)

// The traced run's recorder. Spans are recorded at the layer boundaries the
// benchmark's own code calls: mpl.New and Runtime.Run for every program,
// Par and Server.Submit, plus the request body that Submit runs. The
// high-frequency calls inside benchmark-authored bodies (alloc, read,
// write, CAS) are not spans: each task aggregates them per call kind as a
// count, a total and a log2 histogram, and charges their total to the span
// it runs under, so self times stay exact. Everything stays in memory until
// write, at the end of the run.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = a top-level span
	Req    int64  `json:"req"`    // request id in serve, pass number elsewhere
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	// CallNs is the time of aggregated calls made directly under this span.
	CallNs int64 `json:"call_ns,omitempty"`
}

// callKind names the aggregated high-frequency calls.
type callKind int

const (
	kAlloc callKind = iota
	kRead
	kWrite
	kCAS
	numKinds
)

var kindNames = [numKinds]string{"mem.alloc", "core.read", "core.write", "core.cas"}

// callAgg aggregates one call kind: count, total and a log2-ns histogram.
type callAgg struct {
	N    int64     `json:"n"`
	Ns   int64     `json:"total_ns"`
	Hist [40]int64 `json:"log2_ns_hist"`
	Max  int64     `json:"max_ns"`
}

func (a *callAgg) add(ns int64) {
	a.N++
	a.Ns += ns
	a.Hist[min(bits.Len64(uint64(max(ns, 0))), len(a.Hist)-1)]++
	a.Max = max(a.Max, ns)
}

func (a *callAgg) merge(b *callAgg) {
	a.N += b.N
	a.Ns += b.Ns
	for i := range a.Hist {
		a.Hist[i] += b.Hist[i]
	}
	a.Max = max(a.Max, b.Max)
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	kinds [numKinds]callAgg
	// Allocation calls split by whether a local collection ran during
	// them (P=1 runtimes only, where the attribution is exact).
	lgc, plain callAgg
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// open starts a span and returns its id; 0 when tr is nil.
func (tr *tracer) open(name string, parent, req int64) int64 {
	if tr == nil {
		return 0
	}
	start := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: int64(len(tr.spans)) + 1, Parent: parent, Req: req, Name: name, Start: start})
	return int64(len(tr.spans))
}

// close ends span id; c (may be nil) holds the aggregated calls made
// directly under it, which are merged into the run's totals.
func (tr *tracer) close(id int64, c *calls) {
	if tr == nil || id == 0 {
		return
	}
	end := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id-1]
	s.End = end
	if c != nil {
		for k := range c.kinds {
			s.CallNs += c.kinds[k].Ns
			tr.kinds[k].merge(&c.kinds[k])
		}
		tr.lgc.merge(&c.lgc)
		tr.plain.merge(&c.plain)
	}
}

// calls is one task's aggregator for the high-frequency calls of a
// benchmark-authored body. A nil *calls records nothing, so the untraced
// bodies pay one nil test per call.
type calls struct {
	tr    *tracer
	rt    *mpl.Runtime // non-nil: split allocs by whether a collection ran
	kinds [numKinds]callAgg
	lgc   callAgg
	plain callAgg
}

func (tr *tracer) newCalls(rt *mpl.Runtime) *calls {
	if tr == nil {
		return nil
	}
	return &calls{tr: tr, rt: rt}
}

func (c *calls) begin() int64 {
	if c == nil {
		return 0
	}
	return c.tr.now()
}

func (c *calls) end(k callKind, start int64) {
	if c == nil {
		return
	}
	c.kinds[k].add(c.tr.now() - start)
}

// collections is the runtime's LGC count, read around alloc calls.
func (c *calls) collections() int64 {
	if c == nil || c.rt == nil {
		return 0
	}
	n, _, _ := c.rt.GCStats()
	return n
}

func (c *calls) endAlloc(start, gcBefore int64) {
	if c == nil {
		return
	}
	d := c.tr.now() - start
	c.kinds[kAlloc].add(d)
	if c.rt == nil {
		return
	}
	if c.collections() != gcBefore {
		c.lgc.add(d)
	} else {
		c.plain.add(d)
	}
}

// selfTimes returns, per span name, the total self time: each span's
// duration minus the part of it covered by its child spans (interval
// union, since the two branches of a Par overlap) and by its aggregated
// calls. Aggregated call kinds are leaves, so their self time is their
// total.
func (tr *tracer) selfTimes() map[string]int64 {
	children := map[int64][][2]int64{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for _, s := range tr.spans {
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End) - s.CallNs
		out[s.Name] += max(self, 0)
	}
	for k, a := range tr.kinds {
		out[kindNames[k]] += a.Ns
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, cur int64 = 0, lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write stores the spans, call aggregates and per-layer table under
// $PERFBENCH_OUT (default .bench_build/traces) and returns the file path.
func (tr *tracer) write(workload string, seed int64, h host, rep *report, names []metricDef) (string, error) {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = filepath.Join(".bench_build", "traces")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	layers := map[string]metric{}
	for _, d := range names {
		layers[d.name] = rep.m[d.name]
	}
	calls := map[string]*callAgg{}
	for k := range tr.kinds {
		calls[kindNames[k]] = &tr.kinds[k]
	}
	calls["mem.alloc.lgc"] = &tr.lgc
	calls["mem.alloc.plain"] = &tr.plain
	self := map[string]float64{}
	for name, ns := range tr.selfTimes() {
		self[name] = float64(ns) / 1e6
	}
	doc := map[string]any{
		"workload": workload, "seed": seed, "host": h,
		"per_layer": layers, "self_ms_total": self, "calls": calls, "spans": tr.spans,
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
