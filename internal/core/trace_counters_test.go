package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// TestAncestryCountersReachTrace runs an entangled workload with tracing on
// and checks the ancestry-oracle counters flow end to end: Tree.Stats is
// installed alongside the tracer, join/LGC sites sample it into counter
// events, and the Chrome export + summary surface them by name.
func TestAncestryCountersReachTrace(t *testing.T) {
	tracer := trace.NewTracer(4, 1<<14)
	rt := New(Config{Procs: 4, HeapBudgetWords: 2048, Tracer: tracer})
	if rt.tree.Stats == nil {
		t.Fatal("tracer installed but Tree.Stats not wired")
	}
	trace.Enable()
	_, err := rt.Run(randomProgram(11, 6, true))
	trace.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if rt.tree.Stats.AncestryQueries.Load() == 0 {
		t.Fatal("entangled run consulted no ancestry oracle")
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tracer); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ancestry_queries"`) {
		t.Fatal("ancestry_queries track missing from Chrome export")
	}
	s, err := trace.Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if max, ok := s.CounterMax[trace.CtrAncestryQueries]; !ok || max == 0 {
		t.Fatalf("ancestry_queries missing from trace summary: %v", s.CounterMax)
	}
}

// TestElisionCountersReachTrace drives the unchecked accessors under a
// small budget with tracing on and checks the elision counters flow end
// to end: task-local counts drain into the runtime totals, collection
// sites sample them into counter events, and the summary surfaces them by
// name alongside ancestry_queries.
func TestElisionCountersReachTrace(t *testing.T) {
	tracer := trace.NewTracer(2, 1<<14)
	rt := New(Config{Procs: 1, HeapBudgetWords: 512, Tracer: tracer})
	rt.SetStaticRegions(3)
	trace.Enable()
	_, err := rt.Run(func(tk *Task) mem.Value {
		r := tk.AllocRefFast(mem.Int(0))
		for i := 0; i < 2000; i++ {
			tk.WriteFast(r, 0, mem.Int(tk.ReadFast(r, 0).AsInt()+1))
			r = tk.AllocRefFast(tk.ReadFast(r, 0))
		}
		return tk.ReadFast(r, 0)
	})
	trace.Disable()
	if err != nil {
		t.Fatal(err)
	}
	es := rt.ElisionStats()
	if es.StaticRegions != 3 || es.ElidedLoads == 0 || es.ElidedStores == 0 || es.ElidedAllocs == 0 {
		t.Fatalf("elision totals not accumulated: %+v", es)
	}
	if s := rt.EntStats(); s.SlowReads != 0 {
		t.Fatalf("unchecked accessors entered the slow path %d times", s.SlowReads)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tracer); err != nil {
		t.Fatal(err)
	}
	s, err := trace.Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []trace.Counter{trace.CtrStaticRegions, trace.CtrElidedLoads, trace.CtrElidedStores} {
		if max, ok := s.CounterMax[c]; !ok || max == 0 {
			t.Fatalf("%v missing from trace summary: %v", c, s.CounterMax)
		}
	}
}

// TestAncestryEndToEnd runs the entangled stress workload through the
// runtime in both heap modes, checks results and pin accounting against a
// sequential baseline, and then checks the ancestry oracle on the trees
// the real scheduler built — steals, lazy heaps and merges included —
// against a walk of Heap.Parent links over every pair of heaps the run
// created.
func TestAncestryEndToEnd(t *testing.T) {
	for _, seed := range []uint64{5, 17} {
		prog := randomProgram(seed, 6, true)
		var want int64
		{
			rt := New(Config{Procs: 1})
			v, err := rt.Run(prog)
			if err != nil {
				t.Fatalf("seed %d: baseline: %v", seed, err)
			}
			want = v.AsInt()
		}
		for _, lazy := range []bool{false, true} {
			rt := New(Config{Procs: 4, HeapBudgetWords: 2048, LazyHeaps: lazy})
			v, err := rt.Run(prog)
			if err != nil {
				t.Fatalf("seed %d lazy %v: %v", seed, lazy, err)
			}
			if v.AsInt() != want {
				t.Fatalf("seed %d lazy %v: result %d, want %d", seed, lazy, v.AsInt(), want)
			}
			if s := rt.EntStats(); s.Pins != s.Unpins {
				t.Fatalf("seed %d lazy %v: pins %d != unpins %d", seed, lazy, s.Pins, s.Unpins)
			}
			checkAncestryAgainstWalk(t, rt.tree, fmt.Sprintf("seed %d lazy %v", seed, lazy))
		}
	}
}

// checkAncestryAgainstWalk compares IsAncestor and LCADepth over every
// pair of heaps in tr with answers computed by walking parent links.
func checkAncestryAgainstWalk(t *testing.T, tr *hierarchy.Tree, what string) {
	t.Helper()
	// Lazy-heap runs create heaps only at steals, so without a steal the
	// tree is just the root; the eager runs always fork the full tree.
	n := tr.Count()
	t.Logf("%s: checking %d heaps", what, n)
	heaps := make([]*hierarchy.Heap, n)
	for i := range heaps {
		heaps[i] = tr.Get(uint32(i + 1))
	}
	for _, a := range heaps {
		for _, b := range heaps {
			anc := false
			for x := b; x != nil; x = x.Parent() {
				if x == a {
					anc = true
					break
				}
			}
			if got := tr.IsAncestor(a, b); got != anc {
				t.Fatalf("%s: IsAncestor(%d,%d) = %v, parent walk says %v", what, a.ID, b.ID, got, anc)
			}
			x, y := a, b
			for x.Depth() > y.Depth() {
				x = x.Parent()
			}
			for y.Depth() > x.Depth() {
				y = y.Parent()
			}
			for x != y {
				x, y = x.Parent(), y.Parent()
			}
			if got := tr.LCADepth(a, b); got != x.Depth() {
				t.Fatalf("%s: LCADepth(%d,%d) = %d, parent walk says %d", what, a.ID, b.ID, got, x.Depth())
			}
		}
	}
}
