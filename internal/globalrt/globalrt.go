// Package globalrt is the non-hierarchical baseline runtime: a single
// global heap with a semispace copying collector. It plays two roles in
// the experiments (DESIGN.md, substitutions):
//
//   - Sequential baseline ("MLton" in the paper's tables): the same object
//     model and allocator as the hierarchical runtime, but one heap, no
//     barriers, no parallelism. Its times are the Tₛ denominators of the
//     overhead columns.
//   - Stop-the-world parallel model: Par executes its branches
//     sequentially while recording the fork–join DAG; collection work is
//     accumulated separately (GCWork) because a global collector runs with
//     all mutators stopped. The experiment tables derive the modeled
//     parallel time as T_P = W_mutator/P + W_gc + c·S, which is what makes
//     the hierarchical runtime's independently-collected heaps win.
package globalrt

import (
	"mplgo/internal/gc"
	"mplgo/internal/mem"
	"mplgo/internal/sim"
)

// Runtime is a sequential global-heap runtime instance.
type Runtime struct {
	space   *mem.Space
	al      *mem.Allocator
	slots   []mem.Value
	budget  int64
	sinceGC int64
	gcAt    int64     // sinceGC at which to collect (gc.Trigger)
	node    *sim.Node // recording segment, nil when off
	trace   *sim.Node

	// Collections counts semispace collections.
	Collections int64
	// CopiedWords counts words copied by collections.
	CopiedWords int64
	// GCWork is the abstract cost of all collections (serialized in the
	// stop-the-world parallel model).
	GCWork int64
}

// heapID is the single heap's id within the space (ids are arbitrary here;
// the hierarchy is absent).
const heapID = 1

// New creates a runtime with the given collection budget in words
// (<=0 selects the default, 1<<17).
func New(budgetWords int64) *Runtime {
	if budgetWords <= 0 {
		budgetWords = 1 << 17
	}
	sp := mem.NewSpace()
	return &Runtime{space: sp, al: mem.NewAllocator(sp, heapID), budget: budgetWords, gcAt: budgetWords}
}

// NewRecording creates a runtime that records the fork–join DAG for the
// stop-the-world parallel model.
func NewRecording(budgetWords int64) *Runtime {
	r := New(budgetWords)
	r.trace = sim.NewTrace()
	r.node = r.trace
	return r
}

// Trace returns the recorded DAG, or nil.
func (r *Runtime) Trace() *sim.Node { return r.trace }

// Space exposes the underlying space (for residency statistics). The
// allocator publishes its count first, so TotalAllocWords is exact.
func (r *Runtime) Space() *mem.Space {
	r.al.Flush()
	return r.space
}

// MaxLiveWords reports the space high-water mark.
func (r *Runtime) MaxLiveWords() int64 { return r.space.MaxLiveWords() }

// Work records abstract computational cost (mutator work).
func (r *Runtime) Work(n int64) {
	if r.node != nil {
		r.node.Work += n
	}
}

// Par evaluates f and g — sequentially, this is the baseline — recording
// a fork in the DAG so the parallel model sees the program's parallelism.
// The left result is rooted across g: g's allocations may trigger a
// collection, and unlike the hierarchical runtime there is only one heap.
func (r *Runtime) Par(f, g func(*Runtime) mem.Value) (mem.Value, mem.Value) {
	var l, rn, after *sim.Node
	saved := r.node
	if saved != nil {
		l, rn, after = saved.Fork()
		r.node = l
	}
	lv := f(r)
	fr := r.NewFrame(1)
	fr.Set(0, lv)
	if saved != nil {
		r.node = rn
	}
	gv := g(r)
	lv = fr.Get(0)
	fr.Pop()
	if saved != nil {
		r.node = after
	}
	return lv, gv
}

// ParFor runs body over [lo, hi), splitting like the parallel runtime.
func (r *Runtime) ParFor(lo, hi, grain int, body func(r *Runtime, lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	if hi-lo <= grain {
		body(r, lo, hi)
		return
	}
	mid := lo + (hi-lo)/2
	r.Par(
		func(r *Runtime) mem.Value { r.ParFor(lo, mid, grain, body); return mem.Nil },
		func(r *Runtime) mem.Value { r.ParFor(mid, hi, grain, body); return mem.Nil },
	)
}

// Frame is a shadow-stack window, as in the hierarchical runtime.
type Frame struct {
	r    *Runtime
	base int
	n    int
}

// NewFrame pushes a frame of n root slots.
func (r *Runtime) NewFrame(n int) Frame {
	base := len(r.slots)
	for i := 0; i < n; i++ {
		r.slots = append(r.slots, mem.Nil)
	}
	return Frame{r: r, base: base, n: n}
}

// Set stores v in slot i.
func (f Frame) Set(i int, v mem.Value) {
	if i < 0 || i >= f.n {
		panic("globalrt: frame index out of range")
	}
	f.r.slots[f.base+i] = v
}

// Get returns slot i.
func (f Frame) Get(i int) mem.Value { return f.r.slots[f.base+i] }

// Ref returns slot i as a reference.
func (f Frame) Ref(i int) mem.Ref { return f.Get(i).Ref() }

// Pop releases the frame (LIFO).
func (f Frame) Pop() {
	if len(f.r.slots) != f.base+f.n {
		panic("globalrt: non-LIFO frame pop")
	}
	f.r.slots = f.r.slots[:f.base]
}

// guardedGC collects when allocation since the last collection reaches
// the trigger (the same rule as local collections), keeping vs updated.
func (r *Runtime) guardedGC(vs []mem.Value) {
	if r.sinceGC < r.gcAt {
		return
	}
	f := r.NewFrame(len(vs))
	for i, v := range vs {
		f.Set(i, v)
	}
	r.collect()
	for i := range vs {
		vs[i] = f.Get(i)
	}
	f.Pop()
}

// collect performs a semispace copying collection of the whole heap.
func (r *Runtime) collect() {
	old := r.al.Chunks
	oldSet := make(map[uint32]bool, len(old))
	for _, c := range old {
		oldSet[c.ID] = true
	}
	to := mem.NewAllocator(r.space, heapID)
	var queue []mem.Ref
	var copied int64

	forward := func(v mem.Value) mem.Value {
		if !v.IsRef() {
			return v
		}
		ref := v.Ref()
		if !oldSet[ref.Chunk()] {
			return v
		}
		hd := r.space.Header(ref)
		if hd.Kind() == mem.KForward {
			return r.space.Load(ref, 0)
		}
		n := hd.Len()
		nr := to.Alloc(hd.Kind(), n)
		if hd.Kind() == mem.KRaw {
			for i := 0; i < n; i++ {
				r.space.StoreRaw(nr, i, r.space.LoadRaw(ref, i))
			}
		} else {
			for i := 0; i < n; i++ {
				r.space.Store(nr, i, r.space.Load(ref, i))
			}
		}
		r.space.Forward(ref, nr)
		copied += int64(n + 1)
		queue = append(queue, nr)
		return nr.Value()
	}

	for i := range r.slots {
		r.slots[i] = forward(r.slots[i])
	}
	for len(queue) > 0 {
		q := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		hd := r.space.Header(q)
		if !hd.Kind().Scanned() {
			continue
		}
		for i := 0; i < hd.Len(); i++ {
			v := r.space.Load(q, i)
			if nv := forward(v); nv != v {
				r.space.Store(q, i, nv)
			}
		}
	}
	for _, c := range old {
		r.space.Release(c)
	}
	r.al.Flush()
	to.Flush()
	r.al = to
	r.sinceGC = 0
	r.gcAt = gc.Trigger(r.budget, copied)
	r.Collections++
	r.CopiedWords += copied
	r.GCWork += copied
}

func (r *Runtime) bump(words int64) {
	r.sinceGC += words
	// Same shaped allocation cost as the hierarchical runtime (see
	// core.allocCost) so recorded DAGs are comparable.
	const linear = 256
	w := words
	if w > linear {
		w = linear + (w-linear)/32
	}
	r.Work(w)
}

// AllocTuple allocates an immutable tuple.
func (r *Runtime) AllocTuple(vs ...mem.Value) mem.Ref {
	r.guardedGC(vs)
	ref := r.al.AllocTuple(vs...)
	r.bump(int64(len(vs)) + 1)
	return ref
}

// AllocArray allocates a mutable array of n slots initialized to v.
func (r *Runtime) AllocArray(n int, v mem.Value) mem.Ref {
	vs := [1]mem.Value{v}
	r.guardedGC(vs[:])
	ref := r.al.AllocArray(n, vs[0])
	r.bump(int64(n) + 1)
	return ref
}

// AllocRef allocates a mutable ref cell.
func (r *Runtime) AllocRef(v mem.Value) mem.Ref {
	vs := [1]mem.Value{v}
	r.guardedGC(vs[:])
	ref := r.al.AllocRef(vs[0])
	r.bump(2)
	return ref
}

// AllocString allocates an immutable string object.
func (r *Runtime) AllocString(s string) mem.Ref {
	r.guardedGC(nil)
	ref := r.al.AllocString(s)
	r.bump(int64(2 + (len(s)+7)/8))
	return ref
}

// StringOf decodes a string object.
func (r *Runtime) StringOf(ref mem.Ref) string { return r.space.LoadString(ref) }

// Length returns the payload length of the object at ref.
func (r *Runtime) Length(ref mem.Ref) int { return int(r.space.Header(ref).Len()) }

// Read loads payload word i (no barrier: there is no hierarchy).
func (r *Runtime) Read(o mem.Ref, i int) mem.Value {
	r.Work(1)
	return r.space.Load(o, i)
}

// Write stores payload word i (no barrier).
func (r *Runtime) Write(o mem.Ref, i int, v mem.Value) {
	r.Work(1)
	r.space.Store(o, i, v)
}

// Deref reads a ref cell.
func (r *Runtime) Deref(cell mem.Ref) mem.Value { return r.Read(cell, 0) }

// Assign writes a ref cell.
func (r *Runtime) Assign(cell mem.Ref, v mem.Value) { r.Write(cell, 0, v) }

// CAS compares-and-swaps payload word i of o (single-threaded here, but
// the benchmarks are written against a common runtime surface).
func (r *Runtime) CAS(o mem.Ref, i int, old, new mem.Value) bool {
	r.Work(1)
	return r.space.CAS(o, i, old, new)
}

// ByteOf reads byte i of a string object.
func (r *Runtime) ByteOf(ref mem.Ref, i int) byte {
	r.Work(1)
	return byte(r.space.LoadRaw(ref, 1+i/8) >> (8 * (i % 8)))
}

// StrLen returns the byte length of a string object.
func (r *Runtime) StrLen(ref mem.Ref) int { return int(r.space.LoadRaw(ref, 0)) }
