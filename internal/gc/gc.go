// Package gc implements the hierarchical local collector (LGC) of the
// runtime: a Cheney-style copying collection of the exclusive suffix of a
// task's heap path, extended — per the paper — to tolerate entanglement:
//
//   - Pinned objects (entangled, per package entangle) are traced in place:
//     they are never moved nor reclaimed; chunks holding pinned objects are
//     retained whole. This is the space cost of entanglement, and it is
//     bounded: joins unpin (package hierarchy), after which the memory is
//     reclaimed by ordinary collections.
//   - Down-pointers into the collected suffix, recorded by the write
//     barrier in per-heap remembered sets, act as roots; the fields they
//     describe are updated to the targets' new locations *before* the heap
//     gates reopen (hierarchy.Gate.EndCollect), which is what makes the
//     read barrier's pin-then-validate protocol sound.
//   - Remembered sets are rebuilt during the scan so entries never go
//     stale: internal entries are re-derived from surviving objects,
//     external ones are revalidated against the holder's current field.
//
// Collections happen at allocation points of the owning task, so the
// mutator of the collected heaps is stopped; concurrent tasks can touch the
// suffix only through entangled (pinned) objects or slow paths parked at
// the collection gate. There is no mutex: each scope heap's Gate is closed
// for the duration (BeginCollect waits out in-flight entanglement slow
// paths), per-object claims go through the header state machine
// (mem.BeginCopy / mem.Forward), and the publication buffers are drained
// into the owner-only views at the start.
package gc

import (
	"runtime"
	"sync/atomic"

	"mplgo/internal/chaos"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

// Result reports what one collection did.
type Result struct {
	ScopeHeaps     int
	CopiedObjects  int64
	CopiedWords    int64
	ReclaimedWords int64
	RetainedChunks int   // chunks kept alive only because they hold pins
	PinnedTraced   int64 // pinned objects traced in place
}

// Trigger returns how many words a heap may allocate after a collection
// before the next one: the budget, or the words that survived that
// collection if more. Go's GOGC=100 rule: a collection copies what
// survived, so letting at least as much allocation pass between
// collections keeps copy work at amortized O(1) per allocated word,
// where a fixed budget makes it grow with the live heap (quadratic in
// total for a growing one). Both copying collectors use it: core's local
// collections per task and globalrt's semispace baseline.
func Trigger(budget, survivors int64) int64 { return max(budget, survivors) }

// Collector performs local collections for one runtime instance.
type Collector struct {
	Space *mem.Space
	Tree  *hierarchy.Tree

	// Totals across all collections. Atomic: distinct tasks collect their
	// own heaps concurrently (with chaos-forced triggers, often).
	Collections    atomic.Int64
	CopiedWords    atomic.Int64
	ReclaimedWords atomic.Int64
	// RetainedChunks totals chunks kept alive across collections only
	// because they hold pinned (entangled) objects: the paper's transient
	// space cost of entanglement, surfaced through Runtime stats.
	RetainedChunks atomic.Int64
}

// New creates a collector.
func New(space *mem.Space, tree *hierarchy.Tree) *Collector {
	return &Collector{Space: space, Tree: tree}
}

// run is the per-collection state.
type run struct {
	c          *Collector
	scope      map[uint32]*hierarchy.Heap
	order      []*hierarchy.Heap // scope heaps, shallowest first (lock order)
	toAlloc    map[uint32]*mem.Allocator
	queue      []mem.Ref // gray objects: copied or pinned, payload unscanned
	marked     []mem.Ref // pinned objects marked this cycle (marks cleared at end)
	newRemsets map[uint32][]hierarchy.RememberedEntry
	res        Result
}

// Collect collects the given heaps, which must be an exclusive suffix as
// produced by Tree.ExclusiveSuffix (leaf first). It returns statistics.
func (c *Collector) Collect(scope []*hierarchy.Heap) Result {
	if len(scope) == 0 {
		return Result{}
	}
	r := &run{
		c:       c,
		scope:   make(map[uint32]*hierarchy.Heap, len(scope)),
		toAlloc: make(map[uint32]*mem.Allocator, len(scope)),
	}
	// Close the gates shallowest-first (entanglement slow paths never hold
	// one gate while entering another, so any order is deadlock-free; this
	// one matches the old lock order for easy comparison), then fold the
	// lock-free publication buffers into the owner-only views: with the
	// gate closed, no reader can be mid-publication, so the drained Pinned
	// and Remset slices are complete.
	// WaitBeginCollect rather than BeginCollect since CGC: the concurrent
	// collector's gate flushes briefly close every live heap's gate, and
	// an LGC racing one must wait the flush out, not panic.
	for i := len(scope) - 1; i >= 0; i-- {
		h := scope[i]
		h.Gate.WaitBeginCollect()
		h.DrainBuffers()
		// Chunks the concurrent sweep queued for allocation reuse are
		// about to be evacuated or released; they must not linger as
		// carving targets.
		h.DrainReusable(nil)
		r.order = append(r.order, h)
	}
	defer func() {
		for i := len(r.order) - 1; i >= 0; i-- {
			r.order[i].Gate.EndCollect()
		}
	}()

	var oldChunks []*mem.Chunk
	var oldWords int64
	for _, h := range scope {
		r.scope[h.ID] = h
		r.toAlloc[h.ID] = mem.NewAllocator(c.Space, h.ID)
		oldChunks = append(oldChunks, h.Chunks...)
		for _, ch := range h.Chunks {
			oldWords += int64(ch.Words())
		}
	}
	r.res.ScopeHeaps = len(scope)

	// Phase 1: roots.
	r.newRemsets = make(map[uint32][]hierarchy.RememberedEntry, len(scope))
	r.scanShadowStacks()
	r.processRemsets()
	r.tracePinned()

	// Phase 2: transitive copy/trace.
	r.drain()

	// Phase 3: install rebuilt remsets, swap chunk lists, release from-space.
	var retainedOldWords int64
	for _, h := range scope {
		h.Remset = r.newRemsets[h.ID]
		var kept []*mem.Chunk
		for _, ch := range h.Chunks {
			if ch.PinCount > 0 {
				kept = append(kept, ch)
				retainedOldWords += int64(ch.Words())
				r.res.RetainedChunks++
			} else {
				c.Space.Release(ch)
			}
		}
		to := r.toAlloc[h.ID]
		to.Flush()
		kept = append(kept, to.Chunks...)
		h.Chunks = kept
		h.Collections++
	}
	// Clear transient marks on pinned objects.
	for _, p := range r.marked {
		c.Space.ClearMark(p)
	}
	r.res.ReclaimedWords = oldWords - retainedOldWords
	scope[0].CopiedWords += r.res.CopiedWords
	c.Collections.Add(1)
	c.CopiedWords.Add(r.res.CopiedWords)
	c.ReclaimedWords.Add(r.res.ReclaimedWords)
	c.RetainedChunks.Add(int64(r.res.RetainedChunks))
	return r.res
}

// scanShadowStacks forwards every root of every task attached to the scope.
func (r *run) scanShadowStacks() {
	for _, h := range r.order {
		for _, rs := range h.RootSets {
			rs.Roots(func(p *mem.Value) {
				*p = r.forward(*p)
			})
		}
	}
}

// processRemsets uses down-pointer entries as roots and begins the rebuilt
// remembered sets with the still-valid external entries.
func (r *run) processRemsets() {
	out := r.newRemsets
	type key struct {
		h mem.Ref
		i int
	}
	seen := make(map[key]bool)
	for _, h := range r.order {
		for _, e := range h.Remset {
			k := key{e.Holder, e.Index}
			if seen[k] {
				continue
			}
			seen[k] = true
			holderHeap := r.c.Space.HeapOf(e.Holder)
			if _, internal := r.scope[holderHeap]; internal {
				// The holder is being collected too; if it survives, the
				// scan re-derives this entry with the holder's new address.
				continue
			}
			// The concurrent sweep reclaims internal-heap holders in place
			// (KFree) and may later re-carve the span; an entry whose holder
			// no longer parses, was freed, or no longer covers the recorded
			// index is stale and must not be dereferenced.
			hd := r.c.Space.Header(e.Holder)
			if !hd.Valid() || hd.Kind() == mem.KFree {
				continue
			}
			if hn := max(hd.Len(), 1); e.Index < 0 || e.Index >= hn {
				continue
			}
			v := r.c.Space.Load(e.Holder, e.Index)
			if !v.IsRef() {
				continue // field was overwritten; entry is dead
			}
			tgtHeap := r.c.Space.HeapOf(v.Ref())
			if _, in := r.scope[tgtHeap]; !in {
				continue // no longer points into the suffix
			}
			nv := r.forward(v)
			if nv != v {
				r.c.Space.Store(e.Holder, e.Index, nv)
			}
			// The entry survives, indexed by the target's (unchanged) heap.
			curTgt := r.c.Space.HeapOf(nv.Ref())
			out[curTgt] = append(out[curTgt], e)
		}
	}
}

// tracePinned greys every pinned object of the scope: pinned objects are
// unconditionally live (a concurrent task may hold them) and traced in
// place.
func (r *run) tracePinned() {
	for _, h := range r.order {
		for _, p := range h.Pinned {
			hd := r.c.Space.Header(p)
			if !hd.Pinned() || hd.Kind() == mem.KForward {
				continue
			}
			if r.c.Space.SetMark(p) {
				r.marked = append(r.marked, p)
				r.queue = append(r.queue, p)
				r.res.PinnedTraced++
			}
		}
	}
}

// forward returns the value to use in place of v after collection: copies
// unpinned scope objects to to-space (installing forwarding), leaves pinned
// and out-of-scope objects alone.
func (r *run) forward(v mem.Value) mem.Value {
	if !v.IsRef() {
		return v
	}
	ref := v.Ref()
	h, in := r.scope[r.c.Space.HeapOf(ref)]
	if !in {
		return v
	}
	// Claim the object through the header state machine. With the scope
	// gates closed no pin can race us here, but the discipline is what
	// makes the protocol auditable: a copy only ever starts from a
	// successful PLAIN→BUSY transition, and every refusal tells us why.
	hd, ok := r.c.Space.BeginCopy(ref)
	if !ok {
		switch {
		case hd.Kind() == mem.KForward:
			return r.c.Space.Load(ref, 0)
		case hd.Pinned():
			if r.c.Space.SetMark(ref) {
				r.marked = append(r.marked, ref)
				r.queue = append(r.queue, ref)
				r.res.PinnedTraced++
			}
			return v
		default:
			// BUSY is unreachable: this collector is the only copier of
			// its scope and completes each claim before the next.
			panic("gc: BeginCopy refused a plain header")
		}
	}
	if ch := r.c.Space.Chaos; ch != nil && ch.Should(chaos.BusyWindow) {
		// Stretch the transient BUSY window so concurrent pinners dwell in
		// their PinBusy back-off/retry loops.
		for i := ch.Spin(chaos.BusyWindow); i > 0; i-- {
			runtime.Gosched()
		}
	}
	// Copy to the object's own heap's to-space, preserving heap membership
	// and header flags (candidate survives the move).
	n := hd.Len()
	al := r.toAlloc[h.ID]
	nr := al.Alloc(hd.Kind(), n)
	// Copy header flags (kind and length were set by Alloc).
	if hd.Candidate() {
		r.c.Space.SetCandidate(nr)
	}
	if hd.Kind() == mem.KRaw {
		for i := 0; i < n; i++ {
			r.c.Space.StoreRaw(nr, i, r.c.Space.LoadRaw(ref, i))
		}
	} else {
		for i := 0; i < n; i++ {
			r.c.Space.Store(nr, i, r.c.Space.Load(ref, i))
		}
	}
	r.c.Space.Forward(ref, nr)
	r.res.CopiedObjects++
	r.res.CopiedWords += int64(n + 1)
	r.queue = append(r.queue, nr)
	return nr.Value()
}

// drain scans grey objects until none remain, forwarding their fields and
// re-deriving internal down-pointer remembered entries.
func (r *run) drain() {
	sp := r.c.Space
	for len(r.queue) > 0 {
		q := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		hd := sp.Header(q)
		if !hd.Kind().Scanned() {
			continue
		}
		qHeap := r.scope[sp.HeapOf(q)]
		for i := 0; i < hd.Len(); i++ {
			v := sp.Load(q, i)
			nv := r.forward(v)
			if nv != v {
				sp.Store(q, i, nv)
			}
			// Re-derive internal down-pointer entries: q (depth d1)
			// points at a strictly deeper scope heap (depth d2 > d1).
			if nv.IsRef() && qHeap != nil {
				tgt, in := r.scope[sp.HeapOf(nv.Ref())]
				if in && tgt != qHeap && tgt.Depth() > qHeap.Depth() {
					r.newRemsets[tgt.ID] = append(r.newRemsets[tgt.ID],
						hierarchy.RememberedEntry{Holder: q, Index: i})
				}
			}
		}
	}
}
