// Package entangle implements the paper's primary contribution: managing
// entanglement at the granularity of memory objects, so that programs with
// unrestricted effects run correctly on a hierarchical heap while
// disentangled objects are shielded from the cost.
//
// Terminology (paper §2–4):
//
//   - A *down-pointer* is a pointer stored into an object of a shallower
//     heap, pointing at an object of a deeper heap on the same path.
//   - An object is an *entanglement candidate* (header candidate bit) when
//     reading through it may yield a pointer to a concurrent heap: either a
//     down-pointer was written into it, or it was itself acquired through
//     an entangled read. Reads of non-candidate objects take the fast path
//     — a single header test — which is how disentangled data stays cheap.
//   - An *entangled read* occurs when a task dereferences a pointer whose
//     target lives in a heap that is not an ancestor of the task's leaf.
//     The target is *pinned*: the moving local collector may neither
//     relocate nor reclaim it until its *unpin depth* — the depth of the
//     least common ancestor of the reader and the target's heap — is
//     reached by joins.
//   - An *entangled write* stores a pointer into an object of a concurrent
//     heap, publishing the target to that side; the target is pinned
//     immediately, since concurrent readers may acquire it at any time.
//
// The barriers below are lock-free: a pin is a single CAS on the object
// header (mem.PinHeader), ordered against concurrent copying by the header
// state machine, and ordered against the bulk phases of a collection or
// merge by the owning heap's reader gate (hierarchy.Gate) — one atomic add
// to enter, one to leave. No mutex is acquired anywhere on the OnRead or
// OnWrite path.
package entangle

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"mplgo/internal/gc"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// Mode selects how the runtime responds to entanglement.
type Mode int

const (
	// Manage pins entangled objects and lets the program proceed: the
	// paper's contribution.
	Manage Mode = iota
	// Detect reports entanglement as an error, reproducing the behavior of
	// MPL before this paper (detect-and-abort). For memory safety the
	// manager still pins on detection — execution unwinds cooperatively
	// rather than stopping the world — but the computation's result is
	// replaced by the error, which is the observable "abort".
	Detect
	// Unsafe disables the barriers entirely; only meaningful for
	// disentangled programs, used by the ablation experiments to price
	// the barrier fast paths.
	Unsafe
)

func (m Mode) String() string {
	switch m {
	case Manage:
		return "manage"
	case Detect:
		return "detect"
	case Unsafe:
		return "unsafe"
	}
	return "invalid"
}

// ErrEntangled is returned (wrapped) when Mode is Detect and the program
// entangles.
var ErrEntangled = errors.New("entanglement detected")

// counter is an atomic counter padded out to its own cache line. The
// stats are bumped from the barrier slow paths of every worker at once;
// without padding, eight counters share one 64-byte line and every
// increment invalidates the line for all other workers (false sharing).
type counter struct {
	atomic.Int64
	_ [56]byte
}

// Stats holds the paper's entanglement cost metrics.
type Stats struct {
	DownPointers    counter // down-pointer writes remembered
	Candidates      counter // objects newly marked candidate
	EntangledReads  counter // reads that found a concurrent object
	EntangledWrites counter // writes into concurrent objects
	SlowReads       counter // reads that took the slow path at all
	Pins            counter // objects newly pinned
	Unpins          counter // objects unpinned at joins
	PinnedPeak      counter // high-water mark of PinnedNow()
	PinnedBytesNow  counter // bytes (header+payload) currently pinned (gauge)
	PinnedBytesPeak counter // high-water mark of PinnedBytesNow
}

// PinnedNow returns the number of currently pinned objects. It is not a
// counter of its own: every pin bumps Pins and every unpin bumps Unpins,
// so the gauge is their difference — one less atomic on the pin path.
func (s *Stats) PinnedNow() int64 { return s.Pins.Load() - s.Unpins.Load() }

// pinnedBytes adjusts the pinned-bytes gauge (negative deltas at joins).
func (s *Stats) pinnedBytes(delta int64) { s.PinnedBytesNow.Add(delta) }

// pinned records one new pin of an object occupying the given bytes, and
// folds both gauges into their high-water marks at the pin site itself.
//
// Peaks must be captured here, not deferred to the joins where the gauges
// fall: joins run concurrently with pins, so a deferred capture can read
// the gauge after a racing join's decrement and miss the true maximum
// entirely (in the worst case every capture lands post-decrement and the
// reported peak is zero while real pins were live). Capturing from the
// atomic Add's return value can never over-report either — the value
// pins - Unpins.Load() is at most the instantaneous gauge, because Unpins
// only grows. peakMax is a CAS loop, so concurrent pin sites fold their
// candidates in without losing updates.
func (s *Stats) pinned(bytes int64) {
	pins := s.Pins.Add(1)
	peakMax(&s.PinnedPeak, pins-s.Unpins.Load())
	peakMax(&s.PinnedBytesPeak, s.PinnedBytesNow.Add(bytes))
}

// capturePeaks folds the current gauge values into the high-water marks;
// a Snapshot-time backstop (the pin sites already capture every maximum).
func (s *Stats) capturePeaks() {
	peakMax(&s.PinnedPeak, s.PinnedNow())
	peakMax(&s.PinnedBytesPeak, s.PinnedBytesNow.Load())
}

func peakMax(peak *counter, n int64) {
	for {
		p := peak.Load()
		if n <= p || peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// Snapshot returns a plain-struct copy for reporting.
func (s *Stats) Snapshot() StatsSnapshot {
	s.capturePeaks()
	return StatsSnapshot{
		DownPointers:    s.DownPointers.Load(),
		Candidates:      s.Candidates.Load(),
		EntangledReads:  s.EntangledReads.Load(),
		EntangledWrites: s.EntangledWrites.Load(),
		SlowReads:       s.SlowReads.Load(),
		Pins:            s.Pins.Load(),
		Unpins:          s.Unpins.Load(),
		PinnedPeak:      s.PinnedPeak.Load(),
		PinnedPeakBytes: s.PinnedBytesPeak.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	DownPointers    int64
	Candidates      int64
	EntangledReads  int64
	EntangledWrites int64
	SlowReads       int64
	Pins            int64
	Unpins          int64
	PinnedPeak      int64
	PinnedPeakBytes int64
}

// Manager coordinates entanglement bookkeeping for one runtime instance.
type Manager struct {
	Space *mem.Space
	Tree  *hierarchy.Tree
	Mode  Mode
	Stats Stats

	// SATB, when non-nil, is the concurrent collector's deletion barrier
	// (gc.CGC): every mutator store runs ShadeOverwritten before the raw
	// store so references deleted while the collector is marking are kept
	// in its snapshot. Set once at runtime construction, before any task
	// runs; nil whenever the concurrent collector is off.
	SATB *gc.CGC
}

// New creates a manager.
func New(space *mem.Space, tree *hierarchy.Tree, mode Mode) *Manager {
	return &Manager{Space: space, Tree: tree, Mode: mode}
}

// heapOf returns the heap currently owning r. The result can be stale the
// moment it is returned (a merge can flip chunk ownership concurrently),
// or nil/dead for a ref whose chunk was released or whose heap merged
// away; callers re-validate ownership under the heap's reader gate before
// acting on it.
func (m *Manager) heapOf(r mem.Ref) *hierarchy.Heap {
	return m.Tree.Get(m.Space.HeapOf(r))
}

// ShadeOverwritten is the snapshot-at-the-beginning deletion barrier of
// the concurrent collector: called before a store to payload word i of o,
// it shades the reference the store is about to overwrite if that
// reference lies in a heap the collector is marking. The push happens
// under the writer's own reader gate, bracketing the phase re-check — the
// collector's marking-termination gate flush relies on exactly this to
// observe every in-flight shade. The companion bookkeeping for the stored
// value itself is OnWrite below; the two are independent barriers.
func (m *Manager) ShadeOverwritten(leaf *hierarchy.Heap, o mem.Ref, i int) {
	g := m.SATB
	if g == nil || !g.Marking() {
		return
	}
	old := m.Space.Load(o, i)
	if !old.IsRef() || !g.InScope(old.Ref()) {
		return
	}
	leaf.Gate.EnterReader()
	if g.Marking() {
		g.Shade(old.Ref())
	}
	leaf.Gate.ExitReader()
}

// OnWrite performs the write-barrier bookkeeping for storing the reference
// x into payload word i of object o, by a task whose leaf heap is leaf.
// (When the concurrent collector is on, the caller also runs the
// ShadeOverwritten deletion barrier; OnWrite itself only classifies the
// stored edge.)
// It must run BEFORE the raw store: the candidate bit must be visible to
// any reader that can observe the new pointer. The caller has already
// filtered the same-heap fast path and non-reference values.
func (m *Manager) OnWrite(leaf *hierarchy.Heap, o mem.Ref, i int, x mem.Ref) error {
	oh := m.heapOf(o)
	xh := m.heapOf(x)
	if oh == xh {
		return nil
	}
	switch {
	case m.Tree.IsAncestor(xh, oh):
		// Up-pointer: always disentangled, nothing to record.
		return nil
	case m.Tree.IsAncestor(oh, xh):
		// Down-pointer: remember it for collections of xh's suffix, and
		// mark the holder so reads through it take the slow path. The
		// candidate bit is set before the caller's store, so a reader
		// that sees the new pointer also sees the bit (both are
		// sequentially consistent atomics).
		if m.Space.SetCandidate(o) {
			m.Stats.Candidates.Add(1)
		}
		if xh == leaf {
			// The target lives in the writer's own heap — the common case
			// for publishing freshly allocated objects (producer/consumer
			// pipelines). Only this strand drains, collects or merges leaf,
			// so the entry goes straight into the owner-only view: no gate,
			// no atomics.
			leaf.AddRememberedLocal(o, i)
		} else {
			m.publishRemembered(oh, xh, o, i, x)
		}
		m.Stats.DownPointers.Add(1)
		return nil
	default:
		// Cross-pointer: either o lives in a heap concurrent with the
		// writer (it was itself acquired through entanglement), or o is
		// the writer's own object receiving a pointer to a concurrent
		// one. Storing x publishes it: pin x now, because the other side
		// can read it without further synchronization — and mark the
		// holder, so reads through it take the slow path (the holder now
		// contains an entangled pointer, making it a candidate by the
		// paper's definition).
		if m.Space.SetCandidate(o) {
			m.Stats.Candidates.Add(1)
		}
		m.Stats.EntangledWrites.Add(1)
		unpin := m.Tree.LCADepth(oh, xh)
		if u := m.Tree.UnpinDepth(leaf, xh); u < unpin {
			unpin = u
		}
		m.pinEntangled(leaf, x, unpin)
		if m.Mode == Detect {
			return fmt.Errorf("write into concurrent object %v: %w", o, ErrEntangled)
		}
		return nil
	}
}

// publishRemembered records the down-pointer (o, i) → x with x's owning
// heap, entering the owner's reader gate so the entry cannot be lost to a
// racing merge: a push made inside the gate is always seen by the next
// DrainBuffers. If the target's heap merges underneath us, the entry is
// republished against the live owner — or dropped once the target shares
// the holder's heap (an intra-heap pointer needs no remembering).
func (m *Manager) publishRemembered(oh, xh *hierarchy.Heap, o mem.Ref, i int, x mem.Ref) {
	for {
		if xh == nil || xh.Dead() || xh == oh {
			if xh == oh {
				return
			}
			runtime.Gosched()
			xh = m.heapOf(x)
			continue
		}
		xh.Gate.EnterReader()
		ok := m.Space.HeapOf(x) == xh.ID
		if ok {
			xh.AddRemembered(o, i)
		}
		xh.Gate.ExitReader()
		if ok {
			return
		}
		xh = m.heapOf(x)
	}
}

// OnRead performs the read-barrier slow path: the holder o is a candidate
// and the loaded value v is a reference. It returns the (possibly updated)
// value to use: if a local collection moved the target between the caller's
// load and our pin, re-reading the field yields the object's current
// location. The path is lock-free: one header load for the already-pinned
// fast path; otherwise a gate entry (atomic add), an ownership check, a
// field validation and a single pin CAS.
func (m *Manager) OnRead(leaf *hierarchy.Heap, o mem.Ref, i int, v mem.Value) (mem.Value, error) {
	m.Stats.SlowReads.Add(1)
	leaf.TraceRing.Emit(trace.EvSlowRead, int32(leaf.Depth()), uint64(o), 0)
	for {
		x := v.Ref()
		xh := m.heapOf(x)
		if xh == nil || xh.Dead() {
			// Stale ownership: the chunk was released, or its heap merged
			// away, between the caller's load and our lookup. The
			// collection that did it has already updated the field (and a
			// merge re-resolves on the next pass), so reload and retry.
			cur := m.Space.Load(o, i)
			if !cur.IsRef() {
				return cur, nil
			}
			if cur == v {
				runtime.Gosched()
			}
			v = cur
			continue
		}
		if m.Tree.IsAncestor(xh, leaf) {
			// Disentangled: the target is on our root-to-leaf path.
			return v, nil
		}
		// Entangled read. The unpin depth (the LCA with the owner) also
		// bounds the already-pinned fast path below; UnpinDepth serves it
		// from the leaf's one-entry cache — ancestry is immutable, so
		// repeated reads against the same concurrent heap skip the oracle.
		unpin := m.Tree.UnpinDepth(leaf, xh)
		if h := m.Space.Header(x); h.Valid() && h.Kind() != mem.KForward &&
			!h.Busy() && h.Pinned() && h.Candidate() &&
			h.UnpinDepth() <= unpin {
			// Already-pinned fast path: a pin at (or above) our LCA depth
			// cannot be revoked while our strand runs — unpinning at depth
			// d requires a merge into a heap of depth ≤ d, and every such
			// merge point is an ancestor of ours whose join waits for us.
			// The object therefore cannot move or be reclaimed: no gate,
			// no CAS, no publication needed.
			m.Stats.EntangledReads.Add(1)
			leaf.TraceRing.Emit(trace.EvEntangledRead, int32(leaf.Depth()), uint64(x), uint64(unpin))
			if m.Mode == Detect {
				return v, fmt.Errorf("read of concurrent object %v: %w", x, ErrEntangled)
			}
			return v, nil
		}
		// Pin-then-validate under the owner's reader gate, which excludes
		// the bulk phases of its collections and of the merge that would
		// retire it (so xh stays live and its objects stay put while we
		// are inside).
		xh.Gate.EnterReader()
		if m.Space.HeapOf(x) != xh.ID {
			xh.Gate.ExitReader()
			continue // ownership moved; re-resolve
		}
		cur := m.Space.Load(o, i)
		if cur != v {
			// A collection moved the target (and updated the field)
			// before we entered the gate; use the current location.
			xh.Gate.ExitReader()
			if !cur.IsRef() {
				return cur, nil
			}
			v = cur
			continue
		}
		st, h := m.Space.PinHeader(x, unpin)
		if st == mem.PinBusy || st == mem.PinForwarded {
			// A stale copy in a retained from-space chunk (or a copy still
			// in flight elsewhere): chase the forward pointer if it is
			// already installed, otherwise back off and re-resolve.
			xh.Gate.ExitReader()
			if nx, fwd := m.Space.Forwarded(x); fwd {
				v = nx.Value()
			} else {
				runtime.Gosched()
			}
			continue
		}
		if st == mem.PinNew {
			m.Stats.pinned(int64(h.Len()+1) * 8)
			xh.AddPinned(x)
			leaf.TraceRing.Emit(trace.EvPin, int32(leaf.Depth()), uint64(x), uint64(unpin))
		}
		m.Stats.EntangledReads.Add(1)
		leaf.TraceRing.Emit(trace.EvEntangledRead, int32(leaf.Depth()), uint64(x), uint64(unpin))
		// Mark the acquired object so our reads *through* it also take
		// the slow path; anything it leads to is concurrent with us.
		if m.Space.SetCandidate(x) {
			m.Stats.Candidates.Add(1)
		}
		xh.Gate.ExitReader()
		if m.Mode == Detect {
			return v, fmt.Errorf("read of concurrent object %v: %w", x, ErrEntangled)
		}
		return v, nil
	}
}

// pinEntangled pins x at the given unpin depth on the entangled-write
// path, retrying across heap merges. Lock-free: gate entry, ownership
// check, one CAS. leaf (the writer's own heap) is only for event
// attribution — its ring belongs to the strand running this barrier.
func (m *Manager) pinEntangled(leaf *hierarchy.Heap, x mem.Ref, unpin int) {
	for {
		xh := m.heapOf(x)
		if xh == nil || xh.Dead() {
			runtime.Gosched()
			continue // merge in flight; ownership re-resolves to the live heap
		}
		xh.Gate.EnterReader()
		if m.Space.HeapOf(x) != xh.ID {
			xh.Gate.ExitReader()
			continue
		}
		st, h := m.Space.PinHeader(x, unpin)
		if st == mem.PinBusy || st == mem.PinForwarded {
			xh.Gate.ExitReader()
			if nx, fwd := m.Space.Forwarded(x); fwd {
				x = nx
			} else {
				runtime.Gosched()
			}
			continue
		}
		if st == mem.PinNew {
			m.Stats.pinned(int64(h.Len()+1) * 8)
			xh.AddPinned(x)
			leaf.TraceRing.Emit(trace.EvPin, int32(leaf.Depth()), uint64(x), uint64(unpin))
		}
		if m.Space.SetCandidate(x) {
			m.Stats.Candidates.Add(1)
		}
		xh.Gate.ExitReader()
		return
	}
}

// OnJoin merges child into parent and records unpin statistics. (Peak
// capture happens at the pin sites — see Stats.pinned — so nothing is
// captured here.)
func (m *Manager) OnJoin(child, parent *hierarchy.Heap) {
	n, words := m.Tree.Merge(child, parent, m.Space)
	if n > 0 {
		m.Stats.Unpins.Add(int64(n))
		m.Stats.pinnedBytes(-words * 8)
	}
	if r := parent.TraceRing; r != nil && trace.Enabled() {
		now := m.Stats.PinnedBytesNow.Load()
		if now < 0 {
			now = 0 // racing decrements can transiently undershoot
		}
		d := int32(parent.Depth())
		r.Emit(trace.EvCounter, d, uint64(trace.CtrPinnedBytes), uint64(now))
		r.Emit(trace.EvCounter, d, uint64(trace.CtrPinnedPeakBytes), uint64(m.Stats.PinnedBytesPeak.Load()))
		if s := m.Tree.Stats; s != nil {
			r.Emit(trace.EvCounter, d, uint64(trace.CtrAncestryQueries), uint64(s.AncestryQueries.Load()))
		}
	}
}
