package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocBasic(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)

	tup := a.AllocTuple(Int(1), Int(2), Int(3))
	h := s.Header(tup)
	if h.Kind() != KTuple || h.Len() != 3 {
		t.Fatalf("tuple header %v/%d", h.Kind(), h.Len())
	}
	for i := int64(0); i < 3; i++ {
		if got := s.Load(tup, int(i)); got.AsInt() != i+1 {
			t.Fatalf("tuple[%d] = %v", i, got)
		}
	}

	arr := a.AllocArray(5, Int(7))
	if s.Header(arr).Kind() != KArray || s.Header(arr).Len() != 5 {
		t.Fatal("array header wrong")
	}
	s.Store(arr, 2, tup.Value())
	if s.Load(arr, 2).Ref() != tup {
		t.Fatal("array store/load mismatch")
	}
	if s.Load(arr, 0).AsInt() != 7 {
		t.Fatal("array init value lost")
	}

	cell := a.AllocRef(arr.Value())
	if s.Header(cell).Kind() != KRefCell || s.Load(cell, 0).Ref() != arr {
		t.Fatal("ref cell broken")
	}
}

func TestAllocOwnership(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 42)
	r := a.AllocTuple(Int(1))
	if s.HeapOf(r) != 42 {
		t.Fatalf("HeapOf = %d, want 42", s.HeapOf(r))
	}
	// Reassigning the chunk's heap changes every resident object's heap.
	s.ChunkByID(r.Chunk()).SetHeapID(7)
	if s.HeapOf(r) != 7 {
		t.Fatal("chunk-level heap reassignment not visible through HeapOf")
	}
}

func TestAllocSpansChunks(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	var refs []Ref
	for i := 0; i < 3*ChunkWords/4; i++ {
		refs = append(refs, a.AllocTuple(Int(int64(i)), Int(int64(i))))
	}
	if len(a.Chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(a.Chunks))
	}
	for i, r := range refs {
		if s.Load(r, 0).AsInt() != int64(i) || s.Load(r, 1).AsInt() != int64(i) {
			t.Fatalf("object %d corrupted after chunk overflow", i)
		}
	}
}

func TestAllocOversizeObject(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	big := a.AllocArray(4*ChunkWords, Nil)
	if s.Header(big).Len() != 4*ChunkWords {
		t.Fatal("oversize array header wrong")
	}
	s.Store(big, 4*ChunkWords-1, Int(9))
	if s.Load(big, 4*ChunkWords-1).AsInt() != 9 {
		t.Fatal("oversize array store failed")
	}
}

func TestZeroLengthObjectsHaveSlack(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	r := a.AllocTuple()
	if s.Header(r).Len() != 0 {
		t.Fatal("empty tuple length must be 0")
	}
	// Forwarding must have room to store the pointer even for empty objects.
	r2 := a.AllocTuple(Int(5))
	s.Forward(r, r2)
	got, fwd := s.Forwarded(r)
	if !fwd || got != r2 {
		t.Fatal("forwarding of empty object failed")
	}
}

func TestForwarding(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	old := a.AllocTuple(Int(1), Int(2))
	new := a.AllocTuple(Int(1), Int(2))
	if _, fwd := s.Forwarded(old); fwd {
		t.Fatal("fresh object reported forwarded")
	}
	s.Forward(old, new)
	got, fwd := s.Forwarded(old)
	if !fwd || got != new {
		t.Fatalf("Forwarded = %v,%v", got, fwd)
	}
	if s.Header(old).Len() != 2 {
		t.Fatal("forwarding header must preserve length for from-space scans")
	}
}

func TestPinUnpin(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	r := a.AllocRef(Int(0))
	c := s.ChunkByID(r.Chunk())

	if !s.Pin(r, 3) {
		t.Fatal("first Pin must report newly pinned")
	}
	if !s.Header(r).Pinned() || s.Header(r).UnpinDepth() != 3 {
		t.Fatalf("pin state wrong: %v depth %d", s.Header(r).Pinned(), s.Header(r).UnpinDepth())
	}
	if c.PinCount != 1 {
		t.Fatalf("PinCount = %d", c.PinCount)
	}

	// Re-pinning at a deeper depth must not raise the unpin depth.
	if s.Pin(r, 5) {
		t.Fatal("re-pin reported newly pinned")
	}
	if s.Header(r).UnpinDepth() != 3 {
		t.Fatal("re-pin raised unpin depth")
	}
	// Re-pinning at a shallower depth must lower it.
	s.Pin(r, 1)
	if s.Header(r).UnpinDepth() != 1 {
		t.Fatal("re-pin did not lower unpin depth")
	}
	if c.PinCount != 1 {
		t.Fatalf("PinCount after re-pins = %d", c.PinCount)
	}

	if !s.Unpin(r) {
		t.Fatal("Unpin must report previously pinned")
	}
	if s.Header(r).Pinned() || c.PinCount != 0 {
		t.Fatal("unpin state wrong")
	}
	if s.Unpin(r) {
		t.Fatal("double Unpin must report false")
	}
}

func TestPinDepthClamp(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	r := a.AllocRef(Int(0))
	s.Pin(r, MaxUnpinDepth+100)
	if s.Header(r).UnpinDepth() != MaxUnpinDepth {
		t.Fatal("unpin depth not clamped")
	}
	s.Unpin(r)
	s.Pin(r, -5)
	if s.Header(r).UnpinDepth() != 0 {
		t.Fatal("negative unpin depth not clamped to 0")
	}
}

func TestCandidateAndMark(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	r := a.AllocArray(2, Nil)
	if s.Header(r).Candidate() {
		t.Fatal("fresh object is candidate")
	}
	if !s.SetCandidate(r) {
		t.Fatal("SetCandidate must report newly set")
	}
	if s.SetCandidate(r) {
		t.Fatal("second SetCandidate must report false")
	}
	if !s.SetMark(r) || s.SetMark(r) {
		t.Fatal("mark bit protocol broken")
	}
	s.ClearMark(r)
	if s.Header(r).Marked() {
		t.Fatal("ClearMark failed")
	}
	// Flag traffic must not corrupt kind or length.
	if h := s.Header(r); h.Kind() != KArray || h.Len() != 2 || !h.Candidate() {
		t.Fatal("flags corrupted header fields")
	}
}

func TestChunkReuse(t *testing.T) {
	s := NewSpace()
	c1 := s.NewChunk(1, 0)
	c1.Data[0] = 999
	c1.Alloc = 50
	id := c1.ID
	s.Release(c1)
	c2 := s.NewChunk(2, 0)
	if c2.ID != id {
		t.Fatalf("expected chunk reuse, got new chunk %d (want %d)", c2.ID, id)
	}
	if c2.Data[0] != 0 || c2.Alloc != 0 {
		t.Fatal("reused chunk not cleared")
	}
	if c2.HeapID() != 2 {
		t.Fatal("reused chunk owner wrong")
	}
}

func TestReleasePinnedPanics(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	r := a.AllocRef(Int(1))
	s.Pin(r, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of pinned chunk must panic")
		}
	}()
	s.Release(s.ChunkByID(r.Chunk()))
}

func TestResidencyAccounting(t *testing.T) {
	s := NewSpace()
	c1 := s.NewChunk(1, 0)
	c2 := s.NewChunk(1, 0)
	if s.LiveWords() != 2*ChunkWords {
		t.Fatalf("LiveWords = %d", s.LiveWords())
	}
	s.Release(c1)
	if s.LiveWords() != ChunkWords {
		t.Fatalf("LiveWords after release = %d", s.LiveWords())
	}
	if s.MaxLiveWords() != 2*ChunkWords {
		t.Fatalf("MaxLiveWords = %d", s.MaxLiveWords())
	}
	s.ResetMaxLive()
	if s.MaxLiveWords() != ChunkWords {
		t.Fatal("ResetMaxLive failed")
	}
	s.Release(c2)
}

func TestStringRoundTrip(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	for _, str := range []string{"", "a", "hello", "exactly8", "more than eight bytes", "\x00\xff binary \n"} {
		r := a.AllocString(str)
		if got := s.LoadString(r); got != str {
			t.Fatalf("string %q round-tripped to %q", str, got)
		}
		if s.Header(r).Kind() != KRaw {
			t.Fatal("strings must be raw objects")
		}
	}
}

func TestStringRoundTripQuick(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	f := func(str string) bool {
		if len(str) > 1<<16 {
			str = str[:1<<16]
		}
		return s.LoadString(a.AllocString(str)) == str
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocWordsAccounting(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	a.AllocTuple(Int(1), Int(2)) // header + 2
	a.AllocRef(Nil)              // header + 1
	if a.AllocWords != 5 {
		t.Fatalf("AllocWords = %d, want 5", a.AllocWords)
	}
	// The space total is published per chunk, not per object: nothing
	// before the owner flushes, exact after, and a second flush adds
	// nothing.
	if got := s.TotalAllocWords(); got != 0 {
		t.Fatalf("TotalAllocWords = %d before any flush, want 0", got)
	}
	a.Flush()
	a.Flush()
	if s.TotalAllocWords() != 5 {
		t.Fatalf("TotalAllocWords = %d, want 5", s.TotalAllocWords())
	}
	// Taking a new chunk publishes what the allocator carved before it.
	a.AllocRef(Nil)               // header + 1, unpublished
	a.AllocArray(ChunkWords, Nil) // does not fit: new chunk
	if got := s.TotalAllocWords(); got != 7 {
		t.Fatalf("TotalAllocWords = %d after a new chunk, want 7", got)
	}
	a.Flush()
	if got, want := s.TotalAllocWords(), int64(7+ChunkWords+1); got != want {
		t.Fatalf("TotalAllocWords = %d, want %d", got, want)
	}
}

func TestRetarget(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	r1 := a.AllocTuple(Int(1))
	a.Retarget(9)
	r2 := a.AllocTuple(Int(2))
	if s.HeapOf(r1) != 1 || s.HeapOf(r2) != 9 {
		t.Fatalf("heap ids after retarget: %d, %d", s.HeapOf(r1), s.HeapOf(r2))
	}
	if a.Heap() != 9 {
		t.Fatal("Heap() after retarget")
	}
}

func TestAllocatorRandomObjectsQuick(t *testing.T) {
	// Property: random interleavings of allocations produce objects whose
	// headers and payloads remain intact and disjoint.
	s := NewSpace()
	a := NewAllocator(s, 1)
	type obj struct {
		ref  Ref
		kind Kind
		n    int
		tag  int64
	}
	var objs []obj
	f := func(sizes []uint16) bool {
		for _, raw := range sizes {
			n := int(raw%200) + 1
			kind := []Kind{KTuple, KArray, KRefCell, KRaw}[int(raw)%4]
			if kind == KRefCell {
				n = 1
			}
			r := a.Alloc(kind, n)
			tag := int64(len(objs))*7919 + 13
			if kind != KRaw {
				for i := 0; i < n; i++ {
					s.Store(r, i, Int(tag+int64(i)))
				}
			} else {
				for i := 0; i < n; i++ {
					s.StoreRaw(r, i, uint64(tag+int64(i)))
				}
			}
			objs = append(objs, obj{r, kind, n, tag})
		}
		// Every object written so far must still be intact.
		for _, o := range objs {
			h := s.Header(o.ref)
			if h.Kind() != o.kind || h.Len() != o.n {
				return false
			}
			for i := 0; i < o.n; i++ {
				if o.kind != KRaw {
					if s.Load(o.ref, i).AsInt() != o.tag+int64(i) {
						return false
					}
				} else if s.LoadRaw(o.ref, i) != uint64(o.tag+int64(i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPinUnpinSequenceQuick(t *testing.T) {
	// Property: arbitrary pin/unpin sequences keep the chunk's PinCount
	// equal to the number of currently pinned objects.
	s := NewSpace()
	a := NewAllocator(s, 1)
	refs := make([]Ref, 32)
	for i := range refs {
		refs[i] = a.AllocRef(Int(int64(i)))
	}
	pinned := make([]bool, len(refs))
	f := func(ops []uint8) bool {
		for _, op := range ops {
			i := int(op) % len(refs)
			if op%2 == 0 {
				s.Pin(refs[i], int(op)%7)
				pinned[i] = true
			} else {
				s.Unpin(refs[i])
				pinned[i] = false
			}
		}
		want := int32(0)
		for _, p := range pinned {
			if p {
				want++
			}
		}
		c := s.ChunkByID(refs[0].Chunk())
		return c.PinCount == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
