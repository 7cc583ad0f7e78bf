package main

import (
	"math/rand"

	"mplgo/mpl"
)

// The survivors workload: P long-lived leaves, each building a persistent
// list one cell per step while also allocating, writing and reading a
// transient garbage array per step. Every cell survives to the end of the
// run, so each local collection copies the whole list built so far. It
// runs at two sizes, n and 2n, so the growth of copied/allocated words
// with n shows.

const (
	survivorsN       = 12_000  // cells per leaf at size n
	survivorsGarbage = 8       // words of transient garbage per step
	survivorsBudget  = 1 << 14 // HeapBudgetWords: LGC every 16k words allocated
)

// survivorPrograms returns the n and 2n programs for leaves leaves. Cell
// values are a*i + b[leaf], with a and b drawn from seed, so each leaf's
// sum has the closed form a*n(n-1)/2 + n*b[leaf].
func survivorPrograms(seed int64, leaves int) []program {
	rng := rand.New(rand.NewSource(seed))
	a := 1 + rng.Int63n(97)
	b := make([]int64, leaves)
	for i := range b {
		b[i] = rng.Int63n(1 << 20)
	}
	var ps []program
	for _, size := range []struct {
		name string
		n    int
	}{{"n", survivorsN}, {"2n", 2 * survivorsN}} {
		n := size.n
		ps = append(ps, program{
			name:   "survivors-" + size.name,
			size:   size.name,
			leaves: leaves,
			budget: survivorsBudget,
			body: func(t *mpl.Task, tr *tracer, parent int64, split *mpl.Runtime) int64 {
				return buildLeaves(t, tr, parent, split, 0, leaves, n, a, b)
			},
			native: func() int64 { return nativeSurvivors(leaves, n, a, b) },
			ref:    func() int64 { return survivorsSum(leaves, n, a, b) },
		})
	}
	return ps
}

// survivorsSum is the closed-form total of all leaves' lists.
func survivorsSum(leaves, n int, a int64, b []int64) int64 {
	nn := int64(n)
	total := int64(0)
	for l := 0; l < leaves; l++ {
		total += a*nn*(nn-1)/2 + nn*b[l]
	}
	return total
}

// buildLeaves runs leaves [lo, hi) in parallel, one Par per split.
func buildLeaves(t *mpl.Task, tr *tracer, parent int64, split *mpl.Runtime, lo, hi, n int, a int64, b []int64) int64 {
	if hi-lo == 1 {
		return leaf(t, tr, parent, split, lo, n, a, b[lo])
	}
	mid := lo + (hi-lo)/2
	id := tr.open("core.par", parent, 0)
	x, y := t.Par(
		func(t *mpl.Task) mpl.Value { return mpl.Int(buildLeaves(t, tr, id, split, lo, mid, n, a, b)) },
		func(t *mpl.Task) mpl.Value { return mpl.Int(buildLeaves(t, tr, id, split, mid, hi, n, a, b)) },
	)
	tr.close(id, nil)
	return x.AsInt() + y.AsInt()
}

// leaf builds one list of n cells and sums it. The list head lives in a
// frame slot, so it stays a root across the allocations that collect.
func leaf(t *mpl.Task, tr *tracer, parent int64, split *mpl.Runtime, id, n int, a, b int64) int64 {
	sp := tr.open("leaf", parent, int64(id))
	c := tr.newCalls(split)
	f := t.NewFrame(1)
	defer f.Pop()
	f.Set(0, mpl.Nil)
	for i := 0; i < n; i++ {
		s, g0 := c.begin(), c.collections()
		g := t.AllocArray(survivorsGarbage, mpl.Int(0))
		c.endAlloc(s, g0)

		s = c.begin()
		t.Write(g, i%survivorsGarbage, mpl.Int(int64(i)))
		c.end(kWrite, s)

		s = c.begin()
		x := t.Read(g, i%survivorsGarbage).AsInt()
		c.end(kRead, s)

		s, g0 = c.begin(), c.collections()
		cell := t.AllocTuple(mpl.Int(a*x+b), f.Get(0))
		c.endAlloc(s, g0)
		f.Set(0, cell.Value())
	}
	var sum int64
	for v := f.Get(0); v.IsRef(); {
		s := c.begin()
		sum += t.Read(v.Ref(), 0).AsInt()
		v = t.Read(v.Ref(), 1)
		c.end(kRead, s)
	}
	tr.close(sp, c)
	return sum
}

// nativeSink keeps the native bodies' transient allocations on the Go heap.
var nativeSink []int64

// cell is the native list node.
type cell struct {
	v    int64
	next *cell
}

// nativeSurvivors is the same computation in plain Go: a heap-allocated
// garbage slice per step and a linked list that survives.
func nativeSurvivors(leaves, n int, a int64, b []int64) int64 {
	var total int64
	garbage := survivorsGarbage
	for l := 0; l < leaves; l++ {
		var head *cell
		for i := 0; i < n; i++ {
			g := make([]int64, garbage)
			nativeSink = g // escapes, as the runtime's garbage array does
			g[i%garbage] = int64(i)
			head = &cell{a*g[i%garbage] + b[l], head}
		}
		for c := head; c != nil; c = c.next {
			total += c.v
		}
	}
	return total
}
