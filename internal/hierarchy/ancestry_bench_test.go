package hierarchy

// Microbenchmarks pricing the ancestry oracle against the naive parent
// walk that the differential tests use as their reference. Each benchmark
// runs once per leg (forkpath = DePa fork-path words, the runtime's only
// oracle; walk = walkIsAncestor/walkLCA) over the same 3^6 balanced tree,
// uncontended and then contended: a background goroutine performing a
// fork/merge churn loop, which touches nothing either leg reads. The
// deep-spine case queries a depth-256 chain, where fork paths have spilled
// to their vector form and the walk pays O(depth).

import (
	"math/rand"
	"testing"

	"mplgo/internal/mem"
)

func benchTree() (*Tree, []*Heap) {
	tr := New()
	rng := rand.New(rand.NewSource(99))
	heaps := []*Heap{tr.Root()}
	frontier := []*Heap{tr.Root()}
	for depth := 0; depth < 6; depth++ {
		var next []*Heap
		for _, p := range frontier {
			for c := 0; c < 3; c++ {
				h := tr.Fork(p)
				heaps = append(heaps, h)
				next = append(next, h)
			}
		}
		frontier = next
	}
	rng.Shuffle(len(heaps), func(i, j int) { heaps[i], heaps[j] = heaps[j], heaps[i] })
	return tr, heaps
}

// churn forks a child of p and immediately merges it back, forever:
// structural edits concurrent with the queries.
func churn(tr *Tree, p *Heap, stop <-chan struct{}) {
	sp := mem.NewSpace()
	for {
		select {
		case <-stop:
			return
		default:
		}
		tr.Merge(tr.Fork(p), p, sp)
	}
}

// oracle is one leg of the comparison.
type oracle struct {
	name       string
	isAncestor func(tr *Tree, a, d *Heap) bool
	lcaDepth   func(tr *Tree, a, b *Heap) int
}

func oracles() []oracle {
	return []oracle{
		{"forkpath", (*Tree).IsAncestor, (*Tree).LCADepth},
		{"walk",
			func(_ *Tree, a, d *Heap) bool { return walkIsAncestor(a, d) },
			func(_ *Tree, a, b *Heap) int { return walkLCA(a, b).depth }},
	}
}

func BenchmarkIsAncestor(b *testing.B) {
	for _, o := range oracles() {
		b.Run(o.name, func(b *testing.B) {
			tr, heaps := benchTree()
			n := len(heaps)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.isAncestor(tr, heaps[i%n], heaps[(i*7+3)%n])
			}
		})
	}
}

func BenchmarkIsAncestorContended(b *testing.B) {
	for _, o := range oracles() {
		b.Run(o.name, func(b *testing.B) {
			tr, heaps := benchTree()
			n := len(heaps)
			stop := make(chan struct{})
			go churn(tr, tr.Root(), stop)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.isAncestor(tr, heaps[i%n], heaps[(i*7+3)%n])
			}
			b.StopTimer()
			close(stop)
		})
	}
}

// BenchmarkIsAncestorDeepSpine asks whether the root is an ancestor of
// the leaf of a depth-256 spine: O(1) on spilled fork paths, O(depth) for
// the walk.
func BenchmarkIsAncestorDeepSpine(b *testing.B) {
	tr := New()
	leaf := tr.Root()
	for i := 0; i < 256; i++ {
		leaf = tr.Fork(leaf)
	}
	root := tr.Root()
	for _, o := range oracles() {
		b.Run(o.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !o.isAncestor(tr, root, leaf) {
					b.Fatal("ancestry broken")
				}
			}
		})
	}
}

func BenchmarkLCADepth(b *testing.B) {
	for _, o := range oracles() {
		b.Run(o.name, func(b *testing.B) {
			tr, heaps := benchTree()
			n := len(heaps)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.lcaDepth(tr, heaps[i%n], heaps[(i*7+3)%n])
			}
		})
	}
}

func BenchmarkLCADepthContended(b *testing.B) {
	for _, o := range oracles() {
		b.Run(o.name, func(b *testing.B) {
			tr, heaps := benchTree()
			n := len(heaps)
			stop := make(chan struct{})
			go churn(tr, tr.Root(), stop)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.lcaDepth(tr, heaps[i%n], heaps[(i*7+3)%n])
			}
			b.StopTimer()
			close(stop)
		})
	}
}
