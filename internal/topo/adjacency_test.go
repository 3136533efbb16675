package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// adjacencyOf returns tp's adjacency test, failing when it has none.
func adjacencyOf(t *testing.T, name string, tp Topology) Adjacency {
	t.Helper()
	a, ok := tp.(Adjacency)
	if !ok {
		t.Fatalf("%s: %T does not implement Adjacency", name, tp)
	}
	return a
}

// checkAdjacent compares Adjacent(u, v) with v's membership in nbrs, u's
// neighbor list (nil when u is not a node).
func checkAdjacent(t *testing.T, name string, a Adjacency, u, v int64, nbrs []int64) {
	t.Helper()
	if got, want := a.Adjacent(u, v), slices.Contains(nbrs, v); got != want {
		t.Fatalf("%s: Adjacent(%d, %d) = %v, want %v (neighbors %v)", name, u, v, got, want, nbrs)
	}
}

// checkOutOfRange checks that no arc leaves an id outside [0, N).
func checkOutOfRange(t *testing.T, name string, a Adjacency, n int64) {
	t.Helper()
	for _, u := range []int64{-2, -1, n, n + 1} {
		for _, v := range []int64{-1, 0, n - 1, n} {
			checkAdjacent(t, name, a, u, v, nil)
		}
	}
}

// checkAdjacencyAll is the adjacency oracle on every node of tp: for every v
// in [-2, N+2), Adjacent(u, v) must say whether v is in Neighbors(u), so it
// is false for u itself and for out-of-range ids.
func checkAdjacencyAll(t *testing.T, name string, tp Topology) {
	t.Helper()
	a := adjacencyOf(t, name, tp)
	n := tp.N()
	var buf []int64
	for u := int64(0); u < n; u++ {
		buf = tp.Neighbors(u, buf)
		for v := int64(-2); v < n+2; v++ {
			checkAdjacent(t, name, a, u, v, buf)
		}
	}
	checkOutOfRange(t, name, a, n)
}

// TestHypercubeAdjacencyOracle checks HypercubeTopo's one-bit test against
// Neighbors on every node of Q_n for n <= 10.
func TestHypercubeAdjacencyOracle(t *testing.T) {
	for dim := 0; dim <= 10; dim++ {
		checkAdjacencyAll(t, fmt.Sprintf("Q%d", dim), HypercubeTopo{Dim: dim})
	}
}

// TestMaterializedAdjacencyOracle checks Materialized's in-place row search
// against Neighbors on every node of the built property-grid families, the
// directed CN family included.
func TestMaterializedAdjacencyOracle(t *testing.T) {
	for _, net := range propertyGrid() {
		g, err := net.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", net.Name(), err)
		}
		checkAdjacencyAll(t, net.Name(), NewMaterialized(g))
	}
}

// TestImplicitAdjacencyOracle checks Implicit's early-exit generator walk
// against Neighbors on a seeded sample of 48 nodes of every digitGrid
// instance. Each sampled node is tested against every generator image (so
// a generator that fixes the node, and two generators that reach the same
// neighbor, are both met), itself, out-of-range ids, and every node of
// instances up to 512 nodes or 64 seeded nodes of larger ones. The test
// fails unless the sample met both a fixed point and a shared neighbor.
func TestImplicitAdjacencyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	fixed, shared := 0, 0
	for _, net := range digitGrid() {
		imp, err := NewImplicit(net.Super())
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		name, n := net.Name(), imp.N()
		a := adjacencyOf(t, name, imp)
		var nbrs, vs []int64
		for i := 0; i < 48; i++ {
			u := rng.Int63n(n)
			nbrs = imp.Neighbors(u, nbrs)
			vs = append(vs[:0], -2, -1, u, n, n+1)
			for g := 0; g < imp.MaxDegree(); g++ {
				w := imp.Step(u, g)
				switch {
				case w == u:
					fixed++
				case slices.Contains(vs[5:], w):
					shared++
				}
				vs = append(vs, w)
			}
			if n <= 512 {
				for v := int64(0); v < n; v++ {
					vs = append(vs, v)
				}
			} else {
				for j := 0; j < 64; j++ {
					vs = append(vs, rng.Int63n(n))
				}
			}
			for _, v := range vs {
				checkAdjacent(t, name, a, u, v, nbrs)
			}
		}
		checkOutOfRange(t, name, a, n)
	}
	if fixed == 0 || shared == 0 {
		t.Fatalf("sample met %d fixed points and %d shared neighbors: want both > 0", fixed, shared)
	}
}

// FuzzAdjacent checks Adjacent against Neighbors for arbitrary ids, and for
// u's image across an arbitrary bit or generator, on the hypercube Q_{d mod
// 63} and on an Implicit instance of digitGrid picked by d. Out-of-range
// ids must give false, not a panic.
func FuzzAdjacent(f *testing.F) {
	f.Add(uint8(10), int64(5), int64(7), uint8(3))
	f.Add(uint8(62), int64(1)<<61, int64(0), uint8(61))
	f.Add(uint8(0), int64(0), int64(1), uint8(0))
	f.Add(uint8(3), int64(-1), int64(8), uint8(2))
	var imps []*Implicit
	for _, net := range digitGrid() {
		if net.N() > 1<<12 {
			continue
		}
		imp, err := NewImplicit(net.Super())
		if err != nil {
			f.Fatal(err)
		}
		imps = append(imps, imp)
	}
	f.Fuzz(func(t *testing.T, d uint8, u, v int64, bit uint8) {
		ht := HypercubeTopo{Dim: int(d % 63)}
		var nbrs []int64
		if u >= 0 && u < ht.N() {
			nbrs = ht.Neighbors(u, nil)
		}
		for _, w := range []int64{v, u ^ int64(1)<<(bit%63)} {
			checkAdjacent(t, fmt.Sprintf("Q%d", ht.Dim), ht, u, w, nbrs)
		}
		imp := imps[int(d)%len(imps)]
		name, n := imp.Super().Name, imp.N()
		nbrs = nil
		if u >= 0 && u < n {
			nbrs = imp.Neighbors(u, nil)
		}
		checkAdjacent(t, name, imp, u, v, nbrs)
		// The same ids folded into range, and u's image along a generator.
		u, v = (u%n+n)%n, (v%n+n)%n
		nbrs = imp.Neighbors(u, nbrs)
		for _, w := range []int64{v, imp.Step(u, int(bit)%imp.MaxDegree())} {
			checkAdjacent(t, name, imp, u, w, nbrs)
		}
	})
}
