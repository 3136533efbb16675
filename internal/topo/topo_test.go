package topo

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/networks"
	"repro/internal/superip"
)

// propertyGrid returns the super-IP family grid of the property suite: every
// Section 3 family, plain and symmetric, small enough to cross-check against
// a materialized build.
func propertyGrid() []*superip.Net {
	q2 := superip.NucleusHypercube(2)
	q3 := superip.NucleusHypercube(3)
	return []*superip.Net{
		superip.HSN(3, q2),
		superip.HSN(3, q2).SymmetricVariant(),
		superip.HSN(2, q3),
		superip.RingCN(3, q2),
		superip.RingCN(3, q2).SymmetricVariant(),
		superip.CompleteCN(3, q2),
		superip.SuperFlip(3, q2),
		superip.SuperFlip(3, q2).SymmetricVariant(),
		superip.DirectedCN(3, q2),
	}
}

const pairsPerFamily = 1000

// TestImplicitMatchesMaterialized checks, exhaustively on every grid family,
// that the implicit topology presents exactly the materialized graph: same
// node count, same directedness, and — after translating ids through labels —
// the same sorted adjacency list at every node.
func TestImplicitMatchesMaterialized(t *testing.T) {
	for _, net := range propertyGrid() {
		g, ix, err := net.BuildWithIndex()
		if err != nil {
			t.Fatalf("%s: build: %v", net.Name(), err)
		}
		imp, err := NewImplicit(net.Super())
		if err != nil {
			t.Fatalf("%s: implicit: %v", net.Name(), err)
		}
		if imp.N() != int64(g.N()) {
			t.Fatalf("%s: implicit N = %d, materialized %d", net.Name(), imp.N(), g.N())
		}
		if imp.Directed() != g.Directed {
			t.Fatalf("%s: implicit directed = %v, materialized %v", net.Name(), imp.Directed(), g.Directed)
		}
		if imp.MaxDegree() < g.MaxDegree() {
			t.Fatalf("%s: implicit MaxDegree %d below materialized %d", net.Name(), imp.MaxDegree(), g.MaxDegree())
		}
		// matID translates an implicit id to the materialized id of the same
		// label.
		matID := func(u int64) int32 {
			id := ix.ID(imp.Label(u))
			if id < 0 {
				t.Fatalf("%s: implicit node %d (label %v) missing from index", net.Name(), u, imp.Label(u))
			}
			return id
		}
		var buf []int64
		for u := int64(0); u < imp.N(); u++ {
			mu := matID(u)
			buf = imp.Neighbors(u, buf)
			got := make([]int32, len(buf))
			for i, v := range buf {
				got[i] = matID(v)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			want := g.Neighbors(mu)
			if len(got) != len(want) {
				t.Fatalf("%s: node %d: %d implicit neighbors, %d materialized", net.Name(), u, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: node %d: neighbors %v != %v", net.Name(), u, got, want)
				}
			}
		}
	}
}

// TestAlgebraicRouterProperties is the heart of the property suite: on every
// grid family, for pairsPerFamily random (src, dst) pairs, the algebraic
// route must (a) be a valid walk on the materialized graph, (b) never exceed
// the paper's diameter bound l*D_G + t (t_S for symmetric variants), and (c)
// be retraced exactly by iterated NextHop calls.
func TestAlgebraicRouterProperties(t *testing.T) {
	for _, net := range propertyGrid() {
		g, ix, err := net.BuildWithIndex()
		if err != nil {
			t.Fatalf("%s: build: %v", net.Name(), err)
		}
		imp, err := NewImplicit(net.Super())
		if err != nil {
			t.Fatalf("%s: implicit: %v", net.Name(), err)
		}
		r, err := NewAlgebraic(net.Super())
		if err != nil {
			t.Fatalf("%s: router: %v", net.Name(), err)
		}
		bound := net.Diameter()
		matID := func(u int64) int32 { return ix.ID(imp.Label(u)) }
		rng := rand.New(rand.NewSource(42))
		n := imp.N()
		for trial := 0; trial < pairsPerFamily; trial++ {
			src := rng.Int63n(n)
			dst := rng.Int63n(n - 1)
			if dst >= src {
				dst++
			}
			p, err := r.Path(src, dst)
			if err != nil {
				t.Fatalf("%s: Path(%d, %d): %v", net.Name(), src, dst, err)
			}
			if p[0] != src || p[len(p)-1] != dst {
				t.Fatalf("%s: Path(%d, %d) endpoints %d..%d", net.Name(), src, dst, p[0], p[len(p)-1])
			}
			if hops := len(p) - 1; hops > bound {
				t.Fatalf("%s: route %d -> %d takes %d hops, Theorem bound is %d",
					net.Name(), src, dst, hops, bound)
			}
			for i := 0; i+1 < len(p); i++ {
				if !g.HasEdge(matID(p[i]), matID(p[i+1])) {
					t.Fatalf("%s: route step %d -> %d is not an edge", net.Name(), p[i], p[i+1])
				}
			}
			// NextHop iteration must retrace the path within the same bound.
			cur := src
			for hop := 0; cur != dst; hop++ {
				if hop > bound {
					t.Fatalf("%s: NextHop iteration %d -> %d exceeded bound %d", net.Name(), src, dst, bound)
				}
				nxt, err := r.NextHop(cur, dst)
				if err != nil {
					t.Fatalf("%s: NextHop(%d, %d): %v", net.Name(), cur, dst, err)
				}
				if nxt != p[hop+1] {
					t.Fatalf("%s: NextHop diverges from Path at hop %d: %d != %d", net.Name(), hop, nxt, p[hop+1])
				}
				cur = nxt
			}
		}
	}
}

// TestAlgebraicOverMaterializedIDs checks that the id router runs unchanged
// on a built graph numbered in rank order: its routes, read as the built
// graph's own ids, are valid walks with bounded length, so the router plugs
// into consumers that know nothing about rankers.
func TestAlgebraicOverMaterializedIDs(t *testing.T) {
	net := superip.HSN(3, superip.NucleusHypercube(2)).SymmetricVariant()
	g := rankOrdered(t, net)
	r, err := NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < pairsPerFamily; trial++ {
		src := int64(rng.Intn(g.N()))
		dst := int64(rng.Intn(g.N() - 1))
		if dst >= src {
			dst++
		}
		p, err := r.Path(src, dst)
		if err != nil {
			t.Fatalf("Path(%d, %d): %v", src, dst, err)
		}
		if len(p)-1 > net.Diameter() {
			t.Fatalf("route %d -> %d takes %d hops, bound %d", src, dst, len(p)-1, net.Diameter())
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(int32(p[i]), int32(p[i+1])) {
				t.Fatalf("step %d -> %d is not an edge", p[i], p[i+1])
			}
		}
	}
}

// TestHotPathAllocs pins the allocation budget of the two per-hop calls:
// Implicit.Neighbors into a reused buffer makes none, and Algebraic.Path
// makes exactly one, the returned slice, once a warm-up route has built the
// router's tables.
func TestHotPathAllocs(t *testing.T) {
	for _, net := range []*superip.Net{
		superip.HSN(3, superip.NucleusHypercube(4)).SymmetricVariant(),
		superip.HSN(2, superip.NucleusHypercube(5)),
	} {
		imp, err := NewImplicit(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewAlgebraic(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]int64, 0, imp.MaxDegree())
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 20; trial++ {
			src, dst := rng.Int63n(imp.N()), rng.Int63n(imp.N())
			if n := testing.AllocsPerRun(10, func() { buf = imp.Neighbors(src, buf) }); n != 0 {
				t.Fatalf("%s: Neighbors(%d) makes %.1f allocations, want 0", net.Name(), src, n)
			}
			if _, err := r.Path(src, dst); err != nil {
				t.Fatalf("%s: Path(%d, %d): %v", net.Name(), src, dst, err)
			}
			if n := testing.AllocsPerRun(10, func() { _, _ = r.Path(src, dst) }); n > 1 {
				t.Fatalf("%s: Path(%d, %d) makes %.1f allocations, want at most 1", net.Name(), src, dst, n)
			}
		}
	}
}

// TestHypercubeTopoAndRouter checks the implicit hypercube against the
// materialized one and pins e-cube optimality: every routed path length
// equals the BFS distance.
func TestHypercubeTopoAndRouter(t *testing.T) {
	const dim = 6
	g, err := networks.Hypercube{Dim: dim}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ht := HypercubeTopo{Dim: dim}
	if ht.N() != int64(g.N()) {
		t.Fatalf("N = %d, want %d", ht.N(), g.N())
	}
	var buf []int64
	for u := int64(0); u < ht.N(); u++ {
		buf = ht.Neighbors(u, buf)
		want := g.Neighbors(int32(u))
		if len(buf) != len(want) {
			t.Fatalf("node %d: %d neighbors, want %d", u, len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != int64(want[i]) {
				t.Fatalf("node %d: neighbors %v != %v", u, buf, want)
			}
		}
	}
	assertShortest(t, g, HypercubeRouter{Dim: dim})
}

// assertShortest routes pairsPerFamily random pairs and requires every path
// to be a valid walk of exactly the BFS-distance length, and NextHop to
// agree with Path.
func assertShortest(t *testing.T, g *graph.Graph, r PathRouter) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	distCache := map[int32][]int32{}
	for trial := 0; trial < pairsPerFamily; trial++ {
		src := int32(rng.Intn(g.N()))
		dst := int32(rng.Intn(g.N() - 1))
		if dst >= src {
			dst++
		}
		p, err := r.Path(int64(src), int64(dst))
		if err != nil {
			t.Fatalf("Path(%d, %d): %v", src, dst, err)
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(int32(p[i]), int32(p[i+1])) {
				t.Fatalf("step %d -> %d is not an edge", p[i], p[i+1])
			}
		}
		dist, ok := distCache[src]
		if !ok {
			dist = g.BFS(src)
			distCache[src] = dist
		}
		if int32(len(p)-1) != dist[dst] {
			t.Fatalf("route %d -> %d takes %d hops, BFS distance %d", src, dst, len(p)-1, dist[dst])
		}
		nh, err := r.NextHop(int64(src), int64(dst))
		if err != nil {
			t.Fatalf("NextHop(%d, %d): %v", src, dst, err)
		}
		if nh != p[1] {
			t.Fatalf("NextHop(%d, %d) = %d, Path starts %d", src, dst, nh, p[1])
		}
	}
}

// TestNextHopAtDestination pins the error contract shared by all routers.
func TestNextHopAtDestination(t *testing.T) {
	net := superip.HSN(2, superip.NucleusHypercube(2))
	alg, err := NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	routers := []Router{HypercubeRouter{Dim: 3}, alg}
	for i, r := range routers {
		if _, err := r.NextHop(2, 2); err == nil {
			t.Fatalf("router %d: NextHop(2,2) succeeded", i)
		}
	}
}

// rankOrdered builds net and renumbers its nodes in rank order (node id =
// core.Ranker.Rank of its label), the id space of Implicit, so the id
// routers run on the built graph unchanged.
func rankOrdered(t testing.TB, net *superip.Net) *graph.Graph {
	t.Helper()
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		t.Fatalf("%s: build: %v", net.Name(), err)
	}
	rk, err := net.Super().Ranker()
	if err != nil {
		t.Fatalf("%s: ranker: %v", net.Name(), err)
	}
	rank := make([]int32, g.N())
	for u := range rank {
		r, err := rk.Rank(ix.Label(int32(u)))
		if err != nil {
			t.Fatalf("%s: rank of node %d: %v", net.Name(), u, err)
		}
		rank[u] = int32(r)
	}
	b := graph.NewBuilder(g.N(), g.Directed)
	for u, ru := range rank {
		for _, v := range g.Neighbors(int32(u)) {
			b.AddArc(ru, rank[v])
		}
	}
	return b.Build()
}
