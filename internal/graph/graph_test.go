package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// ringGraph builds an n-cycle.
func ringGraph(n int) *Graph {
	b := NewBuilder(n, false)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

// completeGraph builds K_n.
func completeGraph(n int) *Graph {
	b := NewBuilder(n, false)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

// hypercubeGraph builds Q_d directly by bit flips.
func hypercubeGraph(d int) *Graph {
	n := 1 << d
	b := NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			v := u ^ (1 << bit)
			if v > u {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse
	b.AddEdge(0, 1) // exact duplicate
	b.AddEdge(2, 2) // self loop, dropped
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees = %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge inconsistent")
	}
}

func TestRingStats(t *testing.T) {
	for _, n := range []int{3, 4, 7, 10, 33} {
		g := ringGraph(n)
		s := g.AllPairs()
		if !s.Connected {
			t.Fatalf("ring %d disconnected", n)
		}
		if int(s.Diameter) != n/2 {
			t.Fatalf("ring %d diameter = %d, want %d", n, s.Diameter, n/2)
		}
		if s.Radius != s.Diameter {
			t.Fatalf("ring radius %d != diameter %d", s.Radius, s.Diameter)
		}
		// Average distance of a cycle: (n+1)/4 for odd n, n^2/(4(n-1)) for even.
		var want float64
		if n%2 == 1 {
			want = float64(n+1) / 4
		} else {
			want = float64(n*n) / float64(4*(n-1))
		}
		if diff := s.AvgDistance - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("ring %d avg = %v, want %v", n, s.AvgDistance, want)
		}
	}
}

func TestCompleteStats(t *testing.T) {
	g := completeGraph(9)
	s := g.AllPairs()
	if s.Diameter != 1 || s.AvgDistance != 1 || !s.Connected {
		t.Fatalf("K9 stats = %+v", s)
	}
	if !g.IsRegular() || g.MaxDegree() != 8 {
		t.Fatal("K9 degree wrong")
	}
}

func TestHypercubeStats(t *testing.T) {
	for d := 1; d <= 8; d++ {
		g := hypercubeGraph(d)
		s := g.AllPairs()
		if int(s.Diameter) != d {
			t.Fatalf("Q%d diameter = %d", d, s.Diameter)
		}
		// Average distance of Q_d over ordered distinct pairs:
		// sum of Hamming distances = d * 2^(d-1) * 2^d ... simpler:
		// E[dist over all ordered pairs incl. self] = d/2, so
		// avg over distinct = (d/2) * N/(N-1).
		n := float64(int(1) << d)
		want := float64(d) / 2 * n / (n - 1)
		if diff := s.AvgDistance - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Q%d avg = %v, want %v", d, s.AvgDistance, want)
		}
	}
}

func TestDisconnected(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	s := g.AllPairs()
	if s.Connected {
		t.Fatal("stats reported connected")
	}
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[1] != 1 {
		t.Fatalf("BFS dist = %v", dist)
	}
}

func TestDirectedStrongConnectivity(t *testing.T) {
	// A directed 3-cycle is strongly connected; a directed path is not.
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	if !b.Build().IsConnected() {
		t.Fatal("directed cycle should be strongly connected")
	}
	b2 := NewBuilder(3, true)
	b2.AddEdge(0, 1)
	b2.AddEdge(1, 2)
	if b2.Build().IsConnected() {
		t.Fatal("directed path should not be strongly connected")
	}
}

func TestSymmetrized(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	u := g.Symmetrized()
	if u.Directed {
		t.Fatal("Symmetrized result must be undirected")
	}
	if !u.HasEdge(1, 0) || !u.HasEdge(2, 1) {
		t.Fatal("missing reverse arcs")
	}
	und := ringGraph(4)
	if und.Symmetrized() != und {
		t.Fatal("Symmetrized of undirected graph should be identity")
	}
}

func TestZeroOneBFSMatchesBFSWithUnitWeights(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		b := NewBuilder(n, false)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		src := int32(r.Intn(n))
		unit := g.ZeroOneBFS(src, func(u, v int32) int32 { return 1 })
		plain := g.BFS(src)
		for i := range unit {
			if unit[i] != plain[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroOneBFSClusters(t *testing.T) {
	// Two triangles (clusters 0 and 1) joined by one edge: intra-cluster
	// hops are free, the bridge costs 1.
	b := NewBuilder(6, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 3)
	b.AddEdge(2, 3)
	g := b.Build()
	cluster := func(u int32) int32 { return u / 3 }
	w := func(u, v int32) int32 {
		if cluster(u) == cluster(v) {
			return 0
		}
		return 1
	}
	dist := g.ZeroOneBFS(0, w)
	for i := 0; i < 3; i++ {
		if dist[i] != 0 {
			t.Fatalf("dist[%d] = %d, want 0", i, dist[i])
		}
	}
	for i := 3; i < 6; i++ {
		if dist[i] != 1 {
			t.Fatalf("dist[%d] = %d, want 1", i, dist[i])
		}
	}
	s := g.AllPairsWeighted(w)
	if s.Diameter != 1 {
		t.Fatalf("weighted diameter = %d, want 1", s.Diameter)
	}
	// 12 ordered intra-pairs at 0, 18 ordered inter-pairs at 1 => avg 0.6.
	if s.AvgDistance != 0.6 {
		t.Fatalf("weighted avg = %v, want 0.6", s.AvgDistance)
	}
}

func TestPairStatsSampling(t *testing.T) {
	g := hypercubeGraph(6)
	full := g.AllPairs()
	unit := func(u, v int32) int32 { return 1 }
	sampled := g.PairStatsWeighted([]int32{0}, unit)
	// Q6 is vertex-transitive: one source gives the exact stats.
	if sampled.Diameter != full.Diameter {
		t.Fatalf("sampled diameter %d != full %d", sampled.Diameter, full.Diameter)
	}
	if diff := sampled.AvgDistance - full.AvgDistance; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sampled avg %v != full %v", sampled.AvgDistance, full.AvgDistance)
	}
}

func TestVerifyIsomorphism(t *testing.T) {
	g := ringGraph(5)
	h := ringGraph(5)
	// Rotation is an isomorphism of the cycle.
	mapping := make([]int32, 5)
	for i := range mapping {
		mapping[i] = int32((i + 2) % 5)
	}
	if err := VerifyIsomorphism(g, h, mapping); err != nil {
		t.Fatal(err)
	}
	// A transposition of two non-adjacent nodes is not.
	bad := []int32{0, 3, 2, 1, 4}
	if err := VerifyIsomorphism(g, h, bad); err == nil {
		t.Fatal("expected isomorphism failure")
	}
	// Non-bijective mapping.
	if err := VerifyIsomorphism(g, h, []int32{0, 0, 1, 2, 3}); err == nil {
		t.Fatal("expected injectivity failure")
	}
	if err := VerifyIsomorphism(g, completeGraph(5), Identity5()); err == nil {
		t.Fatal("expected arc-count failure")
	}
}

func Identity5() []int32 { return []int32{0, 1, 2, 3, 4} }

func TestDistanceProfiles(t *testing.T) {
	if ok, _ := hypercubeGraph(4).UniformDistanceProfiles(); !ok {
		t.Fatal("hypercube must have uniform distance profiles")
	}
	// A path graph does not.
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	if ok, w := b.Build().UniformDistanceProfiles(); ok {
		t.Fatal("path graph cannot be distance-uniform")
	} else if w[0] == w[1] {
		t.Fatal("witness must name two distinct nodes")
	}
}

func TestDegreeHistogram(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	h := b.Build().DegreeHistogram()
	if h[1] != 2 || h[2] != 2 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestQuotient(t *testing.T) {
	// Contracting each pair {2i, 2i+1} of a 6-cycle yields a triangle.
	g := ringGraph(6)
	q := Quotient(g, 3, func(u int32) int32 { return u / 2 })
	if q.N() != 3 || q.NumEdges() != 3 {
		t.Fatalf("quotient of C6 by pairs: n=%d m=%d", q.N(), q.NumEdges())
	}
	s := q.AllPairs()
	if s.Diameter != 1 {
		t.Fatalf("triangle diameter = %d", s.Diameter)
	}
}

func TestDOT(t *testing.T) {
	b := NewBuilder(2, false)
	b.AddEdge(0, 1)
	dot := b.Build().DOT("g")
	for _, want := range []string{"graph g {", "0 -- 1;"} {
		if !containsStr(dot, want) {
			t.Fatalf("DOT missing %q in:\n%s", want, dot)
		}
	}
	bd := NewBuilder(2, true)
	bd.AddEdge(0, 1)
	dot = bd.Build().DOT("d")
	if !containsStr(dot, "digraph d {") || !containsStr(dot, "0 -> 1;") {
		t.Fatalf("directed DOT wrong:\n%s", dot)
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestEccentricity(t *testing.T) {
	// Sampled from one source, Radius and Diameter are both that source's
	// eccentricity.
	g := ringGraph(8)
	unit := func(u, v int32) int32 { return 1 }
	s := g.PairStatsWeighted([]int32{0}, unit)
	if !s.Connected || s.Radius != 4 || s.Diameter != 4 {
		t.Fatalf("ecc = %d/%d connected=%v", s.Radius, s.Diameter, s.Connected)
	}
}

func TestEdgeRangePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(2, false).AddEdge(0, 5)
}

func BenchmarkAllPairsQ10(b *testing.B) {
	g := hypercubeGraph(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.AllPairs()
	}
}

func BenchmarkZeroOneBFS(b *testing.B) {
	g := hypercubeGraph(10)
	w := func(u, v int32) int32 {
		if u>>6 == v>>6 {
			return 0
		}
		return 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.ZeroOneBFS(0, w)
	}
}

func TestBFSTriangleInequalityProperty(t *testing.T) {
	// d(u,w) <= d(u,v) + d(v,w) for random connected graphs and random
	// triples — a sanity property of the BFS machinery.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		b := NewBuilder(n, false)
		for v := 1; v < n; v++ {
			b.AddEdge(int32(r.Intn(v)), int32(v)) // spanning tree
		}
		for e := 0; e < n; e++ {
			b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		w := int32(r.Intn(n))
		du := g.BFS(u)
		dv := g.BFS(v)
		return du[w] <= du[v]+dv[w] && du[v] == dv[u]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
