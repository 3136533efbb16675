// Package graph provides the compact graph representation and the (parallel)
// breadth-first-search machinery used to measure interconnection networks:
// diameter, average distance, eccentricities, and the 0/1-weighted variants
// needed for inter-cluster (off-module) metrics.
//
// Graphs are stored in compressed sparse row (CSR) form with int32 node ids;
// every network studied in the paper fits comfortably in memory at the sizes
// where exhaustive measurement is feasible (up to a few hundred thousand
// nodes).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is a finalized graph in CSR form. Use Builder to construct one.
// If Directed is false, every arc's reverse is guaranteed present.
type Graph struct {
	n        int
	offsets  []int32
	edges    []int32
	Directed bool
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of arcs (directed edge slots). For an undirected
// graph this is twice the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// NumEdges returns the number of undirected edges (M/2) for undirected
// graphs, or the number of arcs for directed graphs.
func (g *Graph) NumEdges() int {
	if g.Directed {
		return len(g.edges)
	}
	return len(g.edges) / 2
}

// Neighbors returns the sorted adjacency list of node u as a shared slice.
func (g *Graph) Neighbors(u int32) []int32 {
	return g.edges[g.offsets[u]:g.offsets[u+1]]
}

// Degree returns the out-degree of node u.
func (g *Graph) Degree(u int32) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// HasEdge reports whether the arc u->v exists (binary search).
func (g *Graph) HasEdge(u, v int32) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// MaxDegree returns the maximum out-degree over all nodes (0 for empty).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := g.Degree(int32(u)); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum out-degree over all nodes (0 for empty).
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for u := 1; u < g.n; u++ {
		if d := g.Degree(int32(u)); d < min {
			min = d
		}
	}
	return min
}

// IsRegular reports whether all nodes have the same degree.
func (g *Graph) IsRegular() bool { return g.n == 0 || g.MaxDegree() == g.MinDegree() }

// NewCSR wraps finished CSR arrays as a Graph without copying them: row u
// is edges[offsets[u]:offsets[u+1]], and len(offsets) is N+1. Each row must
// be sorted, free of duplicates and self-loops, and for an undirected graph
// every arc's reverse must be present; Builder.Build establishes all of
// this, so use NewCSR only where the caller already has.
func NewCSR(offsets, edges []int32, directed bool) *Graph {
	return &Graph{n: len(offsets) - 1, offsets: offsets, edges: edges, Directed: directed}
}

// Builder accumulates arcs and produces a CSR Graph. The zero value is ready
// to use after SetN (or grows implicitly via AddEdge).
type Builder struct {
	n        int
	from, to []int32
	directed bool
}

// NewBuilder returns a builder for a graph with n nodes. If directed is
// false, AddEdge inserts both arc directions.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{n: n, directed: directed}
}

// AddEdge records an edge u-v (or arc u->v if the builder is directed).
// Self-loops are dropped; duplicates are removed during Build.
func (b *Builder) AddEdge(u, v int32) {
	if u == v {
		return
	}
	if int(u) >= b.n || int(v) >= b.n || u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range 0..%d", u, v, b.n-1))
	}
	b.from = append(b.from, u)
	b.to = append(b.to, v)
	if !b.directed {
		b.from = append(b.from, v)
		b.to = append(b.to, u)
	}
}

// AddArc records the single arc u->v even in an undirected builder; the
// caller is responsible for symmetry in that case.
func (b *Builder) AddArc(u, v int32) {
	if u == v {
		return
	}
	if int(u) >= b.n || int(v) >= b.n || u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: arc (%d,%d) out of range 0..%d", u, v, b.n-1))
	}
	b.from = append(b.from, u)
	b.to = append(b.to, v)
}

// Build finalizes the graph: sorts adjacency lists and removes duplicates.
func (b *Builder) Build() *Graph {
	counts := make([]int32, b.n+1)
	for _, u := range b.from {
		counts[u+1]++
	}
	for i := 1; i <= b.n; i++ {
		counts[i] += counts[i-1]
	}
	edges := make([]int32, len(b.from))
	cursor := make([]int32, b.n)
	for i, u := range b.from {
		edges[counts[u]+cursor[u]] = b.to[i]
		cursor[u]++
	}
	// Sort each adjacency list and deduplicate in place.
	out := edges[:0]
	offsets := make([]int32, b.n+1)
	for u := 0; u < b.n; u++ {
		lo, hi := counts[u], counts[u+1]
		adj := edges[lo:hi]
		slices.Sort(adj)
		offsets[u] = int32(len(out))
		var prev int32 = -1
		for _, v := range adj {
			if v != prev {
				out = append(out, v)
				prev = v
			}
		}
	}
	offsets[b.n] = int32(len(out))
	final := make([]int32, len(out))
	copy(final, out)
	return &Graph{n: b.n, offsets: offsets, edges: final, Directed: b.directed}
}

// Symmetrized returns an undirected version of g in which every arc has its
// reverse. If g is already undirected, g itself is returned.
func (g *Graph) Symmetrized() *Graph {
	if !g.Directed {
		return g
	}
	b := NewBuilder(g.n, false)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(int32(u)) {
			b.AddArc(int32(u), v)
			b.AddArc(v, int32(u))
		}
	}
	return b.Build()
}
