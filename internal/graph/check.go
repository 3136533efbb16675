package graph

import (
	"fmt"
	"strings"
)

// VerifyIsomorphism checks that mapping is a graph isomorphism from g to h:
// a bijection on nodes under which u->v is an arc of g iff
// mapping[u]->mapping[v] is an arc of h. This is the cheap, constructive
// check used throughout the test suite: constructions that are claimed
// equivalent (e.g. an IP-graph build of a network vs. its direct build) come
// with an explicit bijection, so no general graph-isomorphism search is
// needed.
func VerifyIsomorphism(g, h *Graph, mapping []int32) error {
	if g.N() != h.N() {
		return fmt.Errorf("graph: node counts differ: %d vs %d", g.N(), h.N())
	}
	if len(mapping) != g.N() {
		return fmt.Errorf("graph: mapping has %d entries for %d nodes", len(mapping), g.N())
	}
	seen := make([]bool, h.N())
	for u, mu := range mapping {
		if mu < 0 || int(mu) >= h.N() {
			return fmt.Errorf("graph: mapping[%d] = %d out of range", u, mu)
		}
		if seen[mu] {
			return fmt.Errorf("graph: mapping is not injective at image %d", mu)
		}
		seen[mu] = true
	}
	if g.M() != h.M() {
		return fmt.Errorf("graph: arc counts differ: %d vs %d", g.M(), h.M())
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if !h.HasEdge(mapping[u], mapping[v]) {
				return fmt.Errorf("graph: arc %d->%d of g has no image %d->%d in h",
					u, v, mapping[u], mapping[v])
			}
		}
	}
	// Arc counts are equal and every g-arc maps to a distinct h-arc
	// (injectivity of the node mapping), so the arc mapping is onto too.
	return nil
}

// DistanceProfile returns, for node u, the sorted multiset of distances from
// u to all nodes, encoded as "count@dist" terms. In a vertex-transitive graph
// all nodes have identical profiles, so differing profiles certify
// non-transitivity; identical profiles are strong (though not conclusive)
// evidence of symmetry.
func (g *Graph) DistanceProfile(u int32) string {
	dist := g.BFS(u)
	counts := map[int32]int{}
	maxD := int32(0)
	for _, d := range dist {
		counts[d]++
		if d > maxD {
			maxD = d
		}
	}
	var parts []string
	for d := int32(0); d <= maxD; d++ {
		if c := counts[d]; c > 0 {
			parts = append(parts, fmt.Sprintf("%d@%d", c, d))
		}
	}
	if c := counts[Unreachable]; c > 0 {
		parts = append(parts, fmt.Sprintf("%d@inf", c))
	}
	return strings.Join(parts, " ")
}

// UniformDistanceProfiles reports whether every node has the same distance
// profile — a necessary condition for vertex-transitivity. The second return
// is a witness pair of nodes with differing profiles when the check fails.
func (g *Graph) UniformDistanceProfiles() (bool, [2]int32) {
	if g.n == 0 {
		return true, [2]int32{}
	}
	ref := g.DistanceProfile(0)
	for u := 1; u < g.n; u++ {
		if g.DistanceProfile(int32(u)) != ref {
			return false, [2]int32{0, int32(u)}
		}
	}
	return true, [2]int32{}
}

// DegreeHistogram returns a map from degree to node count.
func (g *Graph) DegreeHistogram() map[int]int {
	h := map[int]int{}
	for u := 0; u < g.n; u++ {
		h[g.Degree(int32(u))]++
	}
	return h
}

// DOT renders the graph in Graphviz DOT format. Undirected graphs emit each
// edge once.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	kind, arrow := "graph", " -- "
	if g.Directed {
		kind, arrow = "digraph", " -> "
	}
	fmt.Fprintf(&b, "%s %s {\n", kind, name)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if !g.Directed && v < int32(u) {
				continue
			}
			fmt.Fprintf(&b, "  %d%s%d;\n", u, arrow, v)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Quotient contracts nodes of g into classes given by classOf (values must
// cover 0..numClasses-1). The result has one node per class; two classes are
// adjacent iff some pair of members is adjacent in g. Self-loops and
// duplicate edges are removed. This implements the paper's quotient-network
// construction (e.g. QCN(l;Q7/Q3), obtained by merging each 3-cube of
// CN(l;Q7) into a node).
func Quotient(g *Graph, numClasses int, classOf func(u int32) int32) *Graph {
	b := NewBuilder(numClasses, g.Directed)
	for u := 0; u < g.N(); u++ {
		cu := classOf(int32(u))
		for _, v := range g.Neighbors(int32(u)) {
			cv := classOf(v)
			if cu != cv {
				b.AddArc(cu, cv)
			}
		}
	}
	return b.Build()
}
