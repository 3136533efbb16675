// Package route builds the BFS next-hop tables that route built graphs:
// BFSNextHops gives one next hop per node toward a destination, the
// BFS-tree parent, and takes optional liveness predicates, so the same
// builder serves fault-free routing and table repair around dead nodes and
// links.
package route

import "repro/internal/graph"

// NextHopTable holds, for one destination, the next hop from every node on
// a shortest path (or -1 at the destination / unreachable nodes).
type NextHopTable []int32

// BFSNextHops computes the next-hop table toward dst by reverse BFS from
// dst: the next hop of u is u's parent in the BFS tree, so among equally
// minimal hops the tree's discovery order breaks ties. The liveness
// predicates restrict the search to the surviving topology: nodes for which
// deadNode returns true and arcs u->v for which deadLink returns true are
// routed around. Either predicate may be nil (nothing is dead). Entries are
// -1 at dst and at nodes with no live path (everywhere when dst is dead).
// This is both the fault-free oracle and the table-repair primitive of the
// fault-adaptive simulator.
func BFSNextHops(g *graph.Graph, dst int32, deadNode func(int32) bool, deadLink func(u, v int32) bool) NextHopTable {
	parent := make(NextHopTable, g.N())
	for i := range parent {
		parent[i] = -1
	}
	if deadNode != nil && deadNode(dst) {
		return parent
	}
	// BFS from dst over the reverse arcs of the live subgraph.
	rev := g
	if g.Directed {
		rev = g.Reverse()
	}
	visited := make([]bool, g.N())
	visited[dst] = true
	queue := append(make([]int32, 0, g.N()), dst)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range rev.Neighbors(v) {
			// The reverse arc v->u is the forward arc u->v.
			if visited[u] {
				continue
			}
			if deadNode != nil && deadNode(u) || deadLink != nil && deadLink(u, v) {
				continue
			}
			visited[u] = true
			parent[u] = v
			queue = append(queue, u)
		}
	}
	return parent
}
