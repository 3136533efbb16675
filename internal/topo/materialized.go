package topo

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Materialized adapts an explicitly built graph.Graph to the Topology
// interface. A Materialized topology is safe for concurrent use.
type Materialized struct {
	G *graph.Graph
}

// NewMaterialized wraps a built graph as a Topology.
func NewMaterialized(g *graph.Graph) *Materialized {
	return &Materialized{G: g}
}

// N returns the number of nodes.
func (t *Materialized) N() int64 { return int64(t.G.N()) }

// MaxDegree returns the maximum out-degree.
func (t *Materialized) MaxDegree() int { return t.G.MaxDegree() }

// Directed reports whether the graph is directed.
func (t *Materialized) Directed() bool { return t.G.Directed }

// Neighbors appends u's adjacency list (already sorted and deduplicated by
// the CSR builder) to buf[:0].
func (t *Materialized) Neighbors(u int64, buf []int64) []int64 {
	buf = buf[:0]
	for _, v := range t.G.Neighbors(int32(u)) {
		buf = append(buf, int64(v))
	}
	return buf
}

// Adjacent reports whether v is in u's CSR row, by binary search of the row
// in place; it is false when either id is out of range.
func (t *Materialized) Adjacent(u, v int64) bool {
	if n := int64(t.G.N()); u < 0 || v < 0 || u >= n || v >= n {
		return false
	}
	_, ok := slices.BinarySearch(t.G.Neighbors(int32(u)), int32(v))
	return ok
}

// BFSRouter routes a built graph by per-destination next-hop tables: the
// next hop of u toward dst is u's parent in a BFS tree grown from dst over
// the reverse arcs, so every route is a shortest path of the live graph and
// the tree's discovery order breaks ties among equally short hops. A table
// is built on the first NextHop toward its destination. With a fault set,
// a table is rebuilt against the set as it stands on the first NextHop
// after the set's epoch has moved, routing around dead nodes and links;
// each such rebuild of an existing table counts in RouterStats().Reroutes.
// A table costs O(N) memory, so the router keeps up to N^2 entries. Not
// safe for concurrent use; the fault set may be mutated concurrently.
type BFSRouter struct {
	n   int
	rev *graph.Graph // the reverse graph the tables are grown over
	fs  *FaultSet    // nil: nothing ever fails

	tables [][]int32 // per destination; nil until first needed
	epochs []uint64  // the fault epoch each table was built at
	queue  []int32   // BFS scratch

	reroutes uint64
}

// NewBFSRouter returns the table router of t over fault set fs (nil for a
// fault-free router). The reverse of a directed graph is built here, once.
func NewBFSRouter(t *Materialized, fs *FaultSet) *BFSRouter {
	rev := t.G
	if rev.Directed {
		rev = rev.Reverse()
	}
	n := t.G.N()
	return &BFSRouter{n: n, rev: rev, fs: fs, tables: make([][]int32, n), epochs: make([]uint64, n)}
}

// NextHop returns cur's entry in dst's table. It errors when cur == dst,
// when either id is out of range, and when dst is dead or cut off from cur.
func (r *BFSRouter) NextHop(cur, dst int64) (int64, error) {
	if cur == dst {
		return 0, fmt.Errorf("topo: NextHop(%d, %d): already at destination", cur, dst)
	}
	if n := int64(r.n); cur < 0 || dst < 0 || cur >= n || dst >= n {
		return 0, fmt.Errorf("topo: NextHop(%d, %d): node out of range [0,%d)", cur, dst, n)
	}
	h := r.table(int32(dst))[cur]
	if h < 0 {
		return 0, fmt.Errorf("topo: no live route from %d to %d", cur, dst)
	}
	return int64(h), nil
}

// RouterStats reports Reroutes, the rebuilds of an existing table after a
// fault epoch change; the other counters belong to source-route stores,
// which this router has none of.
func (r *BFSRouter) RouterStats() RouterStats { return RouterStats{Reroutes: r.reroutes} }

// table returns dst's table, building it when it is missing and rebuilding
// it when the fault epoch has moved since it was built.
func (r *BFSRouter) table(dst int32) []int32 {
	tbl := r.tables[dst]
	var epoch uint64
	if r.fs != nil {
		epoch = r.fs.Epoch()
	}
	if tbl != nil && r.epochs[dst] == epoch {
		return tbl
	}
	if tbl == nil {
		tbl = make([]int32, r.n)
	} else {
		r.reroutes++
	}
	// Read the epoch before the snapshot: a writer publishes its snapshot
	// before it bumps the epoch, so the snapshot is at least as new as the
	// epoch the table is tagged with, and a newer one only costs a rebuild.
	var deadNode func(int32) bool
	var deadLink func(u, v int32) bool
	if r.fs != nil {
		s := r.fs.live.Load()
		if len(s.nodes) > 0 {
			deadNode = func(v int32) bool { _, down := s.nodes[int64(v)]; return down }
		}
		if len(s.links) > 0 {
			deadLink = func(u, v int32) bool { _, down := s.links[[2]int64{int64(u), int64(v)}]; return down }
		}
	}
	r.queue = bfsNextHops(r.rev, dst, deadNode, deadLink, tbl, r.queue)
	r.tables[dst], r.epochs[dst] = tbl, epoch
	return tbl
}

// bfsNextHops fills parent with the next-hop table toward dst by BFS from
// dst over rev, the reverse graph: the next hop of u is u's parent in the
// BFS tree, so among equally minimal hops the tree's discovery order breaks
// ties. Nodes for which deadNode returns true and forward arcs u->v for
// which deadLink returns true are routed around; either predicate may be
// nil (nothing is dead). Entries are -1 at dst and at nodes with no live
// path (everywhere when dst is dead). queue is scratch, returned for reuse.
func bfsNextHops(rev *graph.Graph, dst int32, deadNode func(int32) bool, deadLink func(u, v int32) bool, parent, queue []int32) []int32 {
	const unseen = -2
	for i := range parent {
		parent[i] = unseen
	}
	queue = queue[:0]
	if deadNode == nil || !deadNode(dst) {
		parent[dst] = -1
		queue = append(queue, dst)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range rev.Neighbors(v) {
			// The reverse arc v->u is the forward arc u->v.
			if parent[u] != unseen {
				continue
			}
			if deadNode != nil && deadNode(u) || deadLink != nil && deadLink(u, v) {
				continue
			}
			parent[u] = v
			queue = append(queue, u)
		}
	}
	for i, p := range parent {
		if p == unseen {
			parent[i] = -1
		}
	}
	return queue
}
