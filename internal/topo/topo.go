// Package topo abstracts network topologies behind an algebraic interface so
// routing and simulation no longer require a materialized graph.
//
// The paper's central claim (Sections 4-5) is that super-IP networks admit
// constructive routing: a node's neighbors and the next hop toward any
// destination are computable directly from its label — the seed multiset
// plus the generator algebra — with no global state. A Topology exposes
// exactly that contract: node count, neighbor enumeration, and (through the
// optional Labeled/Modular interfaces) the id<->label bijection and the
// nucleus-per-module packing, all per-node O(1) in memory.
//
// Two families of implementations are provided: Materialized wraps the
// existing adjacency-list graph.Graph (every algorithm that works on a
// Topology keeps working on explicitly built graphs), while Implicit
// evaluates a super-IP graph's generator algebra on the fly and scales to
// instances no adjacency list can hold. An Implicit node id is the rank of
// its label, whose mixed-radix digits are the label's super-symbols, so a
// generator acts on the id directly (core.Ranker.Step): neighbors and route
// hops are integer arithmetic on shared immutable tables, with no label on
// the simulator's hot path. Routers pair with topologies the same way:
// Table is the BFS next-hop oracle over a materialized graph; Algebraic
// computes the Theorem 4.1/4.3 route on an Implicit id's rank digits (on
// labels over any other codec), and Hypercube and Star compute next hops
// arithmetically on ids.
package topo

import "repro/internal/symbols"

// Topology is a network whose structure is queryable per node. Node ids are
// dense in [0, N()). Implementations may keep internal scratch buffers, so a
// Topology is not safe for concurrent use unless documented otherwise.
type Topology interface {
	// N returns the number of nodes.
	N() int64
	// MaxDegree bounds the number of neighbors of any node (used to size
	// buffers; individual nodes may have fewer neighbors).
	MaxDegree() int
	// Directed reports whether arcs are one-way.
	Directed() bool
	// Neighbors appends the out-neighbors of u to buf[:0] and returns the
	// slice, sorted ascending with duplicates and self-loops removed — the
	// same adjacency contract as graph.Graph.Neighbors.
	Neighbors(u int64, buf []int64) []int64
}

// Labeled is implemented by topologies that expose the id <-> label
// bijection of the IP-graph model.
type Labeled interface {
	// Label returns the label of node u. The returned slice may alias
	// internal scratch; clone it to retain it across calls.
	Label(u int64) symbols.Label
	// ID returns the node id of a label, or -1 if the label is not a
	// vertex.
	ID(x symbols.Label) int64
}

// Modular is implemented by topologies with a nucleus-per-module packing
// (Section 5.3). Module ids are dense in [0, Modules()).
type Modular interface {
	Modules() int64
	Module(u int64) int64
}

// Router decides, per hop, where a packet at cur should go next on its way
// to dst. Implementations derive the decision either from O(1) per-node
// id or label arithmetic (Algebraic, Hypercube, Star) or from materialized
// BFS tables (Table). A Router is not safe for concurrent use unless documented
// otherwise.
type Router interface {
	// NextHop returns the next node on a route from cur toward dst.
	// cur == dst is an error: the packet has already arrived.
	NextHop(cur, dst int64) (int64, error)
}

// PathRouter is a Router that can produce whole routes. Paths include both
// endpoints, so hop count is len(path)-1.
type PathRouter interface {
	Router
	Path(src, dst int64) ([]int64, error)
}
