package topo

import (
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
