package topo

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/symbols"
)

// Table is the BFS next-hop oracle over a materialized graph: the fallback
// Router for arbitrary topologies, with the same route.BFSNextHops tables
// (and tie-break) as the materialized simulator. Per-destination tables
// are built lazily on first use and memoized, so memory grows toward
// O(N^2) only for destinations actually routed to. Not safe for concurrent
// use.
type Table struct {
	G      *graph.Graph
	tables map[int32]route.NextHopTable
}

// NewTable wraps a built graph as a lazily materialized next-hop Router.
func NewTable(g *graph.Graph) *Table {
	return &Table{G: g, tables: map[int32]route.NextHopTable{}}
}

func (t *Table) table(dst int32) route.NextHopTable {
	tab, ok := t.tables[dst]
	if !ok {
		tab = route.BFSNextHops(t.G, dst, nil, nil)
		t.tables[dst] = tab
	}
	return tab
}

// NextHop returns the BFS next hop from cur toward dst.
func (t *Table) NextHop(cur, dst int64) (int64, error) {
	if cur == dst {
		return 0, fmt.Errorf("topo: NextHop(%d, %d): already at destination", cur, dst)
	}
	nxt := t.table(int32(dst))[cur]
	if nxt < 0 {
		return 0, fmt.Errorf("topo: no route from %d to %d", cur, dst)
	}
	return int64(nxt), nil
}

// Path returns a shortest path from src to dst.
func (t *Table) Path(src, dst int64) ([]int64, error) {
	p, err := t.table(int32(dst)).Follow(int32(src), int32(dst))
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(p))
	for i, v := range p {
		out[i] = int64(v)
	}
	return out, nil
}

// Algebraic routes a super-IP graph with the constructive algorithm of
// Theorems 4.1/4.3 (core.Router), working purely on labels: the only state is
// the nucleus routing trees, so per-node memory is O(1) in N. Node ids are
// translated through a Labeled codec — the closed-form Ranker of an Implicit
// topology, or the Index of a Materialized one — so the same router serves
// both implementations. Not safe for concurrent use.
type Algebraic struct {
	r      *core.Router
	codec  Labeled
	srcBuf symbols.Label
	dstBuf symbols.Label

	// routes carries each packet's source route between NextHop calls.
	routes routeStore
}

// NewAlgebraic builds the paper's router over the implicit (closed-form)
// id <-> label bijection of s. No graph is materialized.
func NewAlgebraic(s *core.SuperIP) (*Algebraic, error) {
	imp, err := NewImplicit(s)
	if err != nil {
		return nil, err
	}
	return NewAlgebraicWith(s, imp)
}

// NewAlgebraicWith builds the paper's router over an explicit id <-> label
// codec — typically a Materialized topology carrying the core.Index of a
// built graph, so the router's paths are valid on that graph's ids.
func NewAlgebraicWith(s *core.SuperIP, codec Labeled) (*Algebraic, error) {
	r, err := core.NewRouter(s)
	if err != nil {
		return nil, err
	}
	m := s.Nucleus.M()
	return &Algebraic{
		r:      r,
		codec:  codec,
		srcBuf: make(symbols.Label, s.L*m),
		dstBuf: make(symbols.Label, s.L*m),
	}, nil
}

// NextHop advances one hop along the source route toward dst: the remaining
// route carried from the previous hop when one is stored, or a freshly
// computed Theorem 4.1/4.3 route from cur otherwise. Either way the packet
// follows a complete algebraic route of at most l*D_G + t hops, re-sourced
// only on store loss, so the iteration always terminates at dst.
func (a *Algebraic) NextHop(cur, dst int64) (int64, error) {
	if cur == dst {
		return 0, fmt.Errorf("topo: NextHop(%d, %d): already at destination", cur, dst)
	}
	if nxt, _, ok := a.routes.next(cur, dst); ok {
		return nxt, nil
	}
	p, err := a.Path(cur, dst)
	if err != nil {
		return 0, err
	}
	return a.routes.begin(cur, dst, p, false)
}

// RouterStats returns the cumulative route-store telemetry of this router:
// hits/misses of the in-flight source-route store, entries orphaned by
// safety-valve clears (each a forced mid-flight re-source), the clear count,
// and the current occupancy. Simulators snapshot it before and after a run
// and report the Delta.
func (a *Algebraic) RouterStats() RouterStats { return a.routes.stats() }

// Path returns the full algebraic route as node ids.
func (a *Algebraic) Path(src, dst int64) ([]int64, error) {
	a.srcBuf = append(a.srcBuf[:0], a.codec.Label(src)...)
	a.dstBuf = append(a.dstBuf[:0], a.codec.Label(dst)...)
	p, err := a.r.Route(a.srcBuf, a.dstBuf)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(p.Labels))
	for i, lbl := range p.Labels {
		id := a.codec.ID(lbl)
		if id < 0 {
			return nil, fmt.Errorf("topo: route label %v is not a vertex", lbl)
		}
		out[i] = id
	}
	return out, nil
}

// HypercubeRouter is e-cube routing on HypercubeTopo ids: correct the lowest
// differing bit first. Paths are shortest (Hamming distance). Safe for
// concurrent use.
type HypercubeRouter struct{ Dim int }

// NextHop flips the lowest bit in which cur and dst differ.
func (r HypercubeRouter) NextHop(cur, dst int64) (int64, error) {
	diff := cur ^ dst
	if diff == 0 {
		return 0, fmt.Errorf("topo: NextHop(%d, %d): already at destination", cur, dst)
	}
	return cur ^ (diff & -diff), nil
}

// Path returns the e-cube route.
func (r HypercubeRouter) Path(src, dst int64) ([]int64, error) {
	p := route.Hypercube(r.Dim, int32(src), int32(dst))
	out := make([]int64, len(p))
	for i, v := range p {
		out[i] = int64(v)
	}
	return out, nil
}

// StarRouter is the optimal cycle-sorting router on the node ids of
// networks.Star (lexicographic permutation ranks). Paths are shortest
// (StarDistance). Safe for concurrent use.
type StarRouter struct{ Symbols int }

// NextHop takes the first edge of the optimal sorting route.
func (r StarRouter) NextHop(cur, dst int64) (int64, error) {
	if cur == dst {
		return 0, fmt.Errorf("topo: NextHop(%d, %d): already at destination", cur, dst)
	}
	p, err := route.StarIDPath(r.Symbols, int32(cur), int32(dst))
	if err != nil {
		return 0, err
	}
	return int64(p[1]), nil
}

// Path returns the optimal sorting route.
func (r StarRouter) Path(src, dst int64) ([]int64, error) {
	p, err := route.StarIDPath(r.Symbols, int32(src), int32(dst))
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(p))
	for i, v := range p {
		out[i] = int64(v)
	}
	return out, nil
}
