// Package faults measures the robustness attributes of interconnection
// networks: exact edge and vertex connectivity via unit-capacity max-flow
// (Menger's theorem), and Monte-Carlo fault injection reporting survival
// probability and diameter inflation. The paper motivates the star graph
// and its super-IP relatives partly by their "fault tolerance properties";
// this package quantifies those properties for every network in the
// repository.
package faults

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// flowNet is a unit-capacity directed flow network with mutable residual
// capacities. Nodes are 0..n-1; arcs come in (to, rev, cap) triples. The
// connectivity functions build one network per call and reset its
// capacities before each (s, t) pair.
type flowNet struct {
	n   int
	to  [][]int32
	rev [][]int32
	cap [][]int8
	// maxflow's BFS scratch, allocated once per network.
	prevNode, prevEdge, queue []int32
}

func newFlowNet(n int) *flowNet {
	return &flowNet{
		n:        n,
		to:       make([][]int32, n),
		rev:      make([][]int32, n),
		cap:      make([][]int8, n),
		prevNode: make([]int32, n),
		prevEdge: make([]int32, n),
	}
}

func (f *flowNet) addEdge(u, v int32, c int8) {
	f.to[u] = append(f.to[u], v)
	f.rev[u] = append(f.rev[u], int32(len(f.to[v])))
	f.cap[u] = append(f.cap[u], c)
	f.to[v] = append(f.to[v], u)
	f.rev[v] = append(f.rev[v], int32(len(f.to[u])-1))
	f.cap[v] = append(f.cap[v], 0)
}

// caps returns a copy of the residual capacities.
func (f *flowNet) caps() [][]int8 {
	c := make([][]int8, f.n)
	for v, row := range f.cap {
		c[v] = slices.Clone(row)
	}
	return c
}

// setCaps restores capacities saved by caps.
func (f *flowNet) setCaps(c [][]int8) {
	for v, row := range c {
		copy(f.cap[v], row)
	}
}

// maxflow runs BFS augmenting paths (unit capacities, flow bounded by
// degree, so this is fast enough for the sizes we measure) and stops once
// the flow reaches bound.
func (f *flowNet) maxflow(s, t int32, bound int) int {
	flow := 0
	prevNode, prevEdge := f.prevNode, f.prevEdge
	for flow < bound {
		for i := range prevNode {
			prevNode[i] = -1
		}
		prevNode[s] = s
		queue := append(f.queue[:0], s)
		found := false
		for head := 0; head < len(queue) && !found; head++ {
			u := queue[head]
			for ei, v := range f.to[u] {
				if f.cap[u][ei] > 0 && prevNode[v] == -1 {
					prevNode[v] = u
					prevEdge[v] = int32(ei)
					if v == t {
						found = true
						break
					}
					queue = append(queue, v)
				}
			}
		}
		f.queue = queue
		if !found {
			break
		}
		for v := t; v != s; {
			u := prevNode[v]
			ei := prevEdge[v]
			f.cap[u][ei]--
			f.cap[v][f.rev[u][ei]]++
			v = u
		}
		flow++
	}
	return flow
}

// splitNet builds the node-split flow network of g: node v becomes v_in =
// 2v and v_out = 2v+1, joined by a unit arc, and each arc u->v of g becomes
// u_out -> v_in with capacity edgeCap. An s-t flow runs from s_out to t_in,
// so the unit arcs of s and t never carry it and every (s, t) pair can
// share one network.
func splitNet(g *graph.Graph, edgeCap int8) *flowNet {
	n := g.N()
	f := newFlowNet(2 * n)
	for v := 0; v < n; v++ {
		f.addEdge(int32(2*v), int32(2*v+1), 1)
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(int32(u)) {
			f.addEdge(int32(2*u+1), int32(2*v), edgeCap)
		}
	}
	return f
}

// EdgeConnectivity returns lambda(G): the minimum number of edge removals
// that disconnect the (undirected, connected) graph. Computed as the
// minimum over t of maxflow(0, t) with unit edge capacities.
func EdgeConnectivity(g *graph.Graph) (int, error) {
	if g.Directed {
		return 0, fmt.Errorf("faults: edge connectivity requires an undirected graph")
	}
	if g.N() < 2 {
		return 0, fmt.Errorf("faults: need at least 2 nodes")
	}
	if !g.IsConnected() {
		return 0, nil
	}
	f := newFlowNet(g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if v > int32(u) {
				f.addEdge(int32(u), v, 1)
				f.addEdge(v, int32(u), 1)
			}
		}
	}
	init := f.caps()
	best := g.N() * g.N()
	for t := int32(1); t < int32(g.N()); t++ {
		f.setCaps(init)
		if fl := f.maxflow(0, t, best); fl < best {
			best = fl
		}
	}
	return best, nil
}

// VertexConnectivity returns kappa(G): the minimum number of node removals
// that disconnect the graph (n-1 for complete graphs). Uses Menger via
// node-split max-flow; by the standard cut argument it suffices to take
// sources in {v0} union N(v0) and sinks non-adjacent to the source.
func VertexConnectivity(g *graph.Graph) (int, error) {
	if g.Directed {
		return 0, fmt.Errorf("faults: vertex connectivity requires an undirected graph")
	}
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("faults: need at least 2 nodes")
	}
	if !g.IsConnected() {
		return 0, nil
	}
	// Complete graph: no non-adjacent pairs exist.
	complete := true
	for u := 0; u < n && complete; u++ {
		if g.Degree(int32(u)) != n-1 {
			complete = false
		}
	}
	if complete {
		return n - 1, nil
	}
	adjacent := func(u, v int32) bool { return g.HasEdge(u, v) }

	// Arcs between nodes get a capacity no inner node arc can match, so
	// only nodes bottleneck: the flow counts vertex-disjoint paths.
	f := splitNet(g, 100)
	init := f.caps()
	best := n - 1
	sources := append([]int32{0}, g.Neighbors(0)...)
	for _, s := range sources {
		for t := int32(0); t < int32(n); t++ {
			if t == s || adjacent(s, t) {
				continue
			}
			f.setCaps(init)
			if fl := f.maxflow(2*s+1, 2*t, best); fl < best {
				best = fl
			}
		}
	}
	return best, nil
}

// InjectionResult summarizes Monte-Carlo node-fault injection.
type InjectionResult struct {
	Trials int
	// SurvivedConnected counts trials where the surviving nodes remained
	// connected.
	SurvivedConnected int
	// MaxDiameter is the largest diameter observed among connected
	// survivors (0 if none).
	MaxDiameter int
	// MeanDiameter averages over connected-survivor trials.
	MeanDiameter float64
}

// InjectNodeFaults removes `failures` uniformly random nodes per trial and
// measures the surviving subgraph.
func InjectNodeFaults(g *graph.Graph, failures, trials int, seed int64) (InjectionResult, error) {
	if failures < 0 || failures >= g.N() {
		return InjectionResult{}, fmt.Errorf("faults: cannot fail %d of %d nodes", failures, g.N())
	}
	rng := rand.New(rand.NewSource(seed))
	res := InjectionResult{Trials: trials}
	var diamSum int64
	for trial := 0; trial < trials; trial++ {
		dead := make([]bool, g.N())
		for k := 0; k < failures; {
			v := rng.Intn(g.N())
			if !dead[v] {
				dead[v] = true
				k++
			}
		}
		sub, ok := survivorGraph(g, dead)
		if !ok {
			continue
		}
		st := sub.AllPairs()
		if !st.Connected {
			continue
		}
		res.SurvivedConnected++
		diamSum += int64(st.Diameter)
		if int(st.Diameter) > res.MaxDiameter {
			res.MaxDiameter = int(st.Diameter)
		}
	}
	if res.SurvivedConnected > 0 {
		res.MeanDiameter = float64(diamSum) / float64(res.SurvivedConnected)
	}
	return res, nil
}

// survivorGraph extracts the subgraph induced by live nodes. Returns false
// if fewer than two nodes survive.
func survivorGraph(g *graph.Graph, dead []bool) (*graph.Graph, bool) {
	remap := make([]int32, g.N())
	alive := int32(0)
	for v := 0; v < g.N(); v++ {
		if dead[v] {
			remap[v] = -1
		} else {
			remap[v] = alive
			alive++
		}
	}
	if alive < 2 {
		return nil, false
	}
	b := graph.NewBuilder(int(alive), g.Directed)
	for u := 0; u < g.N(); u++ {
		if dead[u] {
			continue
		}
		for _, v := range g.Neighbors(int32(u)) {
			if !dead[v] {
				b.AddArc(remap[u], remap[v])
			}
		}
	}
	return b.Build(), true
}

// FaultDiameter returns the exact (f)-fault diameter for small graphs: the
// maximum, over all ways to remove up to f nodes that leave the graph
// connected, of the surviving diameter. Exponential in f; intended for
// f <= 2 on small networks.
func FaultDiameter(g *graph.Graph, f int) (int, error) {
	if f < 0 {
		return 0, fmt.Errorf("faults: negative fault count")
	}
	worst := 0
	dead := make([]bool, g.N())
	var rec func(start, remaining int) error
	rec = func(start, remaining int) error {
		sub, ok := survivorGraph(g, dead)
		if ok {
			st := sub.AllPairs()
			if st.Connected && int(st.Diameter) > worst {
				worst = int(st.Diameter)
			}
		}
		if remaining == 0 {
			return nil
		}
		for v := start; v < g.N(); v++ {
			dead[v] = true
			if err := rec(v+1, remaining-1); err != nil {
				return err
			}
			dead[v] = false
		}
		return nil
	}
	if err := rec(0, f); err != nil {
		return 0, err
	}
	return worst, nil
}

// DisjointPaths returns a maximum set of internally vertex-disjoint paths
// from s to t (Menger: their number equals the s-t vertex connectivity for
// non-adjacent s,t). Paths are returned as node sequences including s and t.
func DisjointPaths(g *graph.Graph, s, t int32) ([][]int32, error) {
	if g.Directed {
		return nil, fmt.Errorf("faults: undirected graphs only")
	}
	if s == t {
		return nil, fmt.Errorf("faults: s == t")
	}
	n := g.N()
	// Decompose the integral flow into paths: an arc carries flow where its
	// residual capacity fell below its initial one.
	f := splitNet(g, 1)
	initCap := f.caps()
	flow := f.maxflow(2*s+1, 2*t, n)
	used := make([][]bool, 2*n)
	for v := range used {
		used[v] = make([]bool, len(f.to[v]))
	}
	flowOn := func(v int32, ei int) int8 {
		return initCap[v][ei] - f.cap[v][ei] // positive where flow traversed
	}
	var paths [][]int32
	// spliceLoops removes any cycles the walk may have traversed (possible
	// when augmentation left circular flow), keeping a simple path.
	spliceLoops := func(path []int32) []int32 {
		pos := map[int32]int{}
		out := path[:0:0]
		for _, v := range path {
			if i, ok := pos[v]; ok {
				for _, w := range out[i+1:] {
					delete(pos, w)
				}
				out = out[:i+1]
				continue
			}
			pos[v] = len(out)
			out = append(out, v)
		}
		return out
	}
	for k := 0; k < flow; k++ {
		// Walk from s_out following positive-flow arcs, cancelling as we go.
		var path []int32
		path = append(path, s)
		cur := int32(2*s + 1)
		steps := 0
		for cur != int32(2*t) {
			advanced := false
			for ei, to := range f.to[cur] {
				if flowOn(cur, ei) > 0 && !used[cur][ei] {
					used[cur][ei] = true
					cur = to
					// Record a node on leaving it: its out-vertex is odd.
					if cur%2 == 1 {
						path = append(path, cur/2)
					}
					advanced = true
					break
				}
			}
			if !advanced {
				return nil, fmt.Errorf("faults: flow decomposition stuck at %d", cur)
			}
			if steps++; steps > 4*(n+g.M()) {
				return nil, fmt.Errorf("faults: flow decomposition loop")
			}
		}
		path = append(path, t)
		paths = append(paths, spliceLoops(path))
	}
	return paths, nil
}
