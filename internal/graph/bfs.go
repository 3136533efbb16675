package graph

import (
	"math"
	"runtime"
	"sync"
)

// Unreachable is the distance value reported for unreachable nodes.
const Unreachable int32 = -1

// BFS computes single-source shortest-path distances (hop counts) from src.
// The returned slice has length g.N(); unreachable nodes hold Unreachable.
func (g *Graph) BFS(src int32) []int32 {
	dist := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	g.bfsInto(src, dist, queue)
	return dist
}

// bfsInto runs BFS using caller-provided buffers. dist must have length
// g.N(); queue must have capacity for g.N() entries.
func (g *Graph) bfsInto(src int32, dist []int32, queue []int32) []int32 {
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue = queue[:0]
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Neighbors(u) {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// Stats aggregates distance statistics over a set of BFS sources.
type Stats struct {
	// Diameter is the maximum finite pairwise distance observed.
	Diameter int32
	// AvgDistance is the mean distance over all ordered pairs (u,v) with
	// u != v among the sampled sources (all pairs if exhaustive).
	AvgDistance float64
	// Radius is the minimum eccentricity over the sampled sources.
	Radius int32
	// Connected reports whether every BFS reached every node.
	Connected bool
	// Sources is the number of BFS sources used.
	Sources int
}

// AllPairs runs a BFS from every node in parallel and aggregates statistics.
func (g *Graph) AllPairs() Stats {
	sources := make([]int32, g.n)
	for i := range sources {
		sources[i] = int32(i)
	}
	return g.statsFromSources(sources, nil)
}

// AllPairsWeighted computes the same statistics under a 0/1 edge weighting:
// weight(u,v) gives the cost of traversing arc u->v and must be 0 or 1.
// This is the measurement behind the paper's inter-cluster distance: on- vs
// off-module hops.
func (g *Graph) AllPairsWeighted(weight func(u, v int32) int32) Stats {
	sources := make([]int32, g.n)
	for i := range sources {
		sources[i] = int32(i)
	}
	return g.statsFromSources(sources, weight)
}

// PairStatsWeighted runs BFS from the given sources only (useful for
// sampling large graphs, or a single source on a vertex-transitive graph)
// under a 0/1 edge weighting.
func (g *Graph) PairStatsWeighted(sources []int32, weight func(u, v int32) int32) Stats {
	return g.statsFromSources(sources, weight)
}

func (g *Graph) statsFromSources(sources []int32, weight func(u, v int32) int32) Stats {
	if g.n == 0 || len(sources) == 0 {
		return Stats{Connected: true}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(sources) {
		workers = len(sources)
	}
	type partial struct {
		diameter int32
		radius   int32
		sum      int64
		pairs    int64
		conn     bool
	}
	results := make([]partial, workers)
	var wg sync.WaitGroup
	next := make(chan int32, len(sources))
	for _, s := range sources {
		next <- s
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := partial{radius: math.MaxInt32, conn: true}
			dist := make([]int32, g.n)
			queue := make([]int32, 0, g.n)
			var dq *deque
			if weight != nil {
				dq = newDeque(g.n)
			}
			for src := range next {
				if weight == nil {
					g.bfsInto(src, dist, queue)
				} else {
					g.zeroOneBFSInto(src, dist, dq, weight)
				}
				var ecc int32
				for _, d := range dist {
					if d == Unreachable {
						p.conn = false
						continue
					}
					if d > ecc {
						ecc = d
					}
					p.sum += int64(d)
					p.pairs++
				}
				p.pairs-- // exclude the (src,src) zero-distance pair
				if ecc > p.diameter {
					p.diameter = ecc
				}
				if ecc < p.radius {
					p.radius = ecc
				}
			}
			results[w] = p
		}(w)
	}
	wg.Wait()
	agg := Stats{Connected: true, Sources: len(sources), Radius: math.MaxInt32}
	var sum, pairs int64
	for _, p := range results {
		if p.diameter > agg.Diameter {
			agg.Diameter = p.diameter
		}
		if p.radius < agg.Radius {
			agg.Radius = p.radius
		}
		sum += p.sum
		pairs += p.pairs
		agg.Connected = agg.Connected && p.conn
	}
	if pairs > 0 {
		agg.AvgDistance = float64(sum) / float64(pairs)
	}
	if agg.Radius == math.MaxInt32 {
		agg.Radius = 0
	}
	return agg
}

// deque is a growable ring-buffer double-ended queue of node ids for 0/1 BFS.
type deque struct {
	buf  []int32
	head int // index of the front element
	size int
}

func newDeque(n int) *deque {
	c := 16
	for c < n+1 {
		c <<= 1
	}
	return &deque{buf: make([]int32, c)}
}

func (d *deque) reset(int) {
	d.head, d.size = 0, 0
}

func (d *deque) empty() bool { return d.size == 0 }

func (d *deque) grow() {
	buf := make([]int32, 2*len(d.buf))
	for i := 0; i < d.size; i++ {
		buf[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf, d.head = buf, 0
}

func (d *deque) pushFront(v int32) {
	if d.size == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.size++
}

func (d *deque) pushBack(v int32) {
	if d.size == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.size)&(len(d.buf)-1)] = v
	d.size++
}

func (d *deque) popFront() int32 {
	v := d.buf[d.head]
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.size--
	return v
}

// ZeroOneBFS computes shortest distances from src where each arc u->v costs
// weight(u,v), which must be 0 or 1. Used for inter-cluster distances where
// on-module hops are free and off-module hops cost one transmission. No
// program calls it: it is the single-source test oracle of
// AllPairsWeighted and PairStatsWeighted, which run the same search.
func (g *Graph) ZeroOneBFS(src int32, weight func(u, v int32) int32) []int32 {
	dist := make([]int32, g.n)
	dq := newDeque(g.n)
	g.zeroOneBFSInto(src, dist, dq, weight)
	return dist
}

func (g *Graph) zeroOneBFSInto(src int32, dist []int32, dq *deque, weight func(u, v int32) int32) {
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	dq.reset(g.n)
	dq.pushBack(src)
	for !dq.empty() {
		u := dq.popFront()
		du := dist[u]
		for _, v := range g.Neighbors(u) {
			w := weight(u, v)
			nd := du + w
			if dist[v] == Unreachable || nd < dist[v] {
				dist[v] = nd
				if w == 0 {
					dq.pushFront(v)
				} else {
					dq.pushBack(v)
				}
			}
		}
	}
}

// IsConnected reports whether the graph is (strongly, if directed) connected
// in the BFS-from-0 sense combined with a reverse check for directed graphs.
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	if !g.Directed {
		return true
	}
	// Strong connectivity: also require node 0 reachable from everywhere,
	// checked on the reverse graph.
	rev := g.Reverse()
	dist = rev.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Reverse returns the directed graph that has an arc v->u for every arc
// u->v of g.
func (g *Graph) Reverse() *Graph {
	b := NewBuilder(g.n, true)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(int32(u)) {
			b.AddArc(v, int32(u))
		}
	}
	return b.Build()
}
