// Package route implements network-specific routing algorithms for the
// comparison networks: e-cube routing for hypercubes, dimension-order
// routing for k-ary n-cubes, the optimal cycle-sorting algorithm for star
// graphs (the Cayley-graph "sorting" view of routing that Section 4
// generalizes to IP graphs), digit-shifting for de Bruijn graphs, and
// generic BFS next-hop tables for everything else. The BFS tables come from
// two builders, BFSNextHops (one next hop per node, the BFS-tree parent)
// and BFSAllNextHops (every minimal next hop); both take optional liveness
// predicates, so the same builder serves fault-free routing and table
// repair around dead nodes and links.
package route

import (
	"fmt"

	"repro/internal/graph"
)

// Path is a sequence of node ids from source to destination inclusive.
type Path []int32

// Hops returns the number of edges traversed.
func (p Path) Hops() int { return len(p) - 1 }

// Validate checks that the path starts at src, ends at dst, and follows
// edges of g.
func (p Path) Validate(g *graph.Graph, src, dst int32) error {
	if len(p) == 0 || p[0] != src || p[len(p)-1] != dst {
		return fmt.Errorf("route: path endpoints wrong")
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			return fmt.Errorf("route: step %d (%d -> %d) is not an edge", i, p[i], p[i+1])
		}
	}
	return nil
}

// Hypercube returns the e-cube route in Q_dim: correct differing bits from
// least significant to most significant. The path length equals the Hamming
// distance, which is optimal.
func Hypercube(dim int, src, dst int32) Path {
	p := Path{src}
	cur := src
	for bit := 0; bit < dim; bit++ {
		mask := int32(1) << uint(bit)
		if cur&mask != dst&mask {
			cur ^= mask
			p = append(p, cur)
		}
	}
	return p
}

// KAryNCube returns the dimension-order route in the k-ary n-cube: each
// coordinate moves along the shorter wraparound direction. Optimal.
func KAryNCube(k, dims int, src, dst int32) Path {
	p := Path{src}
	cur := int(src)
	stride := 1
	for d := 0; d < dims; d++ {
		sd := (cur / stride) % k
		dd := (int(dst) / stride) % k
		delta := (dd - sd + k) % k
		// Move along the shorter wraparound direction (ties go forward).
		step := 1
		count := delta
		if delta > k/2 {
			step = -1
			count = k - delta
		}
		for i := 0; i < count; i++ {
			digit := (cur / stride) % k
			next := (digit + step + k) % k
			cur += (next - digit) * stride
			p = append(p, int32(cur))
		}
		stride *= k
	}
	return p
}

// StarDistance returns the exact star-graph distance from permutation perm
// to the identity: sum over cycles of (k-1) if the cycle contains position 0
// else (k+1) — the classic Akers-Krishnamurthy result.
func StarDistance(perm []byte) int {
	n := len(perm)
	seen := make([]bool, n)
	d := 0
	for i := 0; i < n; i++ {
		if seen[i] || int(perm[i]) == i {
			seen[i] = true
			continue
		}
		k := 0
		containsFirst := false
		for j := i; !seen[j]; j = int(perm[j]) {
			seen[j] = true
			k++
			if j == 0 {
				containsFirst = true
			}
		}
		if containsFirst {
			d += k - 1
		} else {
			d += k + 1
		}
	}
	return d
}

// Star routes in the star graph by optimally sorting the source permutation
// into the destination permutation. Labels are permutations of 0..n-1; the
// returned sequence of labels starts at src and ends at dst, moving along
// star edges (swap position 0 with position i). The length always equals
// StarDistance of the relative permutation (optimal).
func Star(src, dst []byte) ([][]byte, error) {
	n := len(src)
	if len(dst) != n {
		return nil, fmt.Errorf("route: length mismatch")
	}
	// Work in the frame where dst is the identity: rel[i] = position in dst
	// of the symbol src[i].
	posInDst := make([]int, n)
	for i, v := range dst {
		posInDst[v] = i
	}
	cur := make([]byte, n)
	for i, v := range src {
		cur[i] = byte(posInDst[v])
	}
	path := [][]byte{append([]byte(nil), cur...)}
	swap := func(i int) {
		cur[0], cur[i] = cur[i], cur[0]
		path = append(path, append([]byte(nil), cur...))
	}
	for {
		x := int(cur[0])
		if x != 0 {
			// The symbol at the front belongs at position x: send it home.
			swap(x)
			continue
		}
		// Front is correct; find any out-of-place symbol and bring it in.
		done := true
		for i := 1; i < n; i++ {
			if int(cur[i]) != i {
				swap(i)
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	// Translate the path back into the original symbol alphabet.
	out := make([][]byte, len(path))
	for s, lab := range path {
		t := make([]byte, n)
		for i, v := range lab {
			t[i] = dst[v]
		}
		out[s] = t
	}
	return out, nil
}

// DeBruijn routes in the directed base-b de Bruijn graph by shifting in
// destination digits, exploiting the longest overlap between the suffix of
// src and the prefix of dst; the path has at most dim hops and is the
// shortest shift-only route.
func DeBruijn(base, dim int, src, dst int32) Path {
	n := 1
	for i := 0; i < dim; i++ {
		n *= base
	}
	// Try overlap lengths from dim (identical) down to 0; keep = number of
	// low digits of src that already match the high digits of dst. keep = 0
	// always matches, so the loop always returns.
	for keep := dim; keep >= 0; keep-- {
		mod := 1
		for i := 0; i < keep; i++ {
			mod *= base
		}
		div := n / mod
		if int(src)%mod != int(dst)/div {
			continue
		}
		p := Path{src}
		cur := int(src)
		// Shift in the remaining dim-keep digits of dst.
		rem := int(dst) % div
		digits := make([]int, dim-keep)
		for i := dim - keep - 1; i >= 0; i-- {
			digits[i] = rem % base
			rem /= base
		}
		for _, dig := range digits {
			cur = (cur*base + dig) % n
			p = append(p, int32(cur))
		}
		return p
	}
	return Path{src}
}

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
	_, parent := liveBFS(g, dst, deadNode, deadLink)
	return parent
}

func reverseOf(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.N(), true)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(int32(u)) {
			b.AddArc(v, int32(u))
		}
	}
	return b.Build()
}

// Follow expands a next-hop table into a full path from src.
func (t NextHopTable) Follow(src, dst int32) (Path, error) {
	p := Path{src}
	cur := src
	for cur != dst {
		nxt := t[cur]
		if nxt < 0 {
			return nil, fmt.Errorf("route: no next hop from %d toward %d", cur, dst)
		}
		cur = nxt
		p = append(p, cur)
		if len(p) > len(t)+1 {
			return nil, fmt.Errorf("route: next-hop loop detected")
		}
	}
	return p, nil
}

// BFSAllNextHops computes, for every node, ALL minimal next hops toward dst
// (neighbors whose distance to dst is exactly one less), in adjacency
// order; used for adaptive minimal routing. The liveness predicates
// restrict the search exactly as in BFSNextHops and may be nil. Nodes with
// no live path get an empty list.
func BFSAllNextHops(g *graph.Graph, dst int32, deadNode func(int32) bool, deadLink func(u, v int32) bool) [][]int32 {
	order, dist := liveBFS(g, dst, deadNode, deadLink)
	// Turn parents into hop distances in place: a node's parent precedes it
	// in visit order, so its entry already holds the parent's distance.
	if len(order) > 0 {
		dist[dst] = 0
		for _, u := range order[1:] {
			dist[u] = dist[dist[u]] + 1
		}
	}
	out := make([][]int32, g.N())
	for u := range out {
		du := dist[u]
		if du <= 0 {
			continue
		}
		for _, v := range g.Neighbors(int32(u)) {
			if dist[v] == du-1 && (deadLink == nil || !deadLink(int32(u), v)) {
				out[u] = append(out[u], v)
			}
		}
	}
	return out
}

// liveBFS runs BFS from dst over the reverse arcs of the live subgraph (see
// BFSNextHops for the predicates). It returns the nodes in visit order and
// each node's BFS parent, -1 at dst and at nodes never reached.
func liveBFS(g *graph.Graph, dst int32, deadNode func(int32) bool, deadLink func(u, v int32) bool) (order []int32, parent NextHopTable) {
	parent = make(NextHopTable, g.N())
	for i := range parent {
		parent[i] = -1
	}
	if deadNode != nil && deadNode(dst) {
		return nil, parent
	}
	rev := g
	if g.Directed {
		rev = reverseOf(g)
	}
	visited := make([]bool, g.N())
	visited[dst] = true
	order = append(make([]int32, 0, g.N()), dst)
	for head := 0; head < len(order); head++ {
		v := order[head]
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
			order = append(order, u)
		}
	}
	return order, parent
}

// FoldedHypercube routes in FQ_dim: when the Hamming distance to the
// destination exceeds (dim+1)/2 it is shorter to take the complement edge
// first and correct the remaining complemented bits. The resulting path is
// optimal (length min(h, dim+1-h)).
func FoldedHypercube(dim int, src, dst int32) Path {
	mask := int32(1)<<uint(dim) - 1
	h := 0
	for x := (src ^ dst) & mask; x != 0; x &= x - 1 {
		h++
	}
	if h <= dim-h+1 {
		return Hypercube(dim, src, dst)
	}
	// Complement edge first, then e-cube on the remaining dim-h bits.
	p := Path{src}
	cur := src ^ mask
	p = append(p, cur)
	rest := Hypercube(dim, cur, dst)
	return append(p, rest[1:]...)
}
