package route

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/networks"
)

func TestHypercubeRouting(t *testing.T) {
	dim := 8
	g, err := networks.Hypercube{Dim: dim}.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint16) bool {
		src := int32(a) & int32(g.N()-1)
		dst := int32(b) & int32(g.N()-1)
		p := Hypercube(dim, src, dst)
		if err := p.Validate(g, src, dst); err != nil {
			return false
		}
		// e-cube is optimal: hops == Hamming distance.
		ham := 0
		for x := src ^ dst; x != 0; x &= x - 1 {
			ham++
		}
		return p.Hops() == ham
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKAryNCubeRouting(t *testing.T) {
	for _, tc := range []struct{ k, dims int }{{4, 3}, {5, 2}, {3, 4}, {8, 2}, {2, 5}} {
		spec := networks.KAryNCube{K: tc.k, Dims: tc.dims}
		g, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(tc.k)))
		for trial := 0; trial < 300; trial++ {
			src := int32(rng.Intn(g.N()))
			dst := int32(rng.Intn(g.N()))
			p := KAryNCube(tc.k, tc.dims, src, dst)
			if err := p.Validate(g, src, dst); err != nil {
				t.Fatalf("%s: %v", spec.Name(), err)
			}
			// Dimension-order with shortest wrap is optimal on a torus.
			dist := g.BFS(src)
			if int(dist[dst]) != p.Hops() {
				t.Fatalf("%s: route %d hops, BFS %d", spec.Name(), p.Hops(), dist[dst])
			}
		}
	}
}

func TestStarDistanceAgainstBFS(t *testing.T) {
	spec := networks.Star{Symbols: 5}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	perms := allPerms(5)
	// Node 0 is the identity permutation in the deterministic enumeration.
	dist := g.BFS(0)
	for i, p := range perms {
		if got := StarDistance(p); got != int(dist[i]) {
			t.Fatalf("StarDistance(%v) = %d, BFS = %d", p, got, dist[i])
		}
	}
}

func TestStarRoutingOptimal(t *testing.T) {
	n := 5
	perms := allPerms(n)
	index := map[string]int32{}
	for i, p := range perms {
		index[string(p)] = int32(i)
	}
	spec := networks.Star{Symbols: n}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		src := perms[rng.Intn(len(perms))]
		dst := perms[rng.Intn(len(perms))]
		path, err := Star(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if string(path[0]) != string(src) || string(path[len(path)-1]) != string(dst) {
			t.Fatalf("path endpoints wrong: %v ... %v", path[0], path[len(path)-1])
		}
		// Each step must be a star move (swap of positions 0 and i).
		for s := 0; s+1 < len(path); s++ {
			a, b := path[s], path[s+1]
			diff := 0
			for i := range a {
				if a[i] != b[i] {
					diff++
				}
			}
			if diff != 2 || a[0] == b[0] {
				t.Fatalf("step %d is not a star move: %v -> %v", s, a, b)
			}
			if !g.HasEdge(index[string(a)], index[string(b)]) {
				t.Fatalf("step %d not an edge", s)
			}
		}
		// Optimality: path length equals BFS distance.
		dist := g.BFS(index[string(src)])
		if int(dist[index[string(dst)]]) != len(path)-1 {
			t.Fatalf("route %d hops, BFS %d", len(path)-1, dist[index[string(dst)]])
		}
	}
}

func TestDeBruijnRouting(t *testing.T) {
	for _, tc := range []struct{ base, dim int }{{2, 4}, {2, 7}, {3, 3}, {4, 3}} {
		spec := networks.DeBruijn{Base: tc.base, Dim: tc.dim}
		g, err := spec.BuildDirected()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(tc.dim)))
		for trial := 0; trial < 200; trial++ {
			src := int32(rng.Intn(g.N()))
			dst := int32(rng.Intn(g.N()))
			p := DeBruijn(tc.base, tc.dim, src, dst)
			if p.Hops() > tc.dim {
				t.Fatalf("de Bruijn route too long: %d > %d", p.Hops(), tc.dim)
			}
			if p[0] != src || p[len(p)-1] != dst {
				t.Fatalf("endpoints wrong")
			}
			for i := 0; i+1 < len(p); i++ {
				if p[i] == p[i+1] {
					continue // self-loop at 00..0 / 11..1, stays put
				}
				if !g.HasEdge(p[i], p[i+1]) {
					t.Fatalf("step %d not an arc: %d -> %d", i, p[i], p[i+1])
				}
			}
		}
		// Identical src and dst: zero hops.
		if DeBruijn(tc.base, tc.dim, 5%int32(g.N()), 5%int32(g.N())).Hops() != 0 {
			t.Fatal("self route must be empty")
		}
	}
}

func TestBFSNextHops(t *testing.T) {
	for _, spec := range []networks.Spec{
		networks.CCC{Dim: 4},
		networks.ShuffleExchange{Dim: 5},
		networks.Petersen{},
	} {
		g, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 50; trial++ {
			dst := int32(rng.Intn(g.N()))
			table := BFSNextHops(g, dst, nil, nil)
			src := int32(rng.Intn(g.N()))
			p, err := table.Follow(src, dst)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name(), err)
			}
			if err := p.Validate(g, src, dst); err != nil {
				t.Fatalf("%s: %v", spec.Name(), err)
			}
			dist := g.BFS(src)
			if int(dist[dst]) != p.Hops() {
				t.Fatalf("%s: table route %d hops, BFS %d", spec.Name(), p.Hops(), dist[dst])
			}
		}
	}
}

func TestBFSNextHopsDirected(t *testing.T) {
	spec := networks.DeBruijn{Base: 2, Dim: 5}
	g, err := spec.BuildDirected()
	if err != nil {
		t.Fatal(err)
	}
	table := BFSNextHops(g, 7, nil, nil)
	p, err := table.Follow(19, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g, 19, 7); err != nil {
		t.Fatal(err)
	}
	dist := g.BFS(19)
	if int(dist[7]) != p.Hops() {
		t.Fatalf("directed table route %d hops, BFS %d", p.Hops(), dist[7])
	}
}

func TestPathValidateErrors(t *testing.T) {
	g, _ := networks.Ring{Nodes: 5}.Build()
	if err := (Path{0, 2}).Validate(g, 0, 2); err == nil {
		t.Fatal("non-edge path must fail")
	}
	if err := (Path{0, 1}).Validate(g, 1, 0); err == nil {
		t.Fatal("wrong endpoints must fail")
	}
	if err := (Path{}).Validate(g, 0, 0); err == nil {
		t.Fatal("empty path must fail")
	}
}

// allPerms enumerates permutations of 0..n-1 in the same deterministic order
// as networks.Star.
func allPerms(n int) [][]byte {
	var out [][]byte
	cur := make([]byte, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(cur) == n {
			out = append(out, append([]byte(nil), cur...))
			return
		}
		for v := 0; v < n; v++ {
			if !used[v] {
				used[v] = true
				cur = append(cur, byte(v))
				rec()
				cur = cur[:len(cur)-1]
				used[v] = false
			}
		}
	}
	rec()
	return out
}

func TestBFSAllNextHops(t *testing.T) {
	g, err := networks.KAryNCube{K: 4, Dims: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	for dst := int32(0); dst < int32(g.N()); dst += 5 {
		all := BFSAllNextHops(g, dst, nil, nil)
		dist := g.BFS(dst) // undirected: dist to dst
		for u := 0; u < g.N(); u++ {
			if int32(u) == dst {
				if len(all[u]) != 0 {
					t.Fatalf("destination has next hops")
				}
				continue
			}
			if len(all[u]) == 0 {
				t.Fatalf("node %d has no minimal next hops", u)
			}
			for _, v := range all[u] {
				if dist[v] != dist[u]-1 {
					t.Fatalf("next hop %d from %d is not minimal", v, u)
				}
			}
			// Interior torus nodes with both coordinates unaligned have 2
			// minimal directions; verify multiplicity exists somewhere.
		}
		// Some node must have more than one minimal next hop on a torus.
		multi := false
		for u := range all {
			if len(all[u]) > 1 {
				multi = true
			}
		}
		if !multi {
			t.Fatal("torus should offer multiple minimal next hops")
		}
	}
}

func TestBFSAllNextHopsDirected(t *testing.T) {
	g, err := networks.DeBruijn{Base: 2, Dim: 4}.BuildDirected()
	if err != nil {
		t.Fatal(err)
	}
	all := BFSAllNextHops(g, 9, nil, nil)
	dist := reverseOf(g).BFS(9)
	for u := 0; u < g.N(); u++ {
		for _, v := range all[u] {
			if !g.HasEdge(int32(u), v) {
				t.Fatalf("next hop %d from %d is not an arc", v, u)
			}
			if dist[v] != dist[u]-1 {
				t.Fatalf("directed next hop %d from %d not minimal", v, u)
			}
		}
	}
}

func TestFoldedHypercubeRouting(t *testing.T) {
	for _, dim := range []int{3, 4, 5, 7} {
		g, err := networks.FoldedHypercube{Dim: dim}.Build()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(dim)))
		for trial := 0; trial < 300; trial++ {
			src := int32(rng.Intn(g.N()))
			dst := int32(rng.Intn(g.N()))
			p := FoldedHypercube(dim, src, dst)
			if err := p.Validate(g, src, dst); err != nil {
				t.Fatalf("FQ%d: %v", dim, err)
			}
			dist := g.BFS(src)
			if int(dist[dst]) != p.Hops() {
				t.Fatalf("FQ%d: route %d hops, BFS %d (pair %d->%d)",
					dim, p.Hops(), dist[dst], src, dst)
			}
		}
	}
}

func TestBFSNextHopsAvoiding(t *testing.T) {
	g, err := networks.Hypercube{Dim: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A nil predicate means "nothing is dead": predicates that kill
	// nothing give the same table, BFS-parent tie-break included.
	plain := BFSNextHops(g, 0, nil, nil)
	avoid := BFSNextHops(g, 0, func(int32) bool { return false },
		func(u, v int32) bool { return false })
	for u := int32(0); u < int32(g.N()); u++ {
		if plain[u] != avoid[u] {
			t.Fatalf("node %d: next hop %d with all-live predicates, %d with nil", u, avoid[u], plain[u])
		}
	}
	// Kill node 1 (a neighbor of 0): routes must avoid it yet all other
	// nodes stay routed (Q4 minus a node is connected).
	deadNode := func(v int32) bool { return v == 1 }
	avoid = BFSNextHops(g, 0, deadNode, nil)
	dist := g.BFS(0)
	for u := int32(0); u < int32(g.N()); u++ {
		if u == 0 {
			if avoid[u] != -1 {
				t.Fatalf("destination has a next hop %d", avoid[u])
			}
			continue
		}
		if u == 1 {
			continue
		}
		nh := avoid[u]
		if nh < 0 {
			t.Fatalf("node %d lost its route after one node fault", u)
		}
		if nh == 1 {
			t.Fatalf("node %d routes through the dead node", u)
		}
		if !g.HasEdge(u, nh) {
			t.Fatalf("next hop %d from %d is not an edge", nh, u)
		}
	}
	// The detour around the dead node lengthens some route by at most 2
	// in a hypercube: follow every table path and validate it.
	for u := int32(2); u < int32(g.N()); u++ {
		p, err := avoid.Follow(u, 0)
		if err != nil {
			t.Fatalf("follow from %d: %v", u, err)
		}
		if p.Hops() > int(dist[u])+2 {
			t.Fatalf("avoiding route from %d has %d hops, fault-free %d", u, p.Hops(), dist[u])
		}
	}
	// Dead destination: nothing is routed.
	avoid = BFSNextHops(g, 0, func(v int32) bool { return v == 0 }, nil)
	for u := range avoid {
		if avoid[u] != -1 {
			t.Fatalf("dead destination still routed from %d", u)
		}
	}
}

func TestBFSNextHopsAvoidingDeadLink(t *testing.T) {
	// Ring: killing link 0-1 forces node 1 the long way around.
	g, err := networks.Ring{Nodes: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	deadLink := func(u, v int32) bool {
		return (u == 0 && v == 1) || (u == 1 && v == 0)
	}
	tbl := BFSNextHops(g, 0, nil, deadLink)
	if tbl[1] != 2 {
		t.Fatalf("node 1 should detour via 2, got %d", tbl[1])
	}
	p, err := tbl.Follow(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 7 {
		t.Fatalf("detour around the dead link should take 7 hops, got %d", p.Hops())
	}
	// Cutting both ring links of node 1 isolates it: no route, everyone
	// else unaffected.
	deadLink2 := func(u, v int32) bool {
		return u == 1 || v == 1
	}
	tbl = BFSNextHops(g, 0, nil, deadLink2)
	if tbl[1] != -1 {
		t.Fatalf("isolated node still routed via %d", tbl[1])
	}
	if tbl[4] < 0 {
		t.Fatal("unaffected node lost its route")
	}
}

func TestBFSAllNextHopsAvoiding(t *testing.T) {
	g, err := networks.Hypercube{Dim: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A nil predicate means "nothing is dead": predicates that kill
	// nothing give the same lists.
	plain := BFSAllNextHops(g, 5, nil, nil)
	avoid := BFSAllNextHops(g, 5, func(int32) bool { return false },
		func(u, v int32) bool { return false })
	for u := 0; u < g.N(); u++ {
		if !slices.Equal(plain[u], avoid[u]) {
			t.Fatalf("node %d: minimal hops %v with all-live predicates, %v with nil", u, avoid[u], plain[u])
		}
	}
	// Killing one neighbor of the destination trims it from every option
	// list but leaves every survivor with at least one minimal hop.
	dead := g.Neighbors(5)[0]
	deadNode := func(v int32) bool { return v == dead }
	avoid = BFSAllNextHops(g, 5, deadNode, nil)
	for u := 0; u < g.N(); u++ {
		if int32(u) == 5 || int32(u) == dead {
			continue
		}
		if len(avoid[u]) == 0 {
			t.Fatalf("node %d has no live minimal hop after one fault", u)
		}
		for _, v := range avoid[u] {
			if v == dead {
				t.Fatalf("node %d still lists the dead node", u)
			}
		}
	}
}

func TestBFSNextHopsAvoidingDirected(t *testing.T) {
	// Directed de Bruijn: the avoiding table must respect arc directions
	// and the dead-arc predicate on forward arcs.
	g, err := networks.DeBruijn{Base: 2, Dim: 4}.BuildDirected()
	if err != nil {
		t.Fatal(err)
	}
	tbl := BFSNextHops(g, 3, nil, nil)
	for u := int32(0); u < int32(g.N()); u++ {
		if u == 3 || tbl[u] < 0 {
			continue
		}
		if !g.HasEdge(u, tbl[u]) {
			t.Fatalf("next hop %d from %d is not a forward arc", tbl[u], u)
		}
		if _, err := tbl.Follow(u, 3); err != nil {
			t.Fatalf("follow from %d: %v", u, err)
		}
	}
}
