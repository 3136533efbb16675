package route

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/networks"
)

// follow walks a next-hop table from src to dst, checking that every step
// is an arc of g and that the walk ends, and returns its number of hops.
func follow(t *testing.T, g *graph.Graph, tbl NextHopTable, src, dst int32) int {
	t.Helper()
	hops := 0
	for cur := src; cur != dst; hops++ {
		nxt := tbl[cur]
		if nxt < 0 {
			t.Fatalf("no next hop from %d toward %d", cur, dst)
		}
		if !g.HasEdge(cur, nxt) {
			t.Fatalf("next hop %d from %d is not an arc", nxt, cur)
		}
		if hops > len(tbl) {
			t.Fatalf("next-hop loop from %d toward %d", src, dst)
		}
		cur = nxt
	}
	return hops
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
			hops := follow(t, g, table, src, dst)
			dist := g.BFS(src)
			if int(dist[dst]) != hops {
				t.Fatalf("%s: table route %d hops, BFS %d", spec.Name(), hops, dist[dst])
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
	hops := follow(t, g, table, 19, 7)
	dist := g.BFS(19)
	if int(dist[7]) != hops {
		t.Fatalf("directed table route %d hops, BFS %d", hops, dist[7])
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
		if hops := follow(t, g, avoid, u, 0); hops > int(dist[u])+2 {
			t.Fatalf("avoiding route from %d has %d hops, fault-free %d", u, hops, dist[u])
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
	if hops := follow(t, g, tbl, 1, 0); hops != 7 {
		t.Fatalf("detour around the dead link should take 7 hops, got %d", hops)
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
		follow(t, g, tbl, u, 3)
	}
}
