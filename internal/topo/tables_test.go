package topo

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/networks"
	"repro/internal/superip"
)

// bfsTable is the table bfsNextHops builds toward dst over g, its
// reverse graph built for the call.
func bfsTable(g *graph.Graph, dst int32, deadNode func(int32) bool, deadLink func(u, v int32) bool) []int32 {
	rev := g
	if g.Directed {
		rev = g.Reverse()
	}
	tbl := make([]int32, g.N())
	bfsNextHops(rev, dst, deadNode, deadLink, tbl, nil)
	return tbl
}

// follow walks a next-hop table from src to dst, checking that every step
// is an arc of g and that the walk ends, and returns its number of hops.
func follow(t *testing.T, g *graph.Graph, tbl []int32, src, dst int32) int {
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
			table := bfsTable(g, dst, nil, nil)
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
	table := bfsTable(g, 7, nil, nil)
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
	plain := bfsTable(g, 0, nil, nil)
	avoid := bfsTable(g, 0, func(int32) bool { return false },
		func(u, v int32) bool { return false })
	for u := int32(0); u < int32(g.N()); u++ {
		if plain[u] != avoid[u] {
			t.Fatalf("node %d: next hop %d with all-live predicates, %d with nil", u, avoid[u], plain[u])
		}
	}
	// Kill node 1 (a neighbor of 0): routes must avoid it yet all other
	// nodes stay routed (Q4 minus a node is connected).
	deadNode := func(v int32) bool { return v == 1 }
	avoid = bfsTable(g, 0, deadNode, nil)
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
	avoid = bfsTable(g, 0, func(v int32) bool { return v == 0 }, nil)
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
	tbl := bfsTable(g, 0, nil, deadLink)
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
	tbl = bfsTable(g, 0, nil, deadLink2)
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
	tbl := bfsTable(g, 3, nil, nil)
	for u := int32(0); u < int32(g.N()); u++ {
		if u == 3 || tbl[u] < 0 {
			continue
		}
		follow(t, g, tbl, u, 3)
	}
}

// tableOf returns every NextHop of r toward dst, -1 where it errors.
func tableOf(t *testing.T, r *BFSRouter, n int, dst int32) []int32 {
	t.Helper()
	out := make([]int32, n)
	for u := 0; u < n; u++ {
		out[u] = -1
		if int32(u) == dst {
			continue
		}
		if h, err := r.NextHop(int64(u), int64(dst)); err == nil {
			out[u] = int32(h)
		}
	}
	return out
}

// TestBFSRouterFaultFreeMatchesTables: without faults, every NextHop is the
// entry of the BFS table of its destination, on Q5, the 8x8 torus and the
// directed cyclic-shift network dir-CN(3;Q2), whose tables are grown over
// the reverse arcs.
func TestBFSRouterFaultFreeMatchesTables(t *testing.T) {
	q5, err := networks.Hypercube{Dim: 5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	torus, err := networks.Torus2D{Rows: 8, Cols: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	dcn, err := superip.DirectedCN(3, superip.NucleusHypercube(2)).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !dcn.Directed {
		t.Fatal("dir-CN(3;Q2) built undirected")
	}
	for name, g := range map[string]*graph.Graph{"Q5": q5, "torus8x8": torus, "dir-CN(3;Q2)": dcn} {
		r := NewBFSRouter(NewMaterialized(g), nil)
		for dst := int32(0); dst < int32(g.N()); dst++ {
			want := bfsTable(g, dst, nil, nil)
			if got := tableOf(t, r, g.N(), dst); !slices.Equal(got, want) {
				t.Fatalf("%s: hops toward %d = %v, BFS table %v", name, dst, got, want)
			}
		}
		if rs := r.RouterStats(); rs != (RouterStats{}) {
			t.Fatalf("%s: a fault-free router reported %+v", name, rs)
		}
	}
}

// TestBFSRouterFollowsFaultSet: after each FailLink, FailNode and repair the
// router's hops equal the tables built with the matching liveness
// predicates, and a destination's table is rebuilt once per fault epoch in
// which it is asked for, never when the epoch has not moved.
func TestBFSRouterFollowsFaultSet(t *testing.T) {
	for _, directed := range []bool{false, true} {
		var g *graph.Graph
		var err error
		if directed {
			g, err = superip.DirectedCN(3, superip.NucleusHypercube(2)).Build()
		} else {
			g, err = networks.Torus2D{Rows: 6, Cols: 6}.Build()
		}
		if err != nil {
			t.Fatal(err)
		}
		fs := NewFaultSet()
		r := NewBFSRouter(NewMaterialized(g), fs)
		u0 := int32(0)
		v0 := g.Neighbors(u0)[0]
		steps := []struct {
			name   string
			mutate func()
		}{
			{"fault-free", func() {}},
			{"FailLink", func() { fs.FailLink(int64(u0), int64(v0)) }},
			{"FailNode", func() { fs.FailNode(7) }},
			{"FailLink again", func() { fs.FailLink(int64(u0), int64(v0)) }},
			{"RepairLink", func() { fs.RepairLink(int64(u0), int64(v0)) }},
			{"RepairNode", func() { fs.RepairNode(7) }},
			{"RepairLink last", func() { fs.RepairLink(int64(u0), int64(v0)) }},
		}
		dsts := []int32{2, 7, int32(g.N() - 1)}
		if !slices.Contains(dsts, v0) {
			dsts = append(dsts, v0)
		}
		var wantReroutes uint64
		for i, st := range steps {
			st.mutate()
			deadNode := func(v int32) bool { return fs.NodeDown(int64(v)) }
			deadLink := func(u, v int32) bool { return fs.LinkDown(int64(u), int64(v)) }
			for _, dst := range dsts {
				want := bfsTable(g, dst, deadNode, deadLink)
				// Asking twice within one epoch rebuilds at most once.
				for range 2 {
					if got := tableOf(t, r, g.N(), dst); !slices.Equal(got, want) {
						t.Fatalf("directed=%v %s: hops toward %d = %v, want %v", directed, st.name, dst, got, want)
					}
				}
				if i > 0 {
					wantReroutes++
				}
			}
			if got := r.RouterStats().Reroutes; got != wantReroutes {
				t.Fatalf("directed=%v after %s: %d rebuilds, want one per (destination, epoch) = %d",
					directed, st.name, got, wantReroutes)
			}
		}
	}
}

// TestBFSRouterDeadOrCutOffDestination: NextHop errors when the destination
// is dead or no live path reaches it, and when asked for a hop it cannot
// have (at the destination, out of range); routes elsewhere stay.
func TestBFSRouterDeadOrCutOffDestination(t *testing.T) {
	g, err := networks.Ring{Nodes: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSet()
	r := NewBFSRouter(NewMaterialized(g), fs)
	for _, c := range [][2]int64{{3, 3}, {-1, 3}, {3, 8}} {
		if _, err := r.NextHop(c[0], c[1]); err == nil {
			t.Fatalf("NextHop(%d, %d) must fail", c[0], c[1])
		}
	}
	fs.FailNode(4)
	if _, err := r.NextHop(0, 4); err == nil {
		t.Fatal("a dead destination must not be routed")
	}
	// Cutting 1-2 and 5-6 splits the ring into {2..5} and {6..1}.
	fs.FailLinkBoth(1, 2)
	fs.FailLinkBoth(5, 6)
	if _, err := r.NextHop(0, 3); err == nil {
		t.Fatal("a cut-off destination must not be routed")
	}
	if h, err := r.NextHop(0, 7); err != nil || h != 7 {
		t.Fatalf("same-side hop 0 -> 7 = %d, %v; want 7", h, err)
	}
	fs.RepairNode(4)
	fs.RepairLinkBoth(1, 2)
	if h, err := r.NextHop(0, 3); err != nil || h != 1 {
		t.Fatalf("healed hop 0 -> 3 = %d, %v; want 1", h, err)
	}
}
