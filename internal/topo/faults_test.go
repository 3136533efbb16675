package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/networks"
	"repro/internal/superip"
)

// TestFaultSetBasics pins the reference-counting and epoch semantics the
// router's cache invalidation depends on.
func TestFaultSetBasics(t *testing.T) {
	fs := NewFaultSet()
	if e := fs.Epoch(); e != 0 {
		t.Fatalf("fresh epoch = %d", e)
	}
	fs.FailLink(1, 2)
	if !fs.LinkDown(1, 2) || fs.LinkDown(2, 1) {
		t.Fatal("FailLink is directed")
	}
	fs.FailLink(1, 2) // second overlapping fault
	fs.RepairLink(1, 2)
	if !fs.LinkDown(1, 2) {
		t.Fatal("link repaired while a second fault still holds it down")
	}
	fs.RepairLink(1, 2)
	if fs.LinkDown(1, 2) {
		t.Fatal("link still down after both faults repaired")
	}
	fs.RepairLink(1, 2) // repairing a live link is a no-op
	if fs.LinkDown(1, 2) {
		t.Fatal("no-op repair changed state")
	}

	fs.FailLinkBoth(3, 4)
	if !fs.LinkDown(3, 4) || !fs.LinkDown(4, 3) {
		t.Fatal("FailLinkBoth must fail both directions")
	}
	fs.RepairLinkBoth(3, 4)
	if fs.LinkDown(3, 4) || fs.LinkDown(4, 3) {
		t.Fatal("RepairLinkBoth must repair both directions")
	}

	fs.FailNode(7)
	if !fs.NodeDown(7) {
		t.Fatal("node not down")
	}
	if !fs.Blocked(6, 7) {
		t.Fatal("hop into a dead node must be blocked")
	}
	if fs.Blocked(7, 6) {
		t.Fatal("the sender's own liveness is not Blocked's concern")
	}
	fs.RepairNode(7)
	if fs.NodeDown(7) {
		t.Fatal("node still down after repair")
	}

	before := fs.Epoch()
	fs.FailLink(9, 10)
	if fs.Epoch() != before+1 {
		t.Fatalf("epoch %d -> %d on mutation, want +1", before, fs.Epoch())
	}
}

// TestFaultSetConcurrent exercises concurrent mutation and querying under
// the race detector: a simulator goroutine applying scheduled faults must be
// able to share the set with router goroutines.
func TestFaultSetConcurrent(t *testing.T) {
	fs := NewFaultSet()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				u, v := int64(w*1000+i), int64(w*1000+i+1)
				fs.FailLinkBoth(u, v)
				fs.FailNode(u)
				fs.RepairNode(u)
				fs.RepairLinkBoth(u, v)
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			e := fs.Epoch()
			for i := 0; i < 1000; i++ {
				fs.Blocked(int64(w*1000+i), int64(w*1000+i+1))
				fs.NodeDown(int64(i))
				if ne := fs.Epoch(); ne < e {
					t.Error("epoch went backwards")
					return
				} else {
					e = ne
				}
			}
		}(w)
	}
	wg.Wait()
	links, nodes := fs.Len()
	if links != 0 || nodes != 0 {
		t.Fatalf("after balanced fail/repair: %d links, %d nodes still down", links, nodes)
	}
}

// disjointPairs is the per-family pair count for the disjoint-route property
// tests (each pair runs a full flow construction, so this is smaller than
// pairsPerFamily).
const disjointPairs = 60

// TestDisjointRoutesProperties property-tests the κ-route construction
// across the 9-family grid: every returned route is a valid node-simple walk
// from src to dst on the materialized graph, the routes are pairwise
// edge-disjoint, the count equals κ = degree on the symmetric families
// (vertex-transitive Cayley graphs have edge connectivity equal to their
// degree), and every detour is at most 2·diameter + 8 hops longer than the
// primary route.
func TestDisjointRoutesProperties(t *testing.T) {
	for _, net := range propertyGrid() {
		g, ix, err := net.BuildWithIndex()
		if err != nil {
			t.Fatalf("%s: build: %v", net.Name(), err)
		}
		imp, err := NewImplicit(net.Super())
		if err != nil {
			t.Fatalf("%s: implicit: %v", net.Name(), err)
		}
		r, err := NewAlgebraic(net.Super())
		if err != nil {
			t.Fatalf("%s: router: %v", net.Name(), err)
		}
		matID := func(u int64) int32 { return ix.ID(imp.Label(u)) }
		directed := imp.Directed()
		rng := rand.New(rand.NewSource(11))
		n := imp.N()
		extraBound := 2*net.Diameter() + 8
		for trial := 0; trial < disjointPairs; trial++ {
			src := rng.Int63n(n)
			dst := rng.Int63n(n - 1)
			if dst >= src {
				dst++
			}
			routes, err := DisjointRoutes(imp, r, src, dst)
			if err != nil {
				t.Fatalf("%s: DisjointRoutes(%d, %d): %v", net.Name(), src, dst, err)
			}
			if len(routes) == 0 {
				t.Fatalf("%s: no routes for (%d, %d)", net.Name(), src, dst)
			}
			if net.Super().Symmetric && len(routes) != net.Degree() {
				t.Fatalf("%s: %d disjoint routes for (%d, %d), want κ = degree = %d",
					net.Name(), len(routes), src, dst, net.Degree())
			}
			primary, err := r.Path(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			used := map[[2]int64]bool{}
			for _, rt := range routes {
				if rt[0] != src || rt[len(rt)-1] != dst {
					t.Fatalf("%s: route endpoints %d..%d, want %d..%d", net.Name(), rt[0], rt[len(rt)-1], src, dst)
				}
				if len(rt)-1 > len(primary)-1+extraBound {
					t.Fatalf("%s: detour for (%d, %d) takes %d hops, primary %d + bound %d",
						net.Name(), src, dst, len(rt)-1, len(primary)-1, extraBound)
				}
				nodeSeen := map[int64]bool{}
				for i, u := range rt {
					if nodeSeen[u] {
						t.Fatalf("%s: route for (%d, %d) revisits node %d", net.Name(), src, dst, u)
					}
					nodeSeen[u] = true
					if i+1 == len(rt) {
						break
					}
					v := rt[i+1]
					if !g.HasEdge(matID(u), matID(v)) {
						t.Fatalf("%s: route step %d -> %d is not an edge", net.Name(), u, v)
					}
					k := [2]int64{u, v}
					if !directed && u > v {
						k = [2]int64{v, u}
					}
					if used[k] {
						t.Fatalf("%s: routes for (%d, %d) share edge %v", net.Name(), src, dst, k)
					}
					used[k] = true
				}
			}
		}
	}
}

// bfsPathRouter routes on a built graph by breadth-first search over the
// full graph, visiting neighbors in ascending order; the first parent found
// wins.
type bfsPathRouter struct{ g *graph.Graph }

func (r bfsPathRouter) Path(src, dst int64) ([]int64, error) {
	parent := make([]int32, r.g.N())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = int32(src)
	for queue := []int32{int32(src)}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		nbrs := slices.Clone(r.g.Neighbors(u))
		slices.Sort(nbrs)
		for _, v := range nbrs {
			if parent[v] < 0 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	if parent[dst] < 0 {
		return nil, fmt.Errorf("bfsPathRouter: %d unreachable from %d", dst, src)
	}
	p := []int64{dst}
	for u := dst; u != src; u = int64(parent[u]) {
		p = append(p, int64(parent[u]))
	}
	slices.Reverse(p)
	return p, nil
}

func (r bfsPathRouter) NextHop(cur, dst int64) (int64, error) {
	if cur == dst {
		return 0, fmt.Errorf("bfsPathRouter: already at %d", dst)
	}
	p, err := r.Path(cur, dst)
	if err != nil {
		return 0, err
	}
	return p[1], nil
}

// TestDisjointRoutesCancelsFlow pins the flow cancellation of
// DisjointRoutes. From 2 to 6 the augmenting paths are 2-6, 2-0-1-6,
// 2-1-0-3-6 (which runs 1-0 against the flow of 2-0-1-6 and cancels it) and
// 2-7-3-0-1-5-6, which needs the cancelled arc 0-1 free again. If the
// cancelled arc is not repaired in the scratch fault set, it stays failed,
// the fourth search finds nothing and three routes come back. Nodes 2 and 6
// both have degree 4, so four is the most there can be.
func TestDisjointRoutesCancelsFlow(t *testing.T) {
	b := graph.NewBuilder(8, false)
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 5}, {1, 6},
		{2, 6}, {2, 7}, {3, 4}, {3, 6}, {3, 7}, {5, 6}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	const src, dst = 2, 6
	routes, err := DisjointRoutes(NewMaterialized(g), bfsPathRouter{g}, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 4 {
		t.Fatalf("DisjointRoutes(%d, %d) = %v, want 4 edge-disjoint routes", src, dst, routes)
	}
	used := map[[2]int64]bool{}
	for _, rt := range routes {
		if rt[0] != src || rt[len(rt)-1] != dst {
			t.Fatalf("route %v does not run from %d to %d", rt, src, dst)
		}
		for i := 0; i+1 < len(rt); i++ {
			u, v := rt[i], rt[i+1]
			if !g.HasEdge(int32(u), int32(v)) {
				t.Fatalf("route %v: step %d -> %d is not an edge", rt, u, v)
			}
			k := [2]int64{min(u, v), max(u, v)}
			if used[k] {
				t.Fatalf("routes %v share edge %v", routes, k)
			}
			used[k] = true
		}
	}
}

// TestFaultAwareFaultFreeIdentical pins the acceptance criterion that a
// fault-free FaultAware run is indistinguishable from the plain Algebraic
// router: identical Path results and identical NextHop traces.
func TestFaultAwareFaultFreeIdentical(t *testing.T) {
	for _, net := range propertyGrid() {
		imp, err := NewImplicit(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewAlgebraic(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		inner, err := NewAlgebraic(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		fa := NewFaultAware(imp, inner, NewFaultSet())
		rng := rand.New(rand.NewSource(17))
		n := imp.N()
		for trial := 0; trial < 200; trial++ {
			src := rng.Int63n(n)
			dst := rng.Int63n(n - 1)
			if dst >= src {
				dst++
			}
			want, err := plain.Path(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fa.Path(src, dst)
			if err != nil {
				t.Fatalf("%s: fault-free FaultAware.Path(%d, %d): %v", net.Name(), src, dst, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: fault-free route length %d != plain %d", net.Name(), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: fault-free route diverges at hop %d", net.Name(), i)
				}
			}
			// NextHop trace must follow the same route, and never report a
			// detour.
			cur := src
			for hop := 0; cur != dst; hop++ {
				nxt, detoured, err := fa.NextHopFlagged(cur, dst)
				if err != nil {
					t.Fatal(err)
				}
				if detoured {
					t.Fatalf("%s: fault-free NextHop reported a detour", net.Name())
				}
				if nxt != want[hop+1] {
					t.Fatalf("%s: fault-free NextHop diverges at hop %d", net.Name(), hop)
				}
				cur = nxt
			}
		}
		if rs := fa.RouterStats(); rs.Reroutes != 0 || rs.DetourHops != 0 {
			t.Fatalf("%s: fault-free run counted %d reroutes, %d detour hops", net.Name(), rs.Reroutes, rs.DetourHops)
		}
	}
}

// TestFaultAwareEpochInvalidation is the cache-safety test: a packet whose
// source route is already cached must not cross a link that dies after the
// route was derived — the epoch bump has to purge the cached suffix.
func TestFaultAwareEpochInvalidation(t *testing.T) {
	net := superip.HSN(3, superip.NucleusHypercube(2)).SymmetricVariant()
	imp, err := NewImplicit(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSet()
	fa := NewFaultAware(imp, inner, fs)
	rng := rand.New(rand.NewSource(23))
	n := imp.N()
	for trial := 0; trial < 300; trial++ {
		src := rng.Int63n(n)
		dst := rng.Int63n(n - 1)
		if dst >= src {
			dst++
		}
		p, err := fa.Path(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) < 3 {
			continue // need at least two hops so a suffix is cached
		}
		// Take the first hop (caching the rest), then kill the link the
		// cached suffix would cross next.
		nxt, _, err := fa.NextHopFlagged(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		fs.FailLinkBoth(p[1], p[2])
		cur := nxt
		maxHops := net.Diameter() + MaxDetourTTL + 2*net.Diameter() + 8
		for hop := 0; cur != dst; hop++ {
			if hop > maxHops {
				t.Fatalf("no delivery within %d hops for (%d, %d)", maxHops, src, dst)
			}
			step, _, err := fa.NextHopFlagged(cur, dst)
			if err != nil {
				t.Fatalf("NextHop(%d, %d) after fault: %v", cur, dst, err)
			}
			if fs.Blocked(cur, step) {
				t.Fatalf("packet for (%d, %d) crossed failed link %d -> %d from a stale cache",
					src, dst, cur, step)
			}
			cur = step
		}
		fs.RepairLinkBoth(p[1], p[2])
	}
}

// TestFaultAwareKMinusOneFaults pins the headline guarantee on every
// symmetric grid family: fail one link on each of κ−1 of the κ edge-disjoint
// routes (including the primary) and the fault-aware router must still
// deliver, because one algebraic alternative survives by construction.
func TestFaultAwareKMinusOneFaults(t *testing.T) {
	for _, net := range propertyGrid() {
		if !net.Super().Symmetric {
			continue
		}
		imp, err := NewImplicit(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		router, err := NewAlgebraic(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		inner, err := NewAlgebraic(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		n := imp.N()
		for trial := 0; trial < 40; trial++ {
			src := rng.Int63n(n)
			dst := rng.Int63n(n - 1)
			if dst >= src {
				dst++
			}
			routes, err := DisjointRoutes(imp, router, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(routes) != net.Degree() {
				t.Fatalf("%s: %d routes, want %d", net.Name(), len(routes), net.Degree())
			}
			// Adversarial: cut a mid-route link on every route but the last,
			// in a fault set of this trial's own.
			fs := NewFaultSet()
			fa := NewFaultAware(imp, inner, fs)
			for _, rt := range routes[:len(routes)-1] {
				k := (len(rt) - 1) / 2
				fs.FailLinkBoth(rt[k], rt[k+1])
			}
			p, err := fa.Path(src, dst)
			if err != nil {
				t.Fatalf("%s: κ−1 faults disconnected (%d, %d): %v", net.Name(), src, dst, err)
			}
			if p[0] != src || p[len(p)-1] != dst {
				t.Fatalf("%s: endpoints %d..%d", net.Name(), p[0], p[len(p)-1])
			}
			for i := 0; i+1 < len(p); i++ {
				if fs.Blocked(p[i], p[i+1]) {
					t.Fatalf("%s: route crosses failed link %d -> %d", net.Name(), p[i], p[i+1])
				}
			}
			// NextHop delivery under the same faults.
			cur := src
			maxHops := net.Diameter() + MaxDetourTTL + 2*net.Diameter() + 8
			for hop := 0; cur != dst; hop++ {
				if hop > maxHops {
					t.Fatalf("%s: no delivery within %d hops", net.Name(), maxHops)
				}
				nxt, err := fa.NextHop(cur, dst)
				if err != nil {
					t.Fatal(err)
				}
				if fs.Blocked(cur, nxt) {
					t.Fatalf("%s: NextHop crossed failed link", net.Name())
				}
				cur = nxt
			}
		}
	}
}

// TestFaultAwareOverMaterialized checks the wrapper is router-agnostic: the
// e-cube router over a built hypercube, wrapped as a Materialized topology,
// detours correctly too.
func TestFaultAwareOverMaterialized(t *testing.T) {
	const dim = 5
	g, err := networks.Hypercube{Dim: dim}.Build()
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSet()
	fa := NewFaultAware(NewMaterialized(g), HypercubeRouter{Dim: dim}, fs)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		src := int64(rng.Intn(g.N()))
		dst := int64(rng.Intn(g.N() - 1))
		if dst >= src {
			dst++
		}
		p, err := fa.Path(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) < 2 {
			continue
		}
		fs.FailLinkBoth(p[0], p[1])
		q, err := fa.Path(src, dst)
		if err != nil {
			t.Fatalf("Path(%d, %d) with first link down: %v", src, dst, err)
		}
		for i := 0; i+1 < len(q); i++ {
			if fs.Blocked(q[i], q[i+1]) {
				t.Fatalf("detour crosses failed link %d -> %d", q[i], q[i+1])
			}
			if !g.HasEdge(int32(q[i]), int32(q[i+1])) {
				t.Fatalf("detour step %d -> %d is not an edge", q[i], q[i+1])
			}
		}
		fs.RepairLinkBoth(p[0], p[1])
	}
}

// TestDetourFromReportsTruncation pins detourFrom's truncated result, the
// signal DisjointRoutes' iterative deepening stops on: a search cut short by
// its depth bound or its TTL reports truncated, one that exhausts every node
// reachable around a destination whose links are all down does not, and a
// search that finds a route reports nothing cut.
func TestDetourFromReportsTruncation(t *testing.T) {
	const dim = 3
	ht := HypercubeTopo{Dim: dim}
	fs := NewFaultSet()
	fa := NewFaultAware(ht, HypercubeRouter{Dim: dim}, fs)
	src, dst := int64(0), int64(1<<dim-1)

	p, truncated, err := fa.detourFrom(src, dst, MaxDetourTTL, 1)
	if err != nil || truncated || p[0] != src || p[len(p)-1] != dst || fa.firstBlocked(p) >= 0 {
		t.Fatalf("fault-free detourFrom = %v, truncated %v, err %v; want a live route", p, truncated, err)
	}

	for _, e := range ht.Neighbors(dst, nil) {
		fs.FailLinkBoth(dst, e)
	}
	for _, tc := range []struct {
		name          string
		ttl, maxDepth int
		truncated     bool
	}{
		{"depth bound", 1 << 20, 1, true},
		{"TTL", 0, 0, true},
		{"destination cut off", 1 << 20, 0, false},
	} {
		p, truncated, err := fa.detourFrom(src, dst, tc.ttl, tc.maxDepth)
		if err == nil {
			t.Fatalf("%s: found %v to a destination with every link down", tc.name, p)
		}
		if truncated != tc.truncated {
			t.Fatalf("%s: truncated = %v, want %v (err %v)", tc.name, truncated, tc.truncated, err)
		}
	}
}
