package topo

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/obs"
)

// RouterStats is the router-observability snapshot exposed by Algebraic and
// FaultAware: route-store hits/misses/evictions/occupancy, fault-epoch
// purges, reroutes, and the detour-depth histogram (bucket 0 the conjugate
// repairs, the others the TTL-local detours). It is an alias of obs.RouterStats (defined in the
// dependency-free obs leaf so netsim and tooling can consume it without an
// import cycle).
type RouterStats = obs.RouterStats

// FaultAware wraps a PathRouter with algebraic fault tolerance: routes are
// derived exactly as before, but every route is verified against a FaultSet
// before a packet is committed to it, and a route that would cross a failed
// link or node is repaired by a generator-conjugate detour — leave the
// current node through a different generator, re-source the algebraic route
// from that neighbor (which re-runs the covering-schedule selection from the
// shifted state, i.e. permutes the order in which the remaining suffix is
// sorted), and, on undirected topologies, optionally arrive at the
// destination through a different final generator. The super-IP graphs are
// vertex-transitive Cayley graphs, so κ (= degree) edge-disjoint routes
// exist between every pair (see DisjointRoutes); as long as fewer than κ
// faults separate a pair, some conjugate detour survives and is found in
// O(route length) membership checks per candidate — no tables, no BFS, no
// materialization.
//
// Only when every algebraic candidate is blocked does the router fall back
// to a bounded local detour: step to a live neighbor, spend one unit of
// TTL, and retry the algebraic candidates from there. One derivation spends at most
// MaxDetourTTL such hops.
//
// Like Algebraic, a FaultAware router carries per-packet source routes
// between NextHop calls in a route store keyed (current node, destination).
// The store is tagged with the FaultSet epoch its routes were verified
// against and is purged whenever the epoch changes, so no stale route ever
// crosses a link that died after the route was computed.
//
// A FaultAware has no settings: its only state is the route store, the
// repair counters behind RouterStats and neighbor scratch buffers.
//
// Not safe for concurrent use (the inner router and the route store are
// single-threaded); the FaultSet itself may be mutated concurrently.
type FaultAware struct {
	inner PathRouter
	topo  Topology
	fs    *FaultSet

	routes    routeStore
	seenEpoch uint64

	// fault-repair counters (see RouterStats)
	epochPurges          uint64
	reroutes, detourHops uint64
	detourDepth          [8]uint64

	nbrBuf  []int64 // neighbor scratch for candidate generation
	nbrBuf2 []int64 // second-level scratch (two-hop starts, arrive-via)
}

// MaxDetourTTL bounds FaultAware's local-detour fallback: how many
// non-algebraic hops one route derivation may take around dead regions
// before giving up. It is FaultAware's own bound; a built graph's table
// router (BFSRouter) takes no detours.
const MaxDetourTTL = 16

// NewFaultAware wraps router r over topology t with fault set fs. The
// router and topology must share one id space (e.g. Algebraic + Implicit of
// the same super-IP graph, or HypercubeRouter + HypercubeTopo).
func NewFaultAware(t Topology, r PathRouter, fs *FaultSet) *FaultAware {
	return &FaultAware{inner: r, topo: t, fs: fs, seenEpoch: fs.Epoch()}
}

// RouterStats returns the cumulative routing telemetry of this router:
// route-store behavior (hits, misses, evicted entries from safety-valve
// clears and fault-epoch purges — each evicted entry is a forced mid-flight
// re-source), how often the store was invalidated by FaultSet changes
// (EpochPurges), and the fault-repair split — reroutes resolved purely by
// algebraic conjugate candidates vs. ones that needed the TTL-local detour
// walk, with the exploratory-hop total in DetourHops and the per-repair
// histogram in DetourDepth, whose bucket 0 holds the repairs that spent no
// exploratory hop and whose other buckets hold the local detours.
func (r *FaultAware) RouterStats() RouterStats {
	rs := r.routes.stats()
	rs.EpochPurges = r.epochPurges
	rs.Reroutes = r.reroutes
	rs.DetourHops = r.detourHops
	rs.DetourDepth = r.detourDepth
	return rs
}

// checkEpoch purges the route store when the fault set has changed since
// its routes were verified.
func (r *FaultAware) checkEpoch() {
	if e := r.fs.Epoch(); e != r.seenEpoch {
		r.epochPurges++
		r.routes.purge()
		r.seenEpoch = e
	}
}

// NextHop advances one hop along a verified fault-free source route,
// re-deriving (and, if necessary, detouring) on a route-store miss or
// fault-epoch change.
func (r *FaultAware) NextHop(cur, dst int64) (int64, error) {
	nh, _, err := r.NextHopFlagged(cur, dst)
	return nh, err
}

// NextHopFlagged is NextHop plus a flag reporting whether the hop belongs to
// a route that deviated from the primary algebraic route because of faults —
// the "delivered degraded" signal consumed by the simulator.
func (r *FaultAware) NextHopFlagged(cur, dst int64) (int64, bool, error) {
	if cur == dst {
		return 0, false, fmt.Errorf("topo: NextHop(%d, %d): already at destination", cur, dst)
	}
	r.checkEpoch()
	if nxt, detoured, ok := r.routes.next(cur, dst); ok {
		return nxt, detoured, nil
	}
	p, detoured, err := r.routeAvoiding(cur, dst)
	if err != nil {
		return 0, false, err
	}
	nxt, err := r.routes.begin(cur, dst, p, detoured)
	return nxt, detoured, err
}

// Path returns a verified fault-free route from src to dst, detouring around
// failed components as needed.
func (r *FaultAware) Path(src, dst int64) ([]int64, error) {
	r.checkEpoch()
	p, _, err := r.routeAvoiding(src, dst)
	return p, err
}

// firstBlocked returns the index of the first node in p whose outgoing hop
// is blocked (link down or next node down), or -1 if the whole route is
// live.
func (r *FaultAware) firstBlocked(p []int64) int {
	for i := 0; i+1 < len(p); i++ {
		if r.fs.Blocked(p[i], p[i+1]) {
			return i
		}
	}
	return -1
}

// routeAvoiding computes a route from cur to dst that crosses no failed
// link or node: the primary algebraic route when it is live, otherwise the
// primary's live prefix extended by a conjugate detour.
func (r *FaultAware) routeAvoiding(cur, dst int64) (route []int64, detoured bool, err error) {
	if r.fs.NodeDown(dst) {
		return nil, false, fmt.Errorf("topo: destination %d is failed", dst)
	}
	p, err := r.inner.Path(cur, dst)
	if err != nil {
		return nil, false, err
	}
	j := r.firstBlocked(p)
	if j < 0 {
		return p, false, nil
	}
	r.reroutes++
	// Keep the live prefix p[0..j] and re-derive the suffix from p[j].
	prefix := append([]int64(nil), p[:j+1]...)
	hopsBefore := r.detourHops
	tail, _, err := r.detourFrom(p[j], dst, MaxDetourTTL, 0)
	if err != nil {
		return nil, false, fmt.Errorf("topo: no fault-free route from %d to %d: %w", cur, dst, err)
	}
	// Bucket the repair by the bit length of the exploratory hops it spent:
	// bucket 0 (no hop) is a conjugate candidate answered algebraically,
	// every other bucket a fallback to the TTL-local walk.
	b := bits.Len64(r.detourHops - hopsBefore)
	r.detourDepth[min(b, len(r.detourDepth)-1)]++
	return append(prefix, tail[1:]...), true, nil
}

// detourFrom derives a fault-free route from v to dst by trying algebraic
// conjugate candidates first and spending local-detour TTL only when every
// candidate is blocked: a deterministic depth-first walk over live links
// (neighbors in ascending order, backtracking on dead ends) that retries
// the algebraic candidates at every node it reaches, a deterministic and
// systematic TTL-bounded local detour. ttl bounds the number of
// exploratory hops charged across the whole derivation; maxDepth, when
// positive, also bounds the depth of the walk (DisjointRoutes' iterative
// deepening), and zero leaves only the TTL. The returned route starts at v
// and ends at dst. A failed search reports truncated when either bound cut
// it short, so a larger bound might still succeed, and not truncated when
// it exhausted every live node reachable from v.
func (r *FaultAware) detourFrom(v, dst int64, ttl, maxDepth int) (route []int64, truncated bool, err error) {
	if v == dst {
		return []int64{dst}, false, nil
	}
	if cand := r.algebraicCandidate(v, dst); cand != nil {
		return cand, false, nil
	}
	type frame struct {
		node int64
		nbrs []int64
		next int
	}
	liveNbrs := func(u int64) []int64 {
		r.nbrBuf = r.topo.Neighbors(u, r.nbrBuf)
		return append([]int64(nil), r.nbrBuf...)
	}
	onPath := map[int64]bool{v: true}
	// The fault set cannot change during one derivation, so a node whose
	// conjugate candidates were all blocked stays blocked: memoize failures
	// across DFS revisits (a node can be re-reached after backtracking).
	noCand := map[int64]bool{v: true}
	stack := []frame{{node: v, nbrs: liveNbrs(v)}}
	pathNodes := func() []int64 {
		p := make([]int64, len(stack))
		for i := range stack {
			p[i] = stack[i].node
		}
		return p
	}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		advanced := false
		for f.next < len(f.nbrs) {
			if maxDepth > 0 && len(stack) > maxDepth {
				truncated = true
				break
			}
			w := f.nbrs[f.next]
			f.next++
			if r.fs.Blocked(f.node, w) || onPath[w] {
				continue
			}
			if ttl <= 0 {
				return nil, true, fmt.Errorf("detour TTL exhausted at %d", f.node)
			}
			ttl--
			r.detourHops++
			if w == dst {
				return append(pathNodes(), dst), false, nil
			}
			if !noCand[w] {
				if cand := r.algebraicCandidate(w, dst); cand != nil {
					return append(pathNodes(), cand...), false, nil
				}
				noCand[w] = true
			}
			onPath[w] = true
			stack = append(stack, frame{node: w, nbrs: liveNbrs(w)})
			advanced = true
			break
		}
		if !advanced {
			delete(onPath, f.node)
			stack = stack[:len(stack)-1]
		}
	}
	return nil, truncated, fmt.Errorf("detour search exhausted from %d", v)
}

// algebraicCandidate returns the first live conjugate-detour route from v to
// dst, or nil when every candidate is blocked. Candidates are tried in three
// deterministic tiers of increasing cost:
//
//	tier 0 — leave via a different generator: v -> w -> Route(w, dst);
//	tier 1 — additionally arrive via a different generator (undirected
//	         topologies): v -> w -> Route(w, e) -> dst for each e adjacent
//	         to dst;
//	tier 2 — two-hop starts: v -> w -> w2 -> Route(w2, dst).
//
// Each candidate costs O(route length) fault-membership checks, and one
// whose splice hops are blocked is skipped before any route is computed;
// the tiers bound the total work per derivation by a constant multiple of
// κ² route checks.
func (r *FaultAware) algebraicCandidate(v, dst int64) []int64 {
	live := func(p []int64) bool { return r.firstBlocked(p) < 0 }
	// Tier -1: the plain route itself. Source routes are not memoryless, so
	// after a local-detour step the direct route from the new position may
	// be clean even though every conjugate from the previous node was not.
	if p, err := r.inner.Path(v, dst); err == nil && len(p) > 1 && p[0] == v && live(p) {
		return p
	}
	r.nbrBuf = r.topo.Neighbors(v, r.nbrBuf)
	firstHops := r.nbrBuf
	// Tier 0: straight re-source from each live neighbor.
	for _, w := range firstHops {
		if r.fs.Blocked(v, w) {
			continue
		}
		if cand, ok := r.spliceVia(v, w, dst); ok && live(cand) {
			return cand
		}
	}
	// Tier 1: arrive through a different final generator (needs reverse
	// edges, so undirected topologies only).
	if !r.topo.Directed() {
		r.nbrBuf2 = r.topo.Neighbors(dst, r.nbrBuf2)
		for _, w := range firstHops {
			if r.fs.Blocked(v, w) {
				continue
			}
			for _, e := range r.nbrBuf2 {
				if e == w || e == v || r.fs.Blocked(e, dst) || r.fs.NodeDown(e) {
					continue
				}
				if cand, ok := r.spliceViaTo(v, w, e, dst); ok && live(cand) {
					return cand
				}
			}
		}
	}
	// Tier 2: two-hop starts.
	for _, w := range firstHops {
		if r.fs.Blocked(v, w) {
			continue
		}
		r.nbrBuf2 = r.topo.Neighbors(w, r.nbrBuf2)
		for _, w2 := range r.nbrBuf2 {
			if w2 == v || r.fs.Blocked(w, w2) {
				continue
			}
			if cand, ok := r.spliceVia(w, w2, dst); ok {
				if full := append([]int64{v}, cand...); live(full) {
					return full
				}
			}
		}
	}
	return nil
}

// spliceVia builds the candidate v -> w -> Route(w, dst), returning ok=false
// when the inner route cannot be computed.
func (r *FaultAware) spliceVia(v, w, dst int64) ([]int64, bool) {
	if w == dst {
		return []int64{v, dst}, true
	}
	p, err := r.inner.Path(w, dst)
	if err != nil || len(p) == 0 || p[0] != w {
		return nil, false
	}
	return append([]int64{v}, p...), true
}

// spliceViaTo builds the candidate v -> w -> Route(w, e) -> dst.
func (r *FaultAware) spliceViaTo(v, w, e, dst int64) ([]int64, bool) {
	if w == e {
		return []int64{v, w, dst}, true
	}
	p, err := r.inner.Path(w, e)
	if err != nil || len(p) == 0 || p[0] != w || p[len(p)-1] != e {
		return nil, false
	}
	cand := append([]int64{v}, p...)
	return append(cand, dst), true
}

// DisjointRoutes constructs a set of pairwise edge-disjoint routes from src
// to dst on topology t using router pr. It runs unit-capacity flow
// augmentation entirely through the fault-aware detour machinery: arcs
// carrying flow are marked failed in a scratch FaultSet, so each
// augmentation is exactly a fault-aware route derivation (primary algebraic
// route, then conjugate candidates, then the bounded DFS) over the residual
// graph; on undirected topologies a derivation that traverses an arc
// against existing flow cancels it (Ford–Fulkerson), which lets later
// augmentations reroute earlier ones instead of being blocked by greedy
// commitments. The accumulated flow is then decomposed into arc-disjoint
// src -> dst walks, smallest-id-first, deterministically.
//
// Each augmenting path comes from one scratch FaultAware over that
// FaultSet, searched by iterative deepening: the depth bound starts at the
// primary route's length + 2 and doubles for as long as the search reports
// that the bound cut it short, up to a hop budget of 64 + 16 × the primary
// route's length. A search that exhausts the residual graph within its
// bound ends the augmentation.
//
// On the symmetric super-IP families, which are vertex-transitive Cayley
// graphs of degree κ, edge connectivity equals the degree, and the
// construction realizes that bound: it returns κ pairwise edge-disjoint
// routes — no two share an edge in either direction — which is the
// algebraic foundation of the "κ−1 faults lose nothing" guarantee. Only
// O(κ · route length) local work is spent; the topology is never
// materialized and no BFS tables are built.
//
// The routes are valid walks; they need not be node-disjoint, and
// cancellation means the first route is not always the primary algebraic
// route verbatim. Fewer than κ routes are returned when the pair's local
// connectivity is below the degree (possible on the plain repeated-seed
// families) or an augmenting path exceeds the search budget.
func DisjointRoutes(t Topology, pr PathRouter, src, dst int64) ([][]int64, error) {
	if src == dst {
		return nil, fmt.Errorf("topo: DisjointRoutes(%d, %d): src == dst", src, dst)
	}
	primary, err := pr.Path(src, dst)
	if err != nil {
		return nil, err
	}
	directed := t.Directed()
	fs := NewFaultSet()
	flow := map[[2]int64]bool{}
	// augment pushes one unit of flow along p, which must be node-simple
	// (simplifyWalk) so that no arc is used twice within one augmentation.
	// The arcs' faults and repairs are independent, so they land in one
	// FaultSet mutation.
	augment := func(p []int64) {
		var failed, repaired [][2]int64
		for i := 0; i+1 < len(p); i++ {
			u, v := p[i], p[i+1]
			if back := [2]int64{v, u}; !directed && flow[back] {
				delete(flow, back) // traversed against flow: cancel it
				repaired = append(repaired, back)
			} else {
				flow[[2]int64{u, v}] = true
				failed = append(failed, [2]int64{u, v})
			}
		}
		fs.mutate(func(s *faultSnap) { s.links = repair(fail(s.links, failed...), repaired...) })
	}
	augment(simplifyWalk(primary))
	paths := 1

	search := NewFaultAware(t, pr, fs)
	budget := 64 + 16*len(primary)
	var nbrBuf []int64
	nbrBuf = t.Neighbors(src, nbrBuf)
	slots := len(nbrBuf)
	for i := 1; i < slots; i++ {
		// Iterative deepening keeps each augmenting path — and therefore
		// each decomposed route — short: a shallow residual search is tried
		// before the depth cap is relaxed toward the full budget.
		var p []int64
		var truncated bool
		var err error
		for depth := len(primary) + 2; ; depth *= 2 {
			p, truncated, err = search.detourFrom(src, dst, budget, depth)
			if err == nil || depth > budget || !truncated {
				break
			}
		}
		if err != nil {
			break // residual search exhausted: local connectivity reached
		}
		augment(simplifyWalk(p))
		paths++
	}

	// Decompose the flow into paths: sorted out-arc lists per node, each
	// walk consuming the smallest remaining out-arc until it reaches dst.
	// Flow conservation (out = in at every intermediate node, with `paths`
	// units of excess at src) guarantees every walk terminates at dst;
	// leftover flow cycles, if any, are simply never visited.
	out := map[int64][]int64{}
	for arc := range flow {
		out[arc[0]] = append(out[arc[0]], arc[1])
	}
	for _, vs := range out {
		slices.Sort(vs)
	}
	maxLen := len(flow) + 1
	routes := make([][]int64, 0, paths)
	for i := 0; i < paths; i++ {
		walk := []int64{src}
		cur := src
		for cur != dst && len(walk) <= maxLen {
			arcs := out[cur]
			if len(arcs) == 0 {
				return nil, fmt.Errorf("topo: DisjointRoutes(%d, %d): flow decomposition stuck at %d", src, dst, cur)
			}
			nxt := arcs[0]
			out[cur] = arcs[1:]
			walk = append(walk, nxt)
			cur = nxt
		}
		if cur != dst {
			return nil, fmt.Errorf("topo: DisjointRoutes(%d, %d): flow decomposition cycled", src, dst)
		}
		// A walk may wander through a leftover flow cycle; stripping the
		// cycle uses a subset of the walk's own arcs, so disjointness is
		// preserved and the route only gets shorter.
		routes = append(routes, simplifyWalk(walk))
	}
	return routes, nil
}

// simplifyWalk removes cycles from a walk: whenever a node recurs, the
// segment between its two occurrences is spliced out, yielding a node-simple
// path over a subset of the walk's arcs.
func simplifyWalk(p []int64) []int64 {
	pos := map[int64]int{}
	out := p[:0:0]
	for _, u := range p {
		if k, seen := pos[u]; seen {
			for _, v := range out[k+1:] {
				delete(pos, v)
			}
			out = out[:k+1]
			continue
		}
		pos[u] = len(out)
		out = append(out, u)
	}
	return out
}
