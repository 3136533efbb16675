package topo

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
)

// RouterStats is the router-observability snapshot exposed by Algebraic and
// FaultAware: route-store hits/misses/evictions/occupancy, fault-epoch
// purges, the conjugate vs. TTL-local reroute split, and the detour-depth
// histogram. It is an alias of obs.RouterStats (defined in the
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
// to a bounded local detour (the TTL discipline of the materialized
// RunFaulty): step to a live neighbor, spend one unit of TTL, and retry the
// algebraic candidates from there.
//
// Like Algebraic, a FaultAware router carries per-packet source routes
// between NextHop calls in a route store keyed (current node, destination).
// The store is tagged with the FaultSet epoch its routes were verified
// against and is purged whenever the epoch changes, so no stale route ever
// crosses a link that died after the route was computed.
//
// Not safe for concurrent use (the inner router and the route store are
// single-threaded); the FaultSet itself may be mutated concurrently.
type FaultAware struct {
	inner PathRouter
	topo  Topology
	fs    *FaultSet

	// MaxDetourTTL bounds the local-detour fallback: how many non-algebraic
	// hops one route derivation may take around dead regions before giving
	// up. Defaults to 16 (the RunFaulty default).
	MaxDetourTTL int

	// maxDepth, when positive, additionally bounds the depth of the
	// local-detour DFS stack — used by DisjointRoutes' iterative deepening
	// to keep augmenting paths short. Zero means TTL-only. limited records
	// whether the last detourFrom search was truncated by maxDepth or TTL
	// (as opposed to genuinely exhausting the reachable residual graph).
	maxDepth int
	limited  bool

	routes    routeStore
	seenEpoch uint64

	// fault-repair counters (see RouterStats)
	epochPurges            uint64
	reroutes, detourHops   uint64
	conjugate, localDetour uint64
	detourDepth            [8]uint64

	nbrBuf  []int64 // neighbor scratch for candidate generation
	nbrBuf2 []int64 // second-level scratch (two-hop starts, arrive-via)
}

// NewFaultAware wraps router r over topology t with fault set fs. The
// router and topology must share one id space (e.g. Algebraic + Implicit of
// the same super-IP graph, or HypercubeRouter + HypercubeTopo).
func NewFaultAware(t Topology, r PathRouter, fs *FaultSet) *FaultAware {
	return &FaultAware{
		inner:        r,
		topo:         t,
		fs:           fs,
		MaxDetourTTL: 16,
		seenEpoch:    fs.Epoch(),
	}
}

// Faults returns the shared fault set.
func (r *FaultAware) Faults() *FaultSet { return r.fs }

// RouterStats returns the cumulative routing telemetry of this router:
// route-store behavior (hits, misses, evicted entries from safety-valve
// clears and fault-epoch purges — each evicted entry is a forced mid-flight
// re-source), how often the store was invalidated by FaultSet changes
// (EpochPurges), and the fault-repair split — reroutes resolved purely by
// algebraic conjugate candidates vs. ones that needed the TTL-local detour
// walk, with the exploratory-hop total in DetourHops and the per-repair
// histogram in DetourDepth.
func (r *FaultAware) RouterStats() RouterStats {
	rs := r.routes.stats()
	rs.EpochPurges = r.epochPurges
	rs.Reroutes = r.reroutes
	rs.ConjugateReroutes = r.conjugate
	rs.LocalDetourReroutes = r.localDetour
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
	tail, err := r.detourFrom(p[j], dst, r.MaxDetourTTL)
	if err != nil {
		return nil, false, fmt.Errorf("topo: no fault-free route from %d to %d: %w", cur, dst, err)
	}
	// Classify the repair by how many exploratory hops it spent: zero means
	// a conjugate candidate answered algebraically, anything else fell back
	// to the TTL-local walk. The depth histogram buckets by bit length.
	if spent := r.detourHops - hopsBefore; spent == 0 {
		r.conjugate++
		r.detourDepth[0]++
	} else {
		r.localDetour++
		b := bits.Len64(spent)
		if b >= len(r.detourDepth) {
			b = len(r.detourDepth) - 1
		}
		r.detourDepth[b]++
	}
	return append(prefix, tail[1:]...), true, nil
}

// detourFrom derives a fault-free route from v to dst by trying algebraic
// conjugate candidates first and spending local-detour TTL only when every
// candidate is blocked: a deterministic depth-first walk over live links
// (neighbors in ascending order, backtracking on dead ends) that retries
// the algebraic candidates at every node it reaches — PR 1's TTL
// discipline, made deterministic and systematic. ttl bounds the number of
// exploratory hops charged across the whole derivation. The returned route
// starts at v and ends at dst.
func (r *FaultAware) detourFrom(v, dst int64, ttl int) ([]int64, error) {
	if v == dst {
		return []int64{dst}, nil
	}
	if cand := r.algebraicCandidate(v, dst); cand != nil {
		return cand, nil
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
	r.limited = false
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
			if r.maxDepth > 0 && len(stack) > r.maxDepth {
				r.limited = true
				break
			}
			w := f.nbrs[f.next]
			f.next++
			if r.fs.Blocked(f.node, w) || onPath[w] {
				continue
			}
			if ttl <= 0 {
				r.limited = true
				return nil, fmt.Errorf("detour TTL exhausted at %d", f.node)
			}
			ttl--
			r.detourHops++
			if w == dst {
				return append(pathNodes(), dst), nil
			}
			if !noCand[w] {
				if cand := r.algebraicCandidate(w, dst); cand != nil {
					return append(pathNodes(), cand...), nil
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
	return nil, fmt.Errorf("detour search exhausted from %d", v)
}

// algebraicCandidate returns the first live conjugate-detour route from v to
// dst, or nil when every candidate is blocked. Candidates are enumerated in
// three deterministic tiers of increasing cost:
//
//	tier 0 — leave via a different generator: v -> w -> Route(w, dst);
//	tier 1 — additionally arrive via a different generator (undirected
//	         topologies): v -> w -> Route(w, e) -> dst for each e adjacent
//	         to dst;
//	tier 2 — two-hop starts: v -> w -> w2 -> Route(w2, dst).
//
// Each candidate costs O(route length) fault-membership checks; the tiers
// bound the total work per derivation by a constant multiple of κ² route
// checks.
func (r *FaultAware) algebraicCandidate(v, dst int64) []int64 {
	var found []int64
	r.forEachCandidate(v, dst, func(cand []int64) bool {
		if r.firstBlocked(cand) < 0 {
			found = cand
			return false
		}
		return true
	})
	return found
}

// forEachCandidate enumerates the conjugate-detour candidates from v to dst
// described on algebraicCandidate, calling yield for each; enumeration stops
// when yield returns false. Candidates whose splice hops are blocked are
// skipped cheaply before any route is computed.
func (r *FaultAware) forEachCandidate(v, dst int64, yield func([]int64) bool) {
	// Tier -1: the plain route itself. Source routes are not memoryless, so
	// after a local-detour step the direct route from the new position may
	// be clean even though every conjugate from the previous node was not.
	if p, err := r.inner.Path(v, dst); err == nil && len(p) > 1 && p[0] == v {
		if !yield(p) {
			return
		}
	}
	r.nbrBuf = r.topo.Neighbors(v, r.nbrBuf)
	firstHops := append([]int64(nil), r.nbrBuf...)
	// Tier 0: straight re-source from each live neighbor.
	for _, w := range firstHops {
		if r.fs.Blocked(v, w) {
			continue
		}
		cand, ok := r.spliceVia(v, w, dst)
		if ok && !yield(cand) {
			return
		}
	}
	// Tier 1: arrive through a different final generator (needs reverse
	// edges, so undirected topologies only).
	if !r.topo.Directed() {
		r.nbrBuf2 = r.topo.Neighbors(dst, r.nbrBuf2)
		preDst := append([]int64(nil), r.nbrBuf2...)
		for _, w := range firstHops {
			if r.fs.Blocked(v, w) {
				continue
			}
			for _, e := range preDst {
				if e == w || e == v || r.fs.Blocked(e, dst) || r.fs.NodeDown(e) {
					continue
				}
				cand, ok := r.spliceViaTo(v, w, e, dst)
				if ok && !yield(cand) {
					return
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
		second := append([]int64(nil), r.nbrBuf2...)
		for _, w2 := range second {
			if w2 == v || r.fs.Blocked(w, w2) {
				continue
			}
			cand, ok := r.spliceVia(w, w2, dst)
			if ok {
				full := append([]int64{v}, cand...)
				if !yield(full) {
					return
				}
			}
		}
	}
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
	augment := func(p []int64) {
		for i := 0; i+1 < len(p); i++ {
			u, v := p[i], p[i+1]
			if back := [2]int64{v, u}; !directed && flow[back] {
				delete(flow, back) // traversed against flow: cancel it
				fs.RepairLink(v, u)
			} else {
				flow[[2]int64{u, v}] = true
				fs.FailLink(u, v)
			}
		}
	}
	augment(simplifyWalk(primary))
	paths := 1

	helper := &FaultAware{inner: pr, topo: t, fs: fs}
	budget := 64 + 16*len(primary)
	var nbrBuf []int64
	nbrBuf = t.Neighbors(src, nbrBuf)
	slots := len(nbrBuf)
	for i := 1; i < slots; i++ {
		// Iterative deepening keeps each augmenting path — and therefore
		// each decomposed route — short: a shallow residual search is tried
		// before the depth cap is relaxed toward the full budget.
		var p []int64
		var err error
		for depth := len(primary) + 2; ; depth *= 2 {
			helper.maxDepth = depth
			p, err = helper.detourFrom(src, dst, budget)
			if err == nil || depth > budget || !helper.limited {
				break
			}
		}
		helper.maxDepth = 0
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
		sortInt64s(vs)
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

// sortInt64s sorts a small int64 slice ascending (insertion sort; arc lists
// are at most degree long).
func sortInt64s(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
