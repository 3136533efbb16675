package topo

import "fmt"

// routeStore carries in-flight source routes between NextHop calls, keyed by
// (current node, destination). Theorem 4.1/4.3 routes are computed at the
// source and are NOT memoryless — recomputing from an intermediate node
// restarts the covering schedule and can oscillate — so, as in the paper's
// model where the header carries the route, a router hands each packet the
// next entry of the route its origin computed and re-sources only on a miss.
// Entries are consumed as packets advance, so the map is bounded by the
// in-flight population; at maxStoredRoutes it is cleared entirely as a
// safety valve (affected packets re-source from their current position).
// Algebraic and FaultAware both route through one; the zero value is ready
// to use.
type routeStore struct {
	m map[[2]int64]routeTail

	// telemetry (see RouterStats)
	hits, misses, evicted, clears uint64
}

// routeTail is the rest of one packet's route: the nodes after the current
// one, and whether the route was detoured around faults.
type routeTail struct {
	hops     []int64
	detoured bool
}

// maxStoredRoutes bounds a routeStore; beyond it the store is dropped and
// in-flight packets re-source their routes.
const maxStoredRoutes = 1 << 20

// next pops the carried next hop of a packet at cur bound for dst. ok is
// false on a miss: the caller derives a route and hands it to begin.
func (s *routeStore) next(cur, dst int64) (nxt int64, detoured, ok bool) {
	key := [2]int64{cur, dst}
	t, ok := s.m[key]
	if !ok {
		s.misses++
		return 0, false, false
	}
	s.hits++
	delete(s.m, key)
	if len(t.hops) > 1 {
		s.m[[2]int64{t.hops[0], dst}] = routeTail{hops: t.hops[1:], detoured: t.detoured}
	}
	return t.hops[0], t.detoured, true
}

// begin stores the freshly derived route p from cur to dst (p[0] == cur)
// and returns its first hop.
func (s *routeStore) begin(cur, dst int64, p []int64, detoured bool) (int64, error) {
	if len(p) < 2 {
		return 0, fmt.Errorf("topo: route from %d to %d is empty", cur, dst)
	}
	if len(s.m) >= maxStoredRoutes {
		s.clears++
		s.purge()
	}
	if len(p) > 2 {
		if s.m == nil {
			s.m = map[[2]int64]routeTail{}
		}
		s.m[[2]int64{p[1], dst}] = routeTail{hops: p[2:], detoured: detoured}
	}
	return p[1], nil
}

// purge drops every stored route; each one is counted as evicted, since its
// packet must re-source mid-flight.
func (s *routeStore) purge() {
	s.evicted += uint64(len(s.m))
	s.m = nil
}

// stats returns the store's share of a RouterStats snapshot.
func (s *routeStore) stats() RouterStats {
	return RouterStats{
		CacheHits:      s.hits,
		CacheMisses:    s.misses,
		CacheEvicted:   s.evicted,
		CacheClears:    s.clears,
		CacheOccupancy: len(s.m),
	}
}
