package topo

import (
	"fmt"
	"math/bits"
)

// routeStore carries in-flight source routes between NextHop calls, keyed by
// (current node, destination). Theorem 4.1/4.3 routes are computed at the
// source and are NOT memoryless — recomputing from an intermediate node
// restarts the covering schedule and can oscillate — so, as in the paper's
// model where the header carries the route, a router hands each packet the
// next entry of the route its origin computed and re-sources only on a miss.
// Entries are consumed as packets advance, so the store is bounded by the
// in-flight population; two packets that meet at one node bound for one
// destination share a key, and the later write wins. At maxStoredRoutes the
// store is cleared entirely as a safety valve (affected packets re-source
// from their current position).
//
// The entries live in an open-addressed table: linear probing, Fibonacci
// hashing of the pair, backward-shift deletion (so no tombstones), an empty
// route tail as the empty slot, and a doubling whenever an insert would fill
// more than half the slots. A hop finds its packet's slot once, empties it
// and stores the tail under the next node's key.
//
// Algebraic and FaultAware both route through one; the zero value is ready
// to use.
type routeStore struct {
	slots []routeSlot
	shift uint // 64 - log2(len(slots))
	n     int

	// telemetry (see RouterStats)
	hits, misses, evicted, clears uint64
}

// routeSlot is one stored route: the key (cur, dst), the nodes after cur,
// and whether the route was detoured around faults. A slot with no hops is
// empty.
type routeSlot struct {
	cur, dst int64
	hops     []int64
	detoured bool
}

// maxStoredRoutes bounds a routeStore; beyond it the store is dropped and
// in-flight packets re-source their routes.
const maxStoredRoutes = 1 << 20

// minRouteSlots is the slot count of a store's first table: a power of two.
const minRouteSlots = 64

// home is key (cur, dst)'s first probe slot.
func (s *routeStore) home(cur, dst int64) int {
	const phi = 0x9E3779B97F4A7C15
	return int((uint64(cur)*phi + uint64(dst)) * phi >> s.shift)
}

// next pops the carried next hop of a packet at cur bound for dst. ok is
// false on a miss: the caller derives a route and hands it to begin.
func (s *routeStore) next(cur, dst int64) (nxt int64, detoured, ok bool) {
	if s.n == 0 {
		s.misses++
		return 0, false, false
	}
	mask := len(s.slots) - 1
	i := s.home(cur, dst)
	for ; ; i = (i + 1) & mask {
		e := &s.slots[i]
		if e.hops == nil {
			s.misses++
			return 0, false, false
		}
		if e.cur == cur && e.dst == dst {
			break
		}
	}
	s.hits++
	t := s.slots[i]
	s.del(i)
	if len(t.hops) > 1 {
		s.put(t.hops[0], dst, t.hops[1:], t.detoured)
	}
	return t.hops[0], t.detoured, true
}

// begin stores the freshly derived route p from cur to dst (p[0] == cur)
// and returns its first hop.
func (s *routeStore) begin(cur, dst int64, p []int64, detoured bool) (int64, error) {
	if len(p) < 2 {
		return 0, fmt.Errorf("topo: route from %d to %d is empty", cur, dst)
	}
	if s.n >= maxStoredRoutes {
		s.clears++
		s.purge()
	}
	if len(p) > 2 {
		s.put(p[1], dst, p[2:], detoured)
	}
	return p[1], nil
}

// put stores the non-empty tail hops under (cur, dst), replacing the tail
// stored there.
func (s *routeStore) put(cur, dst int64, hops []int64, detoured bool) {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	i := s.home(cur, dst)
	for ; s.slots[i].hops != nil; i = (i + 1) & mask {
		if s.slots[i].cur == cur && s.slots[i].dst == dst {
			s.slots[i].hops, s.slots[i].detoured = hops, detoured
			return
		}
	}
	s.slots[i] = routeSlot{cur, dst, hops, detoured}
	s.n++
}

// grow doubles the table (or allocates the first one) and reinserts every
// stored route.
func (s *routeStore) grow() {
	old := s.slots
	size := max(2*len(old), minRouteSlots)
	s.slots, s.n = make([]routeSlot, size), 0
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.hops != nil {
			s.put(e.cur, e.dst, e.hops, e.detoured)
		}
	}
}

// del empties slot i and shifts every later entry of its probe run that may
// fill the hole back toward its home slot.
func (s *routeStore) del(i int) {
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j].hops != nil; j = (j + 1) & mask {
		// The entry at j may move to the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-s.home(s.slots[j].cur, s.slots[j].dst))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = routeSlot{}
	s.n--
}

// purge drops every stored route; each one is counted as evicted, since its
// packet must re-source mid-flight.
func (s *routeStore) purge() {
	s.evicted += uint64(s.n)
	if s.n > 0 {
		clear(s.slots)
		s.n = 0
	}
}

// stats returns the store's share of a RouterStats snapshot.
func (s *routeStore) stats() RouterStats {
	return RouterStats{
		CacheHits:      s.hits,
		CacheMisses:    s.misses,
		CacheEvicted:   s.evicted,
		CacheClears:    s.clears,
		CacheOccupancy: s.n,
	}
}
