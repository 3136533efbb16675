package topo

import (
	"fmt"
	"math/rand"
	"testing"
)

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// mapRouteStore is the Go-map route store the open-addressed one replaced:
// the reference semantics of routeStore, operation for operation.
type mapRouteStore struct {
	m                             map[[2]int64]mapRouteTail
	hits, misses, evicted, clears uint64
}

type mapRouteTail struct {
	hops     []int64
	detoured bool
}

func (s *mapRouteStore) next(cur, dst int64) (int64, bool, bool) {
	key := [2]int64{cur, dst}
	t, ok := s.m[key]
	if !ok {
		s.misses++
		return 0, false, false
	}
	s.hits++
	delete(s.m, key)
	if len(t.hops) > 1 {
		s.m[[2]int64{t.hops[0], dst}] = mapRouteTail{t.hops[1:], t.detoured}
	}
	return t.hops[0], t.detoured, true
}

func (s *mapRouteStore) begin(cur, dst int64, p []int64, detoured bool) (int64, error) {
	if len(p) < 2 {
		return 0, fmt.Errorf("topo: route from %d to %d is empty", cur, dst)
	}
	if len(s.m) >= maxStoredRoutes {
		s.clears++
		s.purge()
	}
	if len(p) > 2 {
		if s.m == nil {
			s.m = map[[2]int64]mapRouteTail{}
		}
		s.m[[2]int64{p[1], dst}] = mapRouteTail{p[2:], detoured}
	}
	return p[1], nil
}

func (s *mapRouteStore) purge() {
	s.evicted += uint64(len(s.m))
	s.m = nil
}

func (s *mapRouteStore) stats() RouterStats {
	return RouterStats{
		CacheHits:      s.hits,
		CacheMisses:    s.misses,
		CacheEvicted:   s.evicted,
		CacheClears:    s.clears,
		CacheOccupancy: len(s.m),
	}
}

// routeModel runs every operation on a routeStore and on its Go-map model
// and checks that they answer alike.
type routeModel struct {
	t     testing.TB
	s     routeStore
	model mapRouteStore
}

func (m *routeModel) next(cur, dst int64) {
	m.t.Helper()
	nxt, det, ok := m.s.next(cur, dst)
	wNxt, wDet, wOK := m.model.next(cur, dst)
	if nxt != wNxt || det != wDet || ok != wOK {
		m.t.Fatalf("next(%d, %d) = (%d, %v, %v), model (%d, %v, %v)", cur, dst, nxt, det, ok, wNxt, wDet, wOK)
	}
	m.checkStats("next")
}

func (m *routeModel) begin(cur, dst int64, p []int64, detoured bool) {
	m.t.Helper()
	nxt, err := m.s.begin(cur, dst, p, detoured)
	wNxt, wErr := m.model.begin(cur, dst, p, detoured)
	if nxt != wNxt || (err == nil) != (wErr == nil) {
		m.t.Fatalf("begin(%d, %d, %v) = (%d, %v), model (%d, %v)", cur, dst, p, nxt, err, wNxt, wErr)
	}
	m.checkStats("begin")
}

func (m *routeModel) purge() {
	m.t.Helper()
	m.s.purge()
	m.model.purge()
	m.checkStats("purge")
}

// checkStats compares every RouterStats counter of the store with the
// model's.
func (m *routeModel) checkStats(op string) {
	m.t.Helper()
	if got, want := m.s.stats(), m.model.stats(); got != want {
		m.t.Fatalf("after %s: stats %+v, model %+v", op, got, want)
	}
}

// checkSlots compares the store's entries with the model's and checks the
// linear-probing invariant: every entry is reachable from its home slot
// without crossing an empty slot, and at most half the slots are in use.
func (m *routeModel) checkSlots() {
	m.t.Helper()
	s := &m.s
	if 2*s.n > len(s.slots) {
		m.t.Fatalf("%d entries in %d slots: above half load", s.n, len(s.slots))
	}
	mask := len(s.slots) - 1
	used := 0
	for i, e := range s.slots {
		if e.hops == nil {
			continue
		}
		used++
		for j := s.home(e.cur, e.dst); j != i; j = (j + 1) & mask {
			if s.slots[j].hops == nil {
				m.t.Fatalf("key (%d, %d) in slot %d is cut off from its home %d by the empty slot %d",
					e.cur, e.dst, i, s.home(e.cur, e.dst), j)
			}
		}
		w, ok := m.model.m[[2]int64{e.cur, e.dst}]
		if !ok || w.detoured != e.detoured || len(w.hops) != len(e.hops) || &w.hops[0] != &e.hops[0] {
			m.t.Fatalf("slot %d holds (%d, %d) -> %v/%v, model %v/%v (present %v)",
				i, e.cur, e.dst, e.hops, e.detoured, w.hops, w.detoured, ok)
		}
	}
	if used != s.n || used != len(m.model.m) {
		m.t.Fatalf("%d slots in use, count %d, model %d", used, s.n, len(m.model.m))
	}
}

// twinDelta·φ mod 2^64 has its top six bits 0, so at minRouteSlots slots
// the keys (u, d) and (u, d+twinDelta) have the same or adjacent home slots.
const twinDelta = 34

// collidingKeys returns count nodes u such that, for every d in dsts, the
// home slot of key (u, d) in a store of minRouteSlots slots is slot 0 or one
// of the last two. So the probe runs of these keys collide and wrap around
// the table end, and keys that differ only in their destination meet in
// one run.
func collidingKeys(count int, dsts ...int64) []int64 {
	probe := routeStore{shift: 64 - 6} // log2(minRouteSlots) = 6
	var nodes []int64
	for u := int64(0); len(nodes) < count; u++ {
		wraps := true
		for _, d := range dsts {
			if h := probe.home(u, d); h != 0 && h < minRouteSlots-2 {
				wraps = false
			}
		}
		if wraps {
			nodes = append(nodes, u)
		}
	}
	return nodes
}

// TestRouteStoreModel runs seeded next/begin/purge sequences against the
// Go-map model, checking the hop, the detoured flag and every RouterStats
// counter after each operation.
func TestRouteStoreModel(t *testing.T) {
	if minRouteSlots != 1<<6 {
		t.Fatalf("collidingKeys assumes %d slots, store starts with %d", 1<<6, minRouteSlots)
	}
	const dst, alt = 7, 7 + twinDelta
	wrap := collidingKeys(12, dst, alt)

	t.Run("collide and wrap", func(t *testing.T) {
		m := &routeModel{t: t}
		// One route through every colliding node, so each hop deletes from
		// a run that wraps and shifts its successors back across the end.
		p := append([]int64{1000}, wrap...)
		p = append(p, dst)
		m.begin(p[0], dst, p, false)
		for i, u := range wrap {
			// A second packet per node, stored under a colliding key too.
			m.begin(2000+u, dst, []int64{2000 + u, wrap[(i+5)%len(wrap)], 3000 + u, dst}, true)
			m.checkSlots()
		}
		for i := 1; i < len(p)-1; i++ {
			m.next(p[i], dst)
			m.checkSlots()
		}
		for _, u := range wrap {
			m.next(u, dst)
			m.next(3000+u, dst)
			m.checkSlots()
		}
	})

	t.Run("overwrite", func(t *testing.T) {
		m := &routeModel{t: t}
		m.begin(1, dst, []int64{1, wrap[0], 2, 3, dst}, false)
		m.begin(4, dst, []int64{4, wrap[0], 5, dst}, true)
		m.checkSlots()
		m.next(wrap[0], dst) // the second route's tail
		m.next(5, dst)
		m.next(2, dst) // the first route's tail is gone
		m.checkSlots()
	})

	t.Run("pair key", func(t *testing.T) {
		// Another destination whose key (5, other) shares the home slot of
		// (5, dst), so a lookup of one probes the slot of the other.
		probe := routeStore{shift: 64 - 6}
		other := int64(dst + 1)
		for probe.home(5, other) != probe.home(5, dst) {
			other++
		}
		m := &routeModel{t: t}
		m.begin(4, dst, []int64{4, 5, 6, dst}, false)
		m.next(5, other)
		m.begin(3, other, []int64{3, 5, 9, other}, true)
		m.checkSlots()
		m.next(5, other)
		m.next(5, dst)
		m.checkSlots()
	})

	t.Run("grow and drain", func(t *testing.T) {
		m := &routeModel{t: t}
		const routes = 300
		for i := int64(0); i < routes; i++ {
			m.begin(i, dst, []int64{i, 1000 + i, 2000 + i, 3000 + i, dst}, i%3 == 0)
		}
		m.checkSlots()
		if len(m.s.slots) <= minRouteSlots {
			t.Fatalf("%d routes fit in %d slots", routes, len(m.s.slots))
		}
		for hop := int64(1000); hop <= 3000; hop += 1000 {
			for i := int64(0); i < routes; i++ {
				m.next(hop+i, dst)
			}
			m.checkSlots()
		}
		if m.s.n != 0 {
			t.Fatalf("%d routes left after every packet arrived", m.s.n)
		}
	})

	t.Run("purge", func(t *testing.T) {
		m := &routeModel{t: t}
		for i := int64(0); i < 40; i++ {
			m.begin(i, dst, []int64{i, 100 + i, 200 + i, dst}, false)
		}
		m.purge()
		m.purge()
		m.checkSlots()
		m.next(100, dst)
		m.begin(0, dst, []int64{0, 100, 200, dst}, false)
		m.next(100, dst)
		m.checkSlots()
	})

	t.Run("safety valve", func(t *testing.T) {
		if raceDetector {
			// The store and its model each hold 2^20 routes here: about
			// 340 MB, and about 1 GB with the race detector's shadow memory.
			// The valve is single-threaded; the plain run covers it.
			t.Skip("2^20 stored routes need about 1 GB under the race detector")
		}
		m := &routeModel{t: t}
		// Route i runs i, i+1, i+2 and is stored under (i+1, dst).
		seq := make([]int64, maxStoredRoutes+2)
		for i := range seq {
			seq[i] = int64(i)
		}
		for i := int64(0); i < maxStoredRoutes; i++ {
			m.s.begin(i, dst, seq[i:i+3], false)
			m.model.begin(i, dst, seq[i:i+3], false)
		}
		m.checkStats("fill")
		m.begin(maxStoredRoutes, dst, []int64{maxStoredRoutes, 1, 2, dst}, true)
		if m.s.clears != 1 || m.s.n != 1 {
			t.Fatalf("clears %d, occupancy %d after the valve", m.s.clears, m.s.n)
		}
		m.next(0, dst)
		m.next(1, dst)
		m.next(2, dst)
		m.checkSlots()
	})

	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := &routeModel{t: t}
			node := func() int64 {
				if rng.Intn(2) == 0 {
					return wrap[rng.Intn(len(wrap))]
				}
				return rng.Int63n(1 << 8)
			}
			var inFlight [][2]int64
			for i := 0; i < 6000; i++ {
				switch r := rng.Intn(100); {
				case r < 50 && len(inFlight) > 0:
					k := rng.Intn(len(inFlight))
					m.next(inFlight[k][0], inFlight[k][1])
					inFlight[k] = inFlight[len(inFlight)-1]
					inFlight = inFlight[:len(inFlight)-1]
				case r < 60:
					d := int64(dst)
					if rng.Intn(2) == 0 {
						d = alt
					}
					m.next(node(), d)
				case r < 99:
					d := int64(dst)
					if rng.Intn(2) == 0 {
						d = alt
					}
					p := make([]int64, 1+rng.Intn(6))
					for j := range p {
						p[j] = node()
					}
					m.begin(p[0], d, p, rng.Intn(2) == 0)
					for _, u := range p[1:] {
						inFlight = append(inFlight, [2]int64{u, d})
					}
				default:
					m.purge()
				}
				if i%200 == 0 {
					m.checkSlots()
				}
			}
			m.checkSlots()
		}
	})
}

// FuzzRouteStore drives the store with a byte-coded next/begin/purge
// sequence against the Go-map model. Each op is three bytes: the first
// picks the operation, one of two destinations and, for a begin, the
// detoured flag and the route length; the other two name nodes from a pool
// whose keys collide and wrap at both destinations or, for large values,
// directly.
func FuzzRouteStore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 2, 1, 3, 4})
	f.Add([]byte{8, 0, 1, 16, 2, 3, 1, 0, 0, 1, 1, 1, 3, 9, 9})
	f.Add([]byte{255, 255, 254, 0, 200, 1, 2, 200, 200, 3, 0, 0})
	f.Add([]byte{2, 0, 1, 2, 2, 3, 2, 4, 5, 2, 6, 7, 64, 1, 0, 64, 3, 0, 64, 5, 0, 64, 7, 0})
	const dst = 7
	pool := collidingKeys(16, dst, dst+twinDelta)
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := &routeModel{t: t}
		node := func(b byte) int64 {
			if int(b) < 2*len(pool) {
				return pool[int(b)%len(pool)]
			}
			return int64(b)
		}
		for i := 0; i+2 < len(ops); i += 3 {
			op := ops[i]
			d := dst + twinDelta*int64(op>>6&1)
			a, b := node(ops[i+1]), node(ops[i+2])
			switch op & 3 {
			case 0, 1:
				m.next(a, d)
			case 2:
				p := []int64{a, b}
				for j := 0; j < int(op>>3&7); j++ {
					p = append(p, node(byte(int(ops[i+1])+j*int(ops[i+2]))))
				}
				m.begin(a, d, append(p, d), op&4 != 0)
			case 3:
				m.purge()
			}
		}
		m.checkSlots()
	})
}
