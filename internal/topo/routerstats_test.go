package topo

// Tests for the router-observability surface: the suffix-cache and
// detour telemetry that Algebraic and FaultAware expose via RouterStats.
// The counters must agree exactly with the cache discipline (one miss per
// re-source, one hit per carried hop), epoch purges must be visible as
// evictions, and the conjugate/local-detour split must partition the
// reroute count with a consistent depth histogram.

import (
	"testing"

	"repro/internal/superip"
)

// walkNextHop drives a single packet from src to dst through NextHop,
// returning the hop count.
func walkNextHop(t *testing.T, r interface {
	NextHop(cur, dst int64) (int64, error)
}, src, dst int64, bound int) int {
	t.Helper()
	hops := 0
	for cur := src; cur != dst; hops++ {
		if hops > bound {
			t.Fatalf("walk from %d to %d exceeded %d hops", src, dst, bound)
		}
		nxt, err := r.NextHop(cur, dst)
		if err != nil {
			t.Fatalf("NextHop(%d, %d): %v", cur, dst, err)
		}
		cur = nxt
	}
	return hops
}

// TestAlgebraicRouterStats pins the cache telemetry to the source-route
// discipline: walking one packet end to end costs exactly one miss (the
// source derivation) and one hit per carried hop, and consumes its cache
// entries completely.
func TestAlgebraicRouterStats(t *testing.T) {
	net := superip.HSN(3, superip.NucleusHypercube(2)).SymmetricVariant()
	r, err := NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	imp, err := NewImplicit(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	if rs := r.RouterStats(); rs != (RouterStats{}) {
		t.Fatalf("fresh router has nonzero stats: %+v", rs)
	}

	// Pick a distant pair so the route carries a real suffix.
	src, dst := int64(0), imp.N()-1
	p, err := r.Path(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) < 4 {
		t.Fatalf("pair too close (%d hops) to exercise the cache", len(p)-1)
	}
	hops := walkNextHop(t, r, src, dst, 4*len(p))
	rs := r.RouterStats()
	if rs.CacheMisses != 1 {
		t.Fatalf("one packet re-sourced %d times, want 1: %+v", rs.CacheMisses, rs)
	}
	if rs.CacheHits != uint64(hops-1) {
		t.Fatalf("%d hops should score %d cache hits, got %+v", hops, hops-1, rs)
	}
	if rs.CacheOccupancy != 0 {
		t.Fatalf("delivered packet left %d suffixes resident: %+v", rs.CacheOccupancy, rs)
	}
	if rs.CacheEvicted != 0 || rs.CacheClears != 0 {
		t.Fatalf("no safety valve should have tripped: %+v", rs)
	}
	if got := rs.CacheHitRate(); got <= 0 || got >= 1 {
		t.Fatalf("hit rate %v out of (0,1)", got)
	}

	// Delta isolates a second walk exactly.
	base := r.RouterStats()
	hops2 := walkNextHop(t, r, dst, src, 4*len(p))
	d := r.RouterStats().Delta(base)
	if d.CacheMisses != 1 || d.CacheHits != uint64(hops2-1) {
		t.Fatalf("Delta of second walk = %+v, want 1 miss / %d hits", d, hops2-1)
	}
}

// TestFaultAwareRouterStats checks the fault-repair telemetry: cutting the
// primary route forces reroutes whose conjugate/local-detour split
// partitions the total, whose depth histogram accounts every repair, and
// whose epoch purge (from mutating the fault set) surfaces as evictions.
func TestFaultAwareRouterStats(t *testing.T) {
	net := superip.HSN(3, superip.NucleusHypercube(2)).SymmetricVariant()
	inner, err := NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	imp, err := NewImplicit(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSet()
	fa := NewFaultAware(imp, inner, fs)

	src, dst := int64(0), imp.N()-1
	p, err := fa.Path(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the cache with one clean walk, then cut the primary's first
	// link: the epoch change must purge whatever is resident.
	walkNextHop(t, fa, src, dst, 4*len(p))
	if _, err := fa.NextHop(src, dst); err != nil { // leave suffixes resident
		t.Fatal(err)
	}
	if rs := fa.RouterStats(); rs.CacheOccupancy == 0 {
		t.Fatalf("expected resident suffixes before the fault: %+v", rs)
	}
	resident := fa.RouterStats().CacheOccupancy
	fs.FailLinkBoth(p[0], p[1])
	if _, err := fa.NextHop(src, dst); err != nil {
		t.Fatalf("rerouting around one cut link failed: %v", err)
	}
	rs := fa.RouterStats()
	if rs.EpochPurges != 1 {
		t.Fatalf("one FaultSet mutation should purge once, got %+v", rs)
	}
	if rs.CacheEvicted < uint64(resident) {
		t.Fatalf("purge evicted %d entries, %d were resident: %+v", rs.CacheEvicted, resident, rs)
	}
	if rs.Reroutes == 0 {
		t.Fatalf("cut primary produced no reroutes: %+v", rs)
	}
	if rs.ConjugateReroutes+rs.LocalDetourReroutes != rs.Reroutes {
		t.Fatalf("repair split %d + %d does not partition %d reroutes: %+v",
			rs.ConjugateReroutes, rs.LocalDetourReroutes, rs.Reroutes, rs)
	}
	var depth uint64
	for _, c := range rs.DetourDepth {
		depth += c
	}
	if depth != rs.Reroutes {
		t.Fatalf("depth histogram accounts %d repairs, want %d: %+v", depth, rs.Reroutes, rs)
	}
	if rs.DetourDepth[0] != rs.ConjugateReroutes {
		t.Fatalf("bucket 0 is the conjugate (zero-hop) class: %+v", rs)
	}
	if rs.LocalDetourReroutes == 0 && rs.DetourHops != 0 {
		t.Fatalf("detour hops without local detours: %+v", rs)
	}
}

// TestRouteStoreSharedByBothRouters drives Algebraic and a FaultAware over
// an empty FaultSet through one interleaved multi-packet NextHop schedule.
// Both routers keep in-flight routes in the same route store, so they must
// take identical hops and report identical store telemetry — including when
// two packets meet at one (node, destination) key mid-route: packet 1 is
// injected at the node packet 0 has just been sent to, bound for the same
// destination, so it takes over packet 0's stored route and packet 0
// re-sources.
func TestRouteStoreSharedByBothRouters(t *testing.T) {
	net := superip.HSN(3, superip.NucleusHypercube(2)).SymmetricVariant()
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

	n := imp.N()
	p, err := plain.Path(0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) < 4 {
		t.Fatalf("pair too close (%d hops) to share a key mid-route", len(p)-1)
	}
	type packet struct {
		at       int // schedule step the packet is injected on
		src, dst int64
	}
	packets := []packet{{0, 0, n - 1}, {1, p[1], n - 1}, {0, 5, n - 3}, {2, n / 2, 1}, {3, n - 1, 0}}

	// run advances every injected, undelivered packet one hop per step, in
	// packet order, and returns each packet's node sequence.
	run := func(r interface {
		NextHop(cur, dst int64) (int64, error)
	}) [][]int64 {
		walks := make([][]int64, len(packets))
		for step, live := 0, len(packets); live > 0; step++ {
			if step > 64*len(p) {
				t.Fatalf("schedule did not drain after %d steps", step)
			}
			for i, pk := range packets {
				if pk.at == step {
					walks[i] = []int64{pk.src}
				}
				if walks[i] == nil {
					continue
				}
				cur := walks[i][len(walks[i])-1]
				if cur == pk.dst {
					continue
				}
				nxt, err := r.NextHop(cur, pk.dst)
				if err != nil {
					t.Fatalf("packet %d: NextHop(%d, %d): %v", i, cur, pk.dst, err)
				}
				walks[i] = append(walks[i], nxt)
				if nxt == pk.dst {
					live--
				}
			}
		}
		return walks
	}
	want, got := run(plain), run(fa)
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("packet %d: Algebraic took %v, FaultAware %v", i, want[i], got[i])
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("packet %d: Algebraic took %v, FaultAware %v", i, want[i], got[i])
			}
		}
	}
	a, f := plain.RouterStats(), fa.RouterStats()
	if a.CacheHits != f.CacheHits || a.CacheMisses != f.CacheMisses || a.CacheEvicted != f.CacheEvicted ||
		a.CacheClears != f.CacheClears || a.CacheOccupancy != f.CacheOccupancy {
		t.Fatalf("store telemetry differs:\nAlgebraic  %+v\nFaultAware %+v", a, f)
	}
	// Each packet sources once; packet 0's route was taken over by packet
	// 1, so at least one mid-route re-source must show.
	if a.CacheMisses <= uint64(len(packets)) {
		t.Fatalf("%d misses for %d packets: the schedule never shared a key: %+v",
			a.CacheMisses, len(packets), a)
	}
}
