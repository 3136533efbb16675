// RouterStats is the router-observability snapshot of the algebraic stack:
// the suffix-cache and detour telemetry that topo.Algebraic and
// topo.FaultAware accumulate while routing. It lives in obs (the
// dependency-free leaf of the observability layer) so that topo can expose
// it and netsim/cmd tooling can report it without an import cycle;
// internal/topo aliases it as topo.RouterStats.
package obs

import (
	"fmt"
	"io"
)

// RouterStats is a cumulative snapshot of an algebraic router's internal
// counters. All fields are plain values (the detour-depth histogram is a
// fixed array), so two snapshots can be compared with == and subtracted
// with Delta — the simulators snapshot the router before and after a run
// and report the difference.
type RouterStats struct {
	// CacheHits / CacheMisses count NextHop calls answered from the
	// source-route suffix cache vs. ones that had to derive a route. A miss
	// is normal at a packet's first hop; mid-flight misses are re-sourced
	// routes (see CacheEvicted).
	CacheHits   uint64
	CacheMisses uint64
	// CacheEvicted counts in-flight route suffixes orphaned by a cache
	// clear (safety valve) or fault-epoch purge. Each orphaned entry is a
	// re-source fallback: the affected packet re-derives its route from its
	// current position on its next hop.
	CacheEvicted uint64
	// CacheClears counts safety-valve trips (the whole cache dropped
	// because it exceeded its size bound).
	CacheClears uint64
	// CacheOccupancy is the number of suffixes currently cached — an
	// absolute gauge (the in-flight population), not a cumulative counter;
	// Delta keeps the newer value.
	CacheOccupancy int
	// EpochPurges counts fault-epoch changes that invalidated the cache
	// (FaultAware only: the FaultSet changed since routes were verified).
	EpochPurges uint64
	// Reroutes counts route derivations whose primary algebraic route
	// crossed a fault and had to be repaired. The simulators report its run
	// delta as FaultStats.RerouteEvents.
	Reroutes uint64
	// ConjugateReroutes counts repairs answered purely algebraically — a
	// generator-conjugate candidate was live, zero exploratory hops spent.
	ConjugateReroutes uint64
	// LocalDetourReroutes counts repairs that exhausted every conjugate
	// candidate and fell back to the bounded TTL-local detour walk.
	LocalDetourReroutes uint64
	// DetourHops is the total number of exploratory local-detour hops spent
	// across all repairs. The simulators report its run delta as
	// FaultStats.MisroutedHops.
	DetourHops uint64
	// DetourDepth histograms the exploratory hops spent per repair in log2
	// buckets: bucket 0 holds conjugate repairs (0 hops), bucket b>0 holds
	// repairs that spent [2^(b-1), 2^b-1] hops, and the last bucket absorbs
	// everything deeper.
	DetourDepth [8]uint64
}

// Delta returns the counters accumulated since base (s minus base,
// field-wise). CacheOccupancy is a gauge, not a counter, so the newer
// absolute value is kept.
func (s RouterStats) Delta(base RouterStats) RouterStats {
	d := RouterStats{
		CacheHits:           s.CacheHits - base.CacheHits,
		CacheMisses:         s.CacheMisses - base.CacheMisses,
		CacheEvicted:        s.CacheEvicted - base.CacheEvicted,
		CacheClears:         s.CacheClears - base.CacheClears,
		CacheOccupancy:      s.CacheOccupancy,
		EpochPurges:         s.EpochPurges - base.EpochPurges,
		Reroutes:            s.Reroutes - base.Reroutes,
		ConjugateReroutes:   s.ConjugateReroutes - base.ConjugateReroutes,
		LocalDetourReroutes: s.LocalDetourReroutes - base.LocalDetourReroutes,
		DetourHops:          s.DetourHops - base.DetourHops,
	}
	for i := range s.DetourDepth {
		d.DetourDepth[i] = s.DetourDepth[i] - base.DetourDepth[i]
	}
	return d
}

// Add returns the field-wise sum of two snapshots. The sharded simulator
// uses it to merge the per-lane router deltas into one run-level snapshot;
// CacheOccupancy, though a gauge, is summed too — each lane owns a separate
// router, so the sum is the total cached-suffix population of the run.
func (s RouterStats) Add(t RouterStats) RouterStats {
	a := RouterStats{
		CacheHits:           s.CacheHits + t.CacheHits,
		CacheMisses:         s.CacheMisses + t.CacheMisses,
		CacheEvicted:        s.CacheEvicted + t.CacheEvicted,
		CacheClears:         s.CacheClears + t.CacheClears,
		CacheOccupancy:      s.CacheOccupancy + t.CacheOccupancy,
		EpochPurges:         s.EpochPurges + t.EpochPurges,
		Reroutes:            s.Reroutes + t.Reroutes,
		ConjugateReroutes:   s.ConjugateReroutes + t.ConjugateReroutes,
		LocalDetourReroutes: s.LocalDetourReroutes + t.LocalDetourReroutes,
		DetourHops:          s.DetourHops + t.DetourHops,
	}
	for i := range s.DetourDepth {
		a.DetourDepth[i] = s.DetourDepth[i] + t.DetourDepth[i]
	}
	return a
}

// CacheHitRate returns hits / (hits + misses), or 0 with no lookups.
func (s RouterStats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// DetourDepthBounds returns the inclusive hop range covered by detour-depth
// bucket b (the last bucket is open-ended: hi = -1).
func DetourDepthBounds(b int) (lo, hi int) {
	switch {
	case b <= 0:
		return 0, 0
	case b >= len(RouterStats{}.DetourDepth)-1:
		return 1 << (b - 1), -1
	default:
		return 1 << (b - 1), 1<<b - 1
	}
}

// WriteText renders the snapshot as a short human-readable block: the cache
// line, and — when any repair happened — the reroute split and the
// detour-depth histogram.
func (s RouterStats) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"  route cache: %d hits / %d misses (%.1f%% hit rate), %d resident, %d evicted (%d clears, %d epoch purges)\n",
		s.CacheHits, s.CacheMisses, 100*s.CacheHitRate(),
		s.CacheOccupancy, s.CacheEvicted, s.CacheClears, s.EpochPurges); err != nil {
		return err
	}
	if s.Reroutes == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w,
		"  reroutes: %d (%d conjugate, %d local-detour), %d detour hops\n",
		s.Reroutes, s.ConjugateReroutes, s.LocalDetourReroutes, s.DetourHops); err != nil {
		return err
	}
	for b, c := range s.DetourDepth {
		if c == 0 {
			continue
		}
		lo, hi := DetourDepthBounds(b)
		rng := fmt.Sprintf("[%d,%d]", lo, hi)
		if hi < 0 {
			rng = fmt.Sprintf("[%d,+)", lo)
		} else if lo == hi {
			rng = fmt.Sprintf("[%d]", lo)
		}
		if _, err := fmt.Fprintf(w, "    detour depth %-8s %d\n", rng, c); err != nil {
			return err
		}
	}
	return nil
}
