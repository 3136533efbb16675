package main

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/topo"
)

// metric is one reported metric, named and unit-tagged as in BENCHMARK.json.
type metric struct{ name, unit string }

// endToEnd is what an untraced run (-trace 0) reports on every workload. An
// op is a route, a delivered measured packet, or a built node.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"peak_mem_mib", "MiB"},
}

// perLayer is what a traced run (-trace 1) reports on every workload; a
// layer the workload does not run reads 0. Shares are fractions of the
// traced run's wall time.
var perLayer = []metric{
	{"core.ranker.unrank_per_op", "count"},
	{"core.ranker.rank_per_op", "count"},
	{"core.ranker.share", "frac"},
	{"core.router.route_per_op", "count"},
	{"core.router.hops_per_route", "hops"},
	{"core.router.share", "frac"},
	{"topo.router.nexthop_per_pkt", "count"},
	{"topo.router.share", "frac"},
	{"topo.router.cache_hit_ratio", "frac"},
	{"topo.router.resource_per_pkt", "count"},
	{"topo.router.cache_resident_end", "count"},
	{"topo.router.evicted_per_pkt", "count"},
	{"topo.router.epoch_purges", "count"},
	{"topo.router.reroutes_per_pkt", "count"},
	{"topo.implicit.nbrs_per_hop", "count"},
	{"topo.implicit.share", "frac"},
	{"netsim.engine.share", "frac"},
	{"netsim.sharded.speedup_2v1", "x"},
	{"netsim.sharded.engine_cost_1v_seq", "x"},
	{"netsim.sharded.lane_busy_imbalance", "x"},
	{"core.build.expand_share", "frac"},
	{"core.build.dedup_share", "frac"},
	{"core.build.assign_share", "frac"},
	{"core.build.publish_share", "frac"},
	{"core.build.finish_share", "frac"},
	{"core.build.arena_mib", "MiB"},
	{"core.build.levels", "count"},
	{"runtime.gc_cpu_share", "frac"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"trace.overhead_frac", "frac"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stackLayers converts a traced run's tracer totals into the ranker, router,
// neighbor and engine metrics. With engine set, the wall time no wrapped
// call covers is the engine's self time.
func stackLayers(tr *tracer, wall time.Duration, ops int64, engine bool) map[string]float64 {
	w := float64(wall.Nanoseconds())
	per := func(c int64) float64 { return ratio(float64(c), float64(ops)) }
	share := func(ns int64) float64 { return float64(ns) / w }
	m := map[string]float64{
		"core.ranker.unrank_per_op":   per(tr.calls[layerUnrank]),
		"core.ranker.rank_per_op":     per(tr.calls[layerRank]),
		"core.ranker.share":           share(tr.selfNs[layerUnrank] + tr.selfNs[layerRank]),
		"core.router.route_per_op":    per(tr.routes),
		"core.router.hops_per_route":  ratio(float64(tr.calls[layerNextHop]), float64(tr.routes)),
		"core.router.share":           share(tr.selfNs[layerRoute]),
		"topo.router.nexthop_per_pkt": per(tr.calls[layerNextHop]),
		"topo.router.share":           share(tr.selfNs[layerNextHop]),
		"topo.implicit.nbrs_per_hop":  ratio(float64(tr.calls[layerNbrs]), float64(tr.calls[layerNextHop])),
		"topo.implicit.share":         share(tr.selfNs[layerNbrs]),
	}
	if engine {
		m["netsim.engine.share"] = share(wall.Nanoseconds() - tr.busyNs())
	}
	return m
}

// addRouterStats adds the counts the router's public RouterStats snapshot
// reports for a simulated run with ops delivered packets.
func addRouterStats(m map[string]float64, rs topo.RouterStats, ops int64) {
	per := func(c uint64) float64 { return ratio(float64(c), float64(ops)) }
	m["topo.router.cache_hit_ratio"] = ratio(float64(rs.CacheHits), float64(rs.CacheHits+rs.CacheMisses))
	m["topo.router.resource_per_pkt"] = per(rs.CacheMisses)
	m["topo.router.cache_resident_end"] = float64(rs.CacheOccupancy)
	m["topo.router.evicted_per_pkt"] = per(rs.CacheEvicted)
	m["topo.router.epoch_purges"] = float64(rs.EpochPurges)
	m["topo.router.reroutes_per_pkt"] = per(rs.Reroutes)
}

// engineNsPerHop is the engine's self time per routed hop of a traced run.
func engineNsPerHop(tr *tracer, wall time.Duration) float64 {
	return ratio(float64(wall.Nanoseconds()-tr.busyNs()), float64(tr.calls[layerNextHop]))
}

// buildLayers converts the builder's per-level LevelStats stream into phase
// shares of the build's wall time. Finishing the CSR graph after the last
// level is the remainder.
func buildLayers(levels []core.LevelStats, wall time.Duration) map[string]float64 {
	var expand, dedup, assign, publish time.Duration
	for _, ls := range levels {
		expand += ls.Expand
		dedup += ls.Dedup
		assign += ls.Assign
		publish += ls.Publish
	}
	w := float64(wall)
	m := map[string]float64{
		"core.build.expand_share":  float64(expand) / w,
		"core.build.dedup_share":   float64(dedup) / w,
		"core.build.assign_share":  float64(assign) / w,
		"core.build.publish_share": float64(publish) / w,
		"core.build.finish_share":  float64(wall-expand-dedup-assign-publish) / w,
		"core.build.levels":        float64(len(levels)),
	}
	if len(levels) > 0 {
		m["core.build.arena_mib"] = float64(levels[len(levels)-1].InternArenaBytes) / (1 << 20)
	}
	return m
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
