// Fault-tolerant operation: RunFaulty executes the packet simulator while a
// FaultPlan kills (and possibly heals) links and nodes mid-run. Built graphs
// route by per-destination BFS next-hop tables (topo.BFSRouter over the
// lane's topo.FaultSet, one hop per node: the BFS-tree parent), like any
// lane router: a table is rebuilt against the surviving topology on the
// first packet that needs it after the fault set changed, with the same
// builder and tie-break as the fault-free tables. Fault notification is
// immediate, as on implicit runs: the fault set is the topology's
// liveness. A packet whose destination is dead or cut off from it has no
// table hop and is dropped as no-route.
//
// There is no recovery protocol: a dropped packet is lost, and a hop-count
// watchdog drops livelocked packets, exactly as on implicit and sharded
// runs. Every measured packet ends Delivered, Lost (dropped) or Expired
// (still in flight at the drain deadline), so Injected = Delivered + Lost +
// Expired, and each packet has one id, one Inject event and at most one
// Deliver or Drop.
//
// The plan itself comes from the generator and check every topology uses:
// RandomFaults.PlanTopo over topo.NewMaterialized(g), or a hand-built plan,
// validated by ValidateTopo when the lane runner starts.
//
// The degraded-mode statistics (FaultStats) extend the fault-free Stats with
// loss and table-rebuild counters, plus the latency inflation against a
// fault-free baseline.
//
// The fault phases exist only in a degraded run (the engine's
// degraded-mode rule: the plan is non-empty). A run that is not degraded is
// Run: its router has no fault set, it runs no fault phase, and Lost is 0.
//
// RunFaulty is a single-lane run of the lane runner (sharded.go), like
// every other entry point; only its lane factory (builtRun) is its own.
package netsim

import (
	"math/rand"

	"repro/internal/topo"
)

// FaultStats extends Stats with degraded-mode counters.
type FaultStats struct {
	Stats
	// Lost counts measured packets dropped before the drain deadline, for
	// whatever reason (no route, hop limit, dead router, killed queue), on
	// every run kind. It never overlaps Expired, so Injected ==
	// Delivered + Lost + Expired on every run. A run with no plan loses
	// nothing.
	Lost int
	// MisroutedHops counts the exploratory local-detour hops of a
	// fault-aware router (the run delta of RouterStats.DetourHops); table
	// routers take none.
	MisroutedHops int
	// RerouteEvents counts route repairs, the run delta of the router's
	// RouterStats.Reroutes: on a built graph, the rebuilds of a
	// per-destination table after a fault or repair; on an implicit run,
	// the routes a fault-aware router had to repair.
	RerouteEvents int
	// FaultsInjected and FaultsRepaired count fault events applied and
	// healed during the run.
	FaultsInjected, FaultsRepaired int
	// LatencyInflation is AvgLatency divided by the fault-free baseline
	// latency; it is only filled in by RunFaultyWithBaseline (0 otherwise).
	LatencyInflation float64
	// DeliveredDegraded counts measured packets that were delivered over a
	// route that deviated from the primary algebraic route because of
	// faults (RunImplicitFaulty with a fault-aware router only).
	DeliveredDegraded int
	// HopLimitDrops counts measured packets dropped by the hop watchdog
	// (MaxHops; 8·N on a built graph), a subset of Lost.
	HopLimitDrops int
}

// RunFaulty executes the simulation under cfg while applying plan, as a
// single-lane run of the lane runner. Run is RunFaulty with an empty plan.
// The run follows the engine's degraded-mode rule, so with a nil or empty
// plan it is not degraded and none of the fault machinery exists. In a
// degraded run a packet that cannot be forwarded (its destination dead or
// cut off) is dropped and counted in Lost, as on every run. The hop
// watchdog allows 8·N hops; a packet exceeding it aborts a run that is not
// degraded and is dropped (Lost and HopLimitDrops) in a degraded one. Like every run, it ends at the first
// cycle after injection stops with no measured packet in flight and the
// plan's last event past, or at the drain deadline.
func RunFaulty(cfg Config, plan *FaultPlan) (FaultStats, error) {
	if err := cfg.normalize(); err != nil {
		return FaultStats{}, err
	}
	return runBuilt(cfg, plan)
}

// runBuilt runs a normalized configuration on its built graph.
func runBuilt(cfg Config, plan *FaultPlan) (FaultStats, error) {
	st, err := runLanes(builtRun(cfg, plan))
	return st.FaultStats, err
}

// builtRun returns the lane-runner arguments of a normalized built-graph
// configuration: one lane over topo.NewMaterialized, routed by a
// topo.BFSRouter over the lane's fault set, and the Partition's module
// rule.
func builtRun(cfg Config, plan *FaultPlan) (ShardedConfig, runOpts) {
	g := cfg.Graph
	t := topo.NewMaterialized(g)
	degraded := plan.Len() > 0
	pattern := cfg.Pattern
	var moduleOf func(int64) int64
	if part := cfg.Partition; part != nil {
		moduleOf = func(u int64) int64 { return int64(part.Of[u]) }
	}
	return ShardedConfig{
		NewLane: func() (Topology, Router, FaultSink, error) {
			var fs FaultSink
			if degraded {
				fs = topo.NewFaultSet()
			}
			return t, topo.NewBFSRouter(t, fs), fs, nil
		},
		InjectionRate:   cfg.InjectionRate,
		WarmupCycles:    cfg.WarmupCycles,
		MeasureCycles:   cfg.MeasureCycles,
		DrainCycles:     cfg.DrainCycles,
		Seed:            cfg.Seed,
		Flits:           cfg.Flits,
		CutThrough:      cfg.CutThrough,
		OffModulePeriod: cfg.OffModulePeriod,
		MaxHops:         8 * g.N(),
		Lanes:           1,
		Plan:            plan,
		Pattern: func(src, n int64, rng *rand.Rand) int64 {
			return int64(pattern(int32(src), int(n), rng))
		},
		Probe: cfg.Probe,
	}, runOpts{moduleOf: moduleOf}
}

// RunFaultyWithBaseline runs cfg under plan (RunFaulty) and fault-free
// (Run), and returns the degraded stats with LatencyInflation filled in as
// faulty/baseline average latency, plus the baseline itself. Both runs
// share one normalized configuration. The faulty run goes first, so an
// invalid plan fails in its lane runner before the baseline runs; the
// baseline is the same run with the plan removed.
func RunFaultyWithBaseline(cfg Config, plan *FaultPlan) (FaultStats, Stats, error) {
	if err := cfg.normalize(); err != nil {
		return FaultStats{}, Stats{}, err
	}
	faulty, err := runBuilt(cfg, plan)
	if err != nil {
		return FaultStats{}, Stats{}, err
	}
	// The baseline is a reference run: detach any probe so collectors see
	// only the faulty run's traffic.
	baseCfg := cfg
	baseCfg.Probe = nil
	base, err := runBuilt(baseCfg, nil)
	if err != nil {
		return FaultStats{}, Stats{}, err
	}
	if base.AvgLatency > 0 {
		faulty.LatencyInflation = faulty.AvgLatency / base.AvgLatency
	}
	return faulty, base.Stats, nil
}
