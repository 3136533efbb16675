// Degraded-mode simulation: RunImplicitFaulty runs the simulator while a
// FaultPlan kills (and possibly heals) links and nodes mid-run, on any
// topology. It shares a FaultSink (topo.FaultSet) with its router and
// applies the plan to it as the clock passes each event; fault
// notification is immediate, since the fault set IS the topology's
// liveness, and the router's epoch check discards stale routes the moment
// it changes. A built graph's table router (topo.BFSRouter) rebuilds a
// destination's O(N) BFS table against the surviving topology on the
// first packet that needs it after a change, with the builder and
// tie-break of the fault-free tables. An implicit topology's fault-aware
// algebraic router (topo.FaultAware) owns no tables at all: its
// generator-conjugate detours absorb the failures in O(route length) work
// per affected packet. A packet that cannot be routed (destination dead or
// cut off, or hop budget exhausted) is dropped and counted in Lost, by the
// loss rule every run follows: there is no recovery protocol, and Injected
// = Delivered + Lost + Expired on every run.
//
// Every plan comes from the generator and check every topology uses:
// RandomFaults.PlanTopo (a built graph through topo.NewMaterialized) or a
// hand-built plan, validated by ValidateTopo when the lane runner starts.
//
// This file holds the fault-side contracts and the RunImplicitFaulty
// adapter; the engine wiring is the lane runner (sharded.go).
package netsim

import (
	"fmt"

	"repro/internal/topo"
)

// FaultSink is the id-space liveness store shared between the simulator
// and a fault-aware router: a *topo.FaultSet. Link mutations are directed
// arcs; the simulator calls both directions on undirected topologies.
type FaultSink = *topo.FaultSet

// flaggedRouter is the optional router extension that reports whether a hop
// belongs to a fault-detoured route; topo.FaultAware implements it. Without
// it, DeliveredDegraded stays zero.
type flaggedRouter interface {
	NextHopFlagged(cur, dst int64) (int64, bool, error)
}

// ImplicitFaultConfig parameterizes fault injection for RunImplicitFaulty.
type ImplicitFaultConfig struct {
	// Plan is the fault schedule (nil or empty = fault-free run). It is
	// validated against the run's topology (ValidateTopo).
	Plan *FaultPlan
	// Faults is the liveness store the plan is applied to. It MUST be the
	// same object the router consults (the topo.FaultSet a topo.FaultAware
	// or topo.BFSRouter was constructed with), otherwise packets keep
	// routing into dead components. Required whenever Plan is non-empty.
	Faults FaultSink
}

// RunImplicitFaulty executes the simulation under fc.Plan as a single-lane
// run of the lane runner behind RunSharded. With a nil/empty plan it is
// RunImplicit: the same RNG stream and the same result. Runs are
// deterministic in the configuration: fault application, rerouting, and
// packet drops consume no randomness.
//
// The run follows the engine's degraded-mode rule (degraded iff the plan is
// non-empty). A degraded run:
//   - applies scheduled faults (and repairs) when the clock reaches their
//     cycle: link faults kill the arc (both arcs when the topology is
//     undirected), node faults kill the node and drop everything queued on
//     its outgoing links;
//   - loses a packet arriving at a dead node;
//   - re-routes a packet stranded on a link that just died from the link's
//     tail through the (fault-aware) router;
//   - keeps dead sources silent and skips dead destinations at injection
//     (the draws still happen, keeping the RNG stream aligned); scripted
//     sends obey the same rule;
//   - drops and counts (HopLimitDrops + Lost) a packet exceeding
//     ImplicitConfig.MaxHops: under faults, livelock-like trajectories are
//     a property of the fault pattern, not necessarily a router bug;
//   - drops and counts (Lost) a packet its router cannot route (destination
//     dead or region disconnected).
//
// A run that is not degraded runs none of the fault phases and aborts
// with an error on either of the last two: without faults, a router that
// cycles or fails is broken. In both modes the router is asked through
// NextHopFlagged when it implements it, so DeliveredDegraded counts
// deliveries that took a fault detour.
func RunImplicitFaulty(cfg ImplicitConfig, fc ImplicitFaultConfig) (ImplicitFaultStats, error) {
	if err := cfg.normalize(); err != nil {
		return ImplicitFaultStats{}, err
	}
	if fc.Plan.Len() > 0 && fc.Faults == nil {
		return ImplicitFaultStats{}, fmt.Errorf("netsim: a fault plan needs a FaultSink shared with the router")
	}
	return runLanes(ShardedConfig{
		NewLane: func() (Topology, Router, FaultSink, error) {
			return cfg.Topo, cfg.Router, fc.Faults, nil
		},
		InjectionRate:   cfg.InjectionRate,
		WarmupCycles:    cfg.WarmupCycles,
		MeasureCycles:   cfg.MeasureCycles,
		DrainCycles:     cfg.DrainCycles,
		Seed:            cfg.Seed,
		Flits:           cfg.Flits,
		CutThrough:      cfg.CutThrough,
		OffModulePeriod: cfg.OffModulePeriod,
		MaxHops:         cfg.MaxHops,
		Lanes:           1,
		Plan:            fc.Plan,
		Pattern:         cfg.Pattern,
		Probe:           cfg.Probe,
	}, runOpts{moduleOf: cfg.ModuleOf, script: cfg.Script})
}
