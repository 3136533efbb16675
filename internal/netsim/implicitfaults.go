// Degraded-mode simulation over implicit topologies: RunImplicitFaulty is
// the marriage of RunImplicit (per-node-O(1) memory, never materializes the
// graph) and RunFaulty (scheduled link/node failures and repairs mid-run).
// Where RunFaulty repairs routes by rebuilding O(N) BFS tables, the implicit
// simulator owns no tables at all: it shares a FaultSink (topo.FaultSet)
// with a fault-aware algebraic router, applies the FaultPlan to it as the
// clock passes each event, and lets the router's generator-conjugate detours
// absorb the failures in O(route length) work per affected packet. Fault
// notification is immediate — the fault set IS the topology's liveness, and
// the router's epoch check purges stale cached routes the moment it changes
// — so there is no NotifyDelay. A packet that cannot be rerouted
// (destination dead, region disconnected, or hop budget exhausted) is
// dropped and counted in Lost, by the loss rule every run follows.
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
	// validated against the implicit topology (ValidateTopo) — no graph is
	// ever built.
	Plan *FaultPlan
	// Faults is the liveness store the plan is applied to. It MUST be the
	// same object the fault-aware router consults (e.g. the topo.FaultSet a
	// topo.FaultAware was constructed with), otherwise packets keep routing
	// into dead components. Required whenever Plan is non-empty.
	Faults FaultSink
}

// RunImplicitFaulty executes the implicit-topology simulation under fc.Plan
// as a single-lane run of the lane runner behind RunSharded. With a
// nil/empty plan it is RunImplicit: the same RNG stream and the same Stats.
// Runs are deterministic in the configuration: fault application, algebraic
// rerouting, and packet drops consume no randomness.
//
// The run follows the engine's degraded-mode rule (degraded iff the plan is
// non-empty). A degraded run, mirroring RunFaulty where both have the
// concept:
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
