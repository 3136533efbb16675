package netsim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/topo"
)

// Topology is the neighbor oracle the implicit simulators consume
// (topo.Implicit, topo.Materialized, topo.HypercubeTopo, ...).
type Topology = topo.Topology

// Router is the per-hop routing oracle the implicit simulators consume
// (topo.Algebraic, topo.FaultAware, topo.HypercubeRouter, ...).
type Router = topo.Router

// ImplicitConfig parameterizes a run on any topology. The simulator
// allocates no per-node arrays, so its own footprint scales with the
// number of in-flight packets and busy links, not with N; what the
// topology and router keep is theirs. An implicit topology with an
// algebraic router (topo.Implicit + topo.Algebraic, O(1) state per node)
// runs super-IP instances 10x and more beyond the largest materializable
// graph. A built graph runs as topo.NewMaterialized(g) routed by
// topo.NewBFSRouter, whose per-destination tables are O(N) each; its
// callers pass MaxHops: 8·N, since a built graph's diameter can exceed the
// 4096 default.
type ImplicitConfig struct {
	// Topo answers neighbor queries; Router supplies next hops. Router is
	// mandatory: the simulator has no routing of its own.
	Topo   Topology
	Router Router
	// InjectionRate is the probability per node per cycle of injecting a
	// packet, independently of every other node, at any N (see
	// injectionSampler).
	InjectionRate float64
	// WarmupCycles are simulated but packets injected during them are not
	// measured. MeasureCycles follow; then the run drains in-flight
	// measured packets for up to DrainCycles (default 10 times warm-up
	// plus measurement).
	WarmupCycles, MeasureCycles, DrainCycles int
	// Seed makes runs deterministic.
	Seed int64
	// Flits is the message length in flits (default 1). A link transmitting
	// a message stays busy for Flits * period cycles. CutThrough lets the
	// head flit proceed to the next node after one link period while the
	// tail still occupies the link (cut-through / wormhole-style
	// pipelining); without it a message is forwarded store-and-forward,
	// whole.
	Flits      int
	CutThrough bool
	// OffModulePeriod is the service time of links crossing module
	// boundaries as decided by ModuleOf; links inside a module (and all
	// links when ModuleOf is nil) have period 1.
	OffModulePeriod int
	// ModuleOf maps a node to its module id (e.g. topo.Implicit.Module of
	// the nucleus-per-module packing, or metrics.Partition.Module of a
	// built graph's partition). Nil means one module.
	ModuleOf func(u int64) int64
	// Pattern picks the destination for a packet injected at src (nil =
	// uniform random over the other nodes; see Transpose, BitComplement,
	// Hotspot). Returning src skips the injection (patterns with fixed
	// pairings do this).
	Pattern func(src int64, n int64, rng *rand.Rand) int64
	// MaxHops aborts the run with an error if any packet exceeds it
	// (default 4096): algebraic routers are deterministic oracles, and a
	// buggy one could otherwise cycle a packet forever. A degraded run
	// drops the packet instead (see RunImplicitFaulty).
	MaxHops int
	// Script injects the listed packets at their scheduled cycles, after
	// that cycle's random injections (a copy is stably sorted by At, so
	// same-cycle order is preserved). Scripted injections consume no
	// randomness — adding a script leaves the random traffic stream
	// bit-for-bit untouched — and are counted in the stats like any other
	// injection (measured iff At >= WarmupCycles). Every At must lie in
	// [0, WarmupCycles+MeasureCycles). This is how a collective schedule
	// (e.g. the sends of a collectives broadcast tree) is replayed through
	// the simulator, typically with InjectionRate 0 against an idle
	// network or a positive rate for background load.
	Script []Injection
	// Probe observes the run (see internal/obs). Nil (the default) is the
	// fast path: no obs code runs and the stats are bit-for-bit identical
	// to an unprobed run — probes watch the simulation, they never steer
	// it. Event semantics are documented in the obs package ("Probe
	// semantics across the simulator's runs").
	Probe obs.Probe
}

// routerStatser is the optional router extension exposing the cumulative
// RouterStats telemetry snapshot; topo.Algebraic, topo.FaultAware and
// topo.BFSRouter implement it. The simulators snapshot it around a run and
// report the delta in ImplicitFaultStats.Router.
type routerStatser interface {
	RouterStats() obs.RouterStats
}

// ImplicitFaultStats is the result of every run, fault-free or degraded:
// each count is recorded once (fault counters stay zero on a fault-free
// run), and nothing in it depends on the run's Probe. The struct is
// comparable (fixed-size fields only), so determinism tests can compare
// whole results with ==.
type ImplicitFaultStats struct {
	// Injected counts measured packets (injected during the measurement
	// window); Delivered counts those that reached their destination before
	// the drain deadline.
	Injected, Delivered int
	// Expired counts measured packets still in flight when the drain
	// deadline hit. Every run obeys Injected == Delivered + Lost + Expired.
	Expired int
	// AvgLatency is the mean delivery latency (cycles) of measured packets.
	AvgLatency float64
	// MaxLatency is the worst delivery latency observed.
	MaxLatency int
	// Throughput is delivered measured packets per node per cycle.
	Throughput float64
	// Lost counts measured packets dropped before the drain deadline, for
	// whatever reason (no route, hop limit, dead router, killed queue), on
	// every run kind. It never overlaps Expired. A run with no plan loses
	// nothing.
	Lost int
	// FaultsInjected and FaultsRepaired count fault events applied and
	// healed during the run.
	FaultsInjected, FaultsRepaired int
	// DeliveredDegraded counts measured packets that were delivered over a
	// route that deviated from the primary algebraic route because of
	// faults (with a fault-aware router only).
	DeliveredDegraded int
	// HopLimitDrops counts measured packets dropped by the hop watchdog
	// (MaxHops), a subset of Lost.
	HopLimitDrops int
	// Router holds the route-store and fault-repair counters the run's
	// Router accumulated during this run (post-run snapshot minus pre-run
	// snapshot; occupancy is the post-run absolute value): among them
	// Reroutes, the route repairs (a topo.BFSRouter's table rebuilds after
	// a fault or repair, a topo.FaultAware's repaired routes), and
	// DetourHops, a fault-aware router's exploratory local-detour hops.
	// Zero when the Router does not expose RouterStats.
	Router obs.RouterStats
}

// Injection is one scripted packet injection; see ImplicitConfig.Script.
type Injection struct {
	At  int   // cycle to inject on, in [0, WarmupCycles+MeasureCycles)
	Src int64 // source node
	Dst int64 // destination node, != Src
}

// normalize checks what the lane runner cannot see (the Topo and Router
// themselves and the script) and sorts a copy of the script; the lane
// runner checks and defaults the rest.
func (cfg *ImplicitConfig) normalize() error {
	if cfg.Topo == nil || cfg.Topo.N() < 2 {
		return fmt.Errorf("netsim: need a topology with at least 2 nodes")
	}
	if cfg.Router == nil {
		return fmt.Errorf("netsim: implicit runs need a Router (no table fallback)")
	}
	n := cfg.Topo.N()
	for i, sc := range cfg.Script {
		if sc.At < 0 || sc.At >= cfg.WarmupCycles+cfg.MeasureCycles {
			return fmt.Errorf("netsim: scripted injection %d at cycle %d outside [0,%d)",
				i, sc.At, cfg.WarmupCycles+cfg.MeasureCycles)
		}
		if sc.Src < 0 || sc.Src >= n || sc.Dst < 0 || sc.Dst >= n || sc.Src == sc.Dst {
			return fmt.Errorf("netsim: scripted injection %d: invalid pair %d -> %d", i, sc.Src, sc.Dst)
		}
	}
	// Sort a copy: the caller owns the slice, and concurrent runs may share it.
	script := append([]Injection(nil), cfg.Script...)
	sort.SliceStable(script, func(i, j int) bool { return script[i].At < script[j].At })
	cfg.Script = script
	return nil
}

// RunImplicit executes the simulation fault-free. Link FIFOs and the
// future-arrival ring are allocated on demand and reclaimed when idle, and
// next hops come from cfg.Router, so with a per-node-O(1) router total
// memory is proportional to the in-flight packet population — independent
// of N. Runs are deterministic in the configuration (including Seed) and
// unperturbed by cfg.Probe. It is RunImplicitFaulty without a fault plan.
// A built graph runs here with its table router (see ImplicitConfig); a
// built super-IP graph also runs with topo.NewAlgebraic, once its nodes are
// numbered in rank order (node id = core.Ranker.Rank of its label).
func RunImplicit(cfg ImplicitConfig) (ImplicitFaultStats, error) {
	return RunImplicitFaulty(cfg, ImplicitFaultConfig{})
}
