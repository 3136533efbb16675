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
// (topo.Algebraic, topo.FaultAware, topo.Table, topo.HypercubeRouter, ...).
type Router = topo.Router

// ImplicitConfig parameterizes a simulation over an implicit topology: no
// per-node arrays are ever allocated, so the memory footprint scales with
// the number of in-flight packets and busy links, not with N. This is what
// lets the simulator run super-IP instances 10x and more beyond the largest
// materializable graph.
type ImplicitConfig struct {
	// Topo answers neighbor queries; Router supplies next hops. Both must be
	// per-node O(1) in memory (e.g. topo.Implicit + topo.Algebraic) for the
	// run to stay independent of N. Router is mandatory: there is no table
	// fallback, because BFS tables are exactly the O(N) state this simulator
	// exists to avoid.
	Topo   Topology
	Router Router
	// InjectionRate is the probability per node per cycle of injecting a
	// packet. Per-node Bernoulli draws are simulated exactly for small
	// networks and by a Poisson/normal approximation of the aggregate
	// injection count for large ones (see injectionCount).
	InjectionRate float64
	// WarmupCycles, MeasureCycles, DrainCycles as in Config.
	WarmupCycles, MeasureCycles, DrainCycles int
	// Seed makes runs deterministic.
	Seed int64
	// Flits and CutThrough as in Config.
	Flits      int
	CutThrough bool
	// OffModulePeriod is the service time of links crossing module
	// boundaries as decided by ModuleOf; links inside a module (and all
	// links when ModuleOf is nil) have period 1.
	OffModulePeriod int
	// ModuleOf maps a node to its module id (e.g. topo.Modular.Module of the
	// nucleus-per-module packing). Nil means one module.
	ModuleOf func(u int64) int64
	// Pattern picks the destination for a packet injected at src (nil =
	// uniform random over the other nodes). Returning src skips the
	// injection, as in PatternFunc.
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
	// it. Event semantics on the sparse simulators are documented in the
	// obs package ("Probe semantics on implicit runs").
	Probe obs.Probe
}

// routerStatser is the optional router extension exposing the cumulative
// RouterStats telemetry snapshot; topo.Algebraic and topo.FaultAware
// implement it. The simulators snapshot it around a run and report the
// delta in ImplicitFaultStats.Router.
type routerStatser interface {
	RouterStats() obs.RouterStats
}

// ImplicitFaultStats is the result of every implicit run: the shared
// FaultStats (fault counters stay zero on a fault-free run) plus the
// router-side telemetry. The struct is comparable (fixed-size fields only),
// so determinism tests can compare whole results with ==.
type ImplicitFaultStats struct {
	FaultStats
	// Router holds the route-store and fault-repair counters the run's
	// Router accumulated during this run (post-run snapshot minus pre-run
	// snapshot; occupancy is the post-run absolute value). Zero when the
	// Router does not expose RouterStats.
	Router obs.RouterStats
}

// Injection is one scripted packet injection; see ImplicitConfig.Script.
type Injection struct {
	At  int   // cycle to inject on, in [0, WarmupCycles+MeasureCycles)
	Src int64 // source node
	Dst int64 // destination node, != Src
}

func (cfg *ImplicitConfig) normalize() error {
	if cfg.Topo == nil || cfg.Topo.N() < 2 {
		return fmt.Errorf("netsim: need a topology with at least 2 nodes")
	}
	if cfg.Router == nil {
		return fmt.Errorf("netsim: implicit runs need a Router (no table fallback)")
	}
	if cfg.InjectionRate < 0 || cfg.InjectionRate > 1 {
		return fmt.Errorf("netsim: injection rate %v out of [0,1]", cfg.InjectionRate)
	}
	if cfg.OffModulePeriod < 1 {
		cfg.OffModulePeriod = 1
	}
	if cfg.DrainCycles == 0 {
		cfg.DrainCycles = 10 * (cfg.WarmupCycles + cfg.MeasureCycles)
	}
	if cfg.Flits < 1 {
		cfg.Flits = 1
	}
	if cfg.MaxHops < 1 {
		cfg.MaxHops = 4096
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

// RunImplicit executes the simulation against an implicit topology. It is
// the sparse, per-node-O(1) counterpart of Run: link FIFOs and the future-
// arrival ring are allocated on demand and reclaimed when idle, and next
// hops come from the algebraic Router, so total memory is proportional to
// the in-flight packet population — independent of N. Runs are deterministic
// in the configuration (including Seed) and unperturbed by cfg.Probe. It is
// RunImplicitFaulty without a fault plan. A built graph runs here too, as
// topo.NewMaterialized(g, ix) with a router such as topo.NewAlgebraicWith.
func RunImplicit(cfg ImplicitConfig) (ImplicitFaultStats, error) {
	return RunImplicitFaulty(cfg, ImplicitFaultConfig{})
}
