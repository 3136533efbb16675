// Fault-tolerant operation: RunFaulty executes the packet simulator while a
// FaultPlan kills (and possibly heals) links and nodes mid-run. Two layers
// keep traffic flowing, mirroring how real interconnects route around
// failures:
//
//  1. Fault-adaptive routing. Built graphs route only by per-destination
//     next-hop tables (route.BFSNextHops, one hop per node: the BFS-tree
//     parent). A table is rebuilt against the surviving topology when a
//     failure (or repair) notification arrives, with liveness predicates
//     but the same builder and tie-break as the fault-free tables;
//     notifications propagate after FaultConfig.NotifyDelay cycles, during
//     which packets route on stale tables.
//  2. Local detour. A packet whose tabled next hop is dead (stale table, or
//     no live minimal hop at all) misroutes to a random live neighbor,
//     spending one unit of a bounded detour TTL; when the TTL or all
//     neighbors are exhausted the packet is dropped.
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
// loss, misroute and reroute-latency counters, plus the latency inflation
// against a fault-free baseline.
//
// Both layers exist only in a degraded run (the engine's degraded-mode
// rule: the plan is non-empty). A run that is not degraded is Run: it
// builds its tables with nil liveness predicates and routes straight from
// them and runs no fault phase, so Lost is 0.
//
// RunFaulty is a single-lane run of the lane runner (sharded.go), like
// every other entry point. This file holds the one piece only built graphs
// plug into it: the BFS-table route hook (bfsRoutes).
package netsim

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/topo"
)

// FaultConfig parameterizes fault injection and the built-graph routing
// around faults.
type FaultConfig struct {
	// Plan is the fault schedule (nil or empty = fault-free run).
	Plan *FaultPlan
	// DetourTTL is the per-packet misroute budget: how many non-minimal
	// detour hops one packet may take around dead components. 0
	// selects the default (16); a negative value disables detours.
	DetourTTL int
	// NotifyDelay is how many cycles a topology change takes to reach the
	// routing layer; until then tables stay stale and packets rely on
	// detours. The rebuild itself uses the true current topology.
	NotifyDelay int
}

func (fc *FaultConfig) normalize() error {
	if fc.DetourTTL == 0 {
		fc.DetourTTL = 16
	} else if fc.DetourTTL < 0 {
		fc.DetourTTL = 0 // detours disabled
	}
	if fc.NotifyDelay < 0 {
		return fmt.Errorf("netsim: negative NotifyDelay %d", fc.NotifyDelay)
	}
	return nil
}

// FaultStats extends Stats with degraded-mode counters.
type FaultStats struct {
	Stats
	// Lost counts measured packets dropped before the drain deadline, for
	// whatever reason (detour TTL, no route, hop limit, dead router, killed
	// queue), on every run kind. It never overlaps Expired, so Injected ==
	// Delivered + Lost + Expired on every run. A run with no plan loses
	// nothing.
	Lost int
	// MisroutedHops counts detour hops taken because the tabled next hop
	// was dead or no minimal live hop existed.
	MisroutedHops int
	// RerouteEvents counts per-destination next-hop table rebuilds
	// triggered by fault/repair notifications.
	RerouteEvents int
	// MeanTimeToReroute is the mean number of cycles (simulator cycles,
	// the same unit as latencies and NotifyDelay) between a topology
	// change and the (lazy, notification-delayed) rebuild of a table that
	// change invalidated.
	MeanTimeToReroute float64
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

// bfsRoutes is the route hook of built graphs: per-destination next-hop
// tables (route.BFSNextHops), built lazily. In a degraded run (fs non-nil) a table is rebuilt
// against the surviving topology on the first packet that needs it after a
// topology change became visible, NotifyDelay cycles after it happened;
// until then packets route on the stale table, skipping dead hops, and fall
// back to a TTL-bounded detour to a random live neighbor. Every random
// choice draws from the lane RNG.
type bfsRoutes struct {
	g      *graph.Graph
	ln     *simLane
	tables []route.NextHopTable
	live   []int32 // scratch

	// fs is the lane's fault set (nil unless degraded). Routing reads a
	// copy of it, deadNode and the dead out-arcs of every node, retaken
	// whenever the set's epoch moves. nodeDead and linkDead are the
	// liveness predicates the rebuilt tables are built with. The set's own
	// reads take no lock, but a table rebuild tests every arc, and a short
	// slice scan per arc is cheaper than a snapshot map lookup per arc:
	// reading the set directly made BenchmarkRunFaultyQ6 slower in 7 of 8
	// alternating pairs (median +16 % ns/op, 2-vCPU x86 container).
	fs        *topo.FaultSet
	snapEpoch uint64
	deadNode  []bool
	deadOut   [][]int32
	nodeDead  func(int32) bool
	linkDead  func(u, v int32) bool

	// Epoch bookkeeping: epochCycle[e] is the cycle at which epoch e began
	// (one bump per cycle that changed the topology); visEpoch counts the
	// epochs whose changes have propagated; tableEpoch[dst] is the epoch
	// dst's table was built at.
	epochCycle          []int
	topoEpoch, visEpoch int
	tableEpoch          []int

	reroutes, misrouted int
	lagSum              int64
}

func newBFSRoutes(g *graph.Graph, ln *simLane) *bfsRoutes {
	n := g.N()
	b := &bfsRoutes{g: g, ln: ln, tables: make([]route.NextHopTable, n),
		epochCycle: []int{0}, tableEpoch: make([]int, n)}
	if b.fs = ln.faults; b.fs != nil {
		b.deadNode, b.deadOut = make([]bool, n), make([][]int32, n)
		b.nodeDead = func(v int32) bool { return b.deadNode[v] }
		b.linkDead = func(u, v int32) bool { return slices.Contains(b.deadOut[u], v) }
	}
	return b
}

// sync retakes the liveness copy if the fault set changed since.
func (b *bfsRoutes) sync() {
	if b.fs == nil || b.fs.Epoch() == b.snapEpoch {
		return
	}
	b.snapEpoch = b.fs.Epoch()
	for u := range b.deadNode {
		b.deadNode[u] = b.fs.NodeDown(int64(u))
		b.deadOut[u] = b.deadOut[u][:0]
		for _, v := range b.g.Neighbors(int32(u)) {
			if b.fs.LinkDown(int64(u), int64(v)) {
				b.deadOut[u] = append(b.deadOut[u], v)
			}
		}
	}
}

// advance records whether the topology changed this cycle and propagates
// the changes that are now NotifyDelay cycles old.
func (b *bfsRoutes) advance(now int, changed bool) {
	if changed {
		b.topoEpoch++
		b.epochCycle = append(b.epochCycle, now)
	}
	for b.visEpoch < b.topoEpoch && b.epochCycle[b.visEpoch+1]+b.ln.run.o.fc.NotifyDelay <= now {
		b.visEpoch++
	}
}

// freshen builds dst's table if it is missing or a visible topology change
// has invalidated it.
func (b *bfsRoutes) freshen(dst int32, now int) {
	built := b.tables[dst] != nil
	if built && b.tableEpoch[dst] >= b.visEpoch {
		return
	}
	if built {
		// The first change this table missed began epoch tableEpoch+1.
		b.reroutes++
		lag := now - b.epochCycle[b.tableEpoch[dst]+1]
		b.lagSum += int64(lag)
		if pb := b.ln.pb; pb != nil {
			pb.Reroute(now, int64(dst), lag)
		}
	}
	b.tables[dst] = route.BFSNextHops(b.g, dst, b.nodeDead, b.linkDead)
	b.tableEpoch[dst] = b.topoEpoch
}

// up reports whether a packet at u can be forwarded to v now.
func (b *bfsRoutes) up(u, v int32) bool {
	return b.fs == nil || !b.nodeDead(v) && !b.linkDead(u, v)
}

// next picks the forwarding hop for a packet at node at64: the (possibly
// stale) table's hop when it is live, else a detour. ok=false means the
// packet was dropped and counted lost.
func (b *bfsRoutes) next(now int, at64 int64, pkt *epacket) (int64, bool, error) {
	at, dst := int32(at64), int32(pkt.dst)
	b.sync()
	b.freshen(dst, now)
	if h := b.tables[dst][at]; h >= 0 && b.up(at, h) {
		return int64(h), true, nil
	}
	if b.fs == nil {
		return 0, false, fmt.Errorf("netsim: no route from %d to %d", at, dst)
	}
	// Detour: misroute to a random live neighbor.
	if pkt.ttl <= 0 {
		b.ln.lose(now, at64, pkt, obs.DropTTL)
		return 0, false, nil
	}
	live := b.live[:0]
	for _, v := range b.g.Neighbors(at) {
		if b.up(at, v) {
			live = append(live, v)
		}
	}
	b.live = live
	if len(live) == 0 {
		b.ln.lose(now, at64, pkt, obs.DropNoRoute)
		return 0, false, nil
	}
	pkt.ttl--
	b.misrouted++
	return int64(live[b.ln.rng.Intn(len(live))]), true, nil
}

// RunFaulty executes the simulation under cfg while applying fc.Plan, as a
// single-lane run of the lane runner. Run is RunFaulty with an empty plan.
// The run follows the engine's degraded-mode rule, so with a nil or empty
// plan it is not degraded and none of the fault machinery exists: no
// liveness, no detours, and fc's routing parameters have no effect. In a
// degraded run a packet that cannot be forwarded is dropped and counted in
// Lost, as on every run. The hop watchdog allows 8·N hops; a packet
// exceeding it aborts a run that is not degraded and is dropped (Lost and
// HopLimitDrops) in a degraded one. Like every run, it ends at the first
// cycle after injection stops with no measured packet in flight and the
// plan's last event past, or at the drain deadline.
func RunFaulty(cfg Config, fc FaultConfig) (FaultStats, error) {
	if err := cfg.normalize(); err != nil {
		return FaultStats{}, err
	}
	if err := fc.normalize(); err != nil {
		return FaultStats{}, err
	}
	return runBuilt(cfg, fc)
}

// runBuilt runs a normalized configuration on its built graph.
func runBuilt(cfg Config, fc FaultConfig) (FaultStats, error) {
	st, err := runLanes(builtRun(cfg, fc))
	return st.FaultStats, err
}

// builtRun returns the lane-runner arguments of a normalized built-graph
// configuration: one lane over topo.NewMaterialized, with the built-graph
// extras in runOpts.
func builtRun(cfg Config, fc FaultConfig) (ShardedConfig, runOpts) {
	g := cfg.Graph
	t := topo.NewMaterialized(g)
	degraded := fc.Plan.Len() > 0
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
			return t, nil, fs, nil
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
		Plan:            fc.Plan,
		Pattern: func(src, n int64, rng *rand.Rand) int64 {
			return int64(pattern(int32(src), int(n), rng))
		},
		Probe: cfg.Probe,
	}, runOpts{moduleOf: moduleOf, graph: g, fc: fc}
}

// RunFaultyWithBaseline runs cfg under the plan (RunFaulty) and fault-free
// (Run), and returns the degraded stats with LatencyInflation filled in as
// faulty/baseline average latency, plus the baseline itself. Both runs
// share one normalized configuration. The faulty run goes first, so an
// invalid plan fails in its lane runner before the baseline runs; the
// baseline is the same run with the plan removed.
func RunFaultyWithBaseline(cfg Config, fc FaultConfig) (FaultStats, Stats, error) {
	if err := cfg.normalize(); err != nil {
		return FaultStats{}, Stats{}, err
	}
	if err := fc.normalize(); err != nil {
		return FaultStats{}, Stats{}, err
	}
	faulty, err := runBuilt(cfg, fc)
	if err != nil {
		return FaultStats{}, Stats{}, err
	}
	// The baseline is a reference run: detach any probe so collectors see
	// only the faulty run's traffic.
	baseCfg := cfg
	baseCfg.Probe = nil
	baseFC := fc
	baseFC.Plan = nil
	base, err := runBuilt(baseCfg, baseFC)
	if err != nil {
		return FaultStats{}, Stats{}, err
	}
	if base.AvgLatency > 0 {
		faulty.LatencyInflation = faulty.AvgLatency / base.AvgLatency
	}
	return faulty, base.Stats, nil
}
