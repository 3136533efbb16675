// Fault-tolerant operation: RunFaulty executes the packet simulator while a
// FaultPlan kills (and possibly heals) links and nodes mid-run. Three layers
// keep traffic flowing, mirroring how real interconnects operate through
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
//     neighbors are exhausted the copy is dropped.
//  3. End-to-end reliability. Every packet is a flow tracked at its source:
//     if no copy reaches the destination within a timeout the source
//     retransmits with exponential backoff, up to MaxRetries; destinations
//     suppress duplicate copies by sequence number. A hop-count watchdog
//     kills livelocked copies, and flows whose endpoints are disconnected
//     are detected and reported.
//
// The plan itself comes from the generator and check every topology uses:
// RandomFaults.PlanTopo over topo.NewMaterialized(g), or a hand-built plan,
// validated by ValidateTopo when the lane runner starts.
//
// The degraded-mode statistics (FaultStats) extend the fault-free Stats with
// loss, retransmission, misroute, reroute-latency, and disconnection
// counters, plus the latency inflation against a fault-free baseline. Every
// measured flow ends Delivered, Lost (abandoned after MaxRetries) or
// Expired (still pending at the drain deadline), so Injected = Delivered +
// Lost + Expired, as on every run.
//
// All three layers exist only in a degraded run (the engine's degraded-mode
// rule: the plan is non-empty). A run that is not degraded is Run: it
// builds its tables with nil liveness predicates and routes straight from
// them, runs no fault phase, has no flow table, arms no retransmission
// timer, and skips the deadline pass, so Lost is 0 and no DropAbandoned
// event is emitted.
//
// RunFaulty is a single-lane run of the lane runner (sharded.go), like
// every other entry point. This file holds the two pieces only built
// graphs plug into it: the BFS-table route hook (bfsRoutes) and the flow
// layer (flowTable and its lane methods).
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

// FaultConfig parameterizes fault injection and the recovery protocol.
type FaultConfig struct {
	// Plan is the fault schedule (nil or empty = fault-free run).
	Plan *FaultPlan
	// RetransmitTimeout is the source-side timeout in cycles before the
	// first retransmission of an undelivered packet; it doubles on every
	// retry (exponential backoff). 0 selects the default (64).
	RetransmitTimeout int
	// MaxRetries bounds retransmissions per flow. 0 selects the default
	// (8); a negative value disables retransmission entirely: no retry
	// timer is armed, so a flow ends only at delivery or at the drain
	// deadline.
	MaxRetries int
	// DetourTTL is the per-transmission misroute budget: how many non-
	// minimal detour hops one copy may take around dead components. 0
	// selects the default (16); a negative value disables detours.
	DetourTTL int
	// NotifyDelay is how many cycles a topology change takes to reach the
	// routing layer; until then tables stay stale and packets rely on
	// detours. The rebuild itself uses the true current topology.
	NotifyDelay int
}

func (fc *FaultConfig) normalize() error {
	if fc.RetransmitTimeout < 0 {
		return fmt.Errorf("netsim: negative RetransmitTimeout %d", fc.RetransmitTimeout)
	}
	if fc.RetransmitTimeout == 0 {
		fc.RetransmitTimeout = 64
	}
	if fc.MaxRetries == 0 {
		fc.MaxRetries = 8
	}
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

// FaultStats extends Stats with degraded-mode counters. On a built graph
// Injected counts measured flows (originals, not retransmissions).
type FaultStats struct {
	Stats
	// Lost counts measured traffic given up before the drain deadline: on
	// a degraded built graph (RunFaulty with a plan), flows abandoned after
	// MaxRetries retransmissions; on an implicit or sharded run, dropped
	// measured packets. It never overlaps Expired, so Injected ==
	// Delivered + Lost + Expired on every run. A run with no plan loses
	// nothing.
	Lost int
	// Retransmitted counts source-side retransmissions of measured flows.
	Retransmitted int
	// Duplicates counts copies of measured flows that arrived after the
	// flow was already delivered (suppressed at the destination).
	Duplicates int
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
	// DisconnectedPairs counts measured flows of a degraded built-graph run
	// that ended undelivered (Lost or Expired) while their source and
	// destination had no live path.
	DisconnectedPairs int
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
	// HopLimitDrops counts measured packets dropped by the MaxHops
	// watchdog, a subset of Lost (RunImplicitFaulty only; RunFaulty's
	// watchdog drops copies, which surface as Lost or Retransmitted).
	HopLimitDrops int
}

// flowState is the source-side record backing retransmission. The in-flight
// copies themselves are epackets whose id is the flow sequence number.
type flowState struct {
	src, dst int64
	born     int
	timeout  int // current backoff value
	attempt  int // retransmissions performed
	measured bool
	done     bool // delivered or abandoned
}

// flowTable is a degraded RunFaulty's flow layer: one flowState per
// injected packet, indexed by its id, and the retransmission schedule.
type flowTable struct {
	flows   []flowState
	retryAt map[int][]int32
}

// open records a new flow and arms its first retransmission timer.
func (ft *flowTable) open(now int, src, dst int64, measured bool, fc FaultConfig) {
	ft.flows = append(ft.flows, flowState{src: src, dst: dst, born: now,
		timeout: fc.RetransmitTimeout, measured: measured})
	if fc.MaxRetries >= 0 {
		t := now + fc.RetransmitTimeout
		ft.retryAt[t] = append(ft.retryAt[t], int32(len(ft.flows)-1))
	}
}

// fireRetries retransmits every pending flow whose timer expires now, with
// exponential backoff, and abandons flows out of retries.
func (ln *simLane) fireRetries(now int) error {
	ft, fc, pb := ln.flows, ln.run.o.fc, ln.pb
	seqs, hit := ft.retryAt[now]
	if !hit {
		return nil
	}
	for _, seq := range seqs {
		f := &ft.flows[seq]
		if f.done {
			continue
		}
		if f.attempt >= fc.MaxRetries {
			if ln.abandon(now, seq) {
				ln.st.Lost++
				ln.inFlight--
			}
			continue
		}
		f.attempt++
		if f.measured {
			ln.st.Retransmitted++
		}
		if pb != nil {
			pb.Retransmit(now, int64(seq), f.src, f.attempt)
		}
		f.timeout *= 2
		ft.retryAt[now+f.timeout] = append(ft.retryAt[now+f.timeout], seq)
		if !ln.faults.NodeDown(f.src) {
			if err := ln.enqueue(now, f.src, epacket{id: int64(seq), dst: f.dst,
				born: now, ttl: fc.DetourTTL, measured: f.measured}); err != nil {
				return err
			}
		}
	}
	delete(ft.retryAt, now)
	return nil
}

// abandon ends a pending flow undelivered and reports whether it was
// measured. The probe hears of it, and a measured flow whose endpoints have
// no live path counts in DisconnectedPairs.
func (ln *simLane) abandon(now int, seq int32) bool {
	f := &ln.flows.flows[seq]
	f.done = true
	if pb := ln.pb; pb != nil {
		pb.Drop(now, int64(seq), f.src, obs.DropAbandoned)
	}
	if f.measured && !ln.tables.connected(f.src, f.dst) {
		ln.st.DisconnectedPairs++
	}
	return f.measured
}

// expireFlows is the deadline pass: it abandons the flows still pending
// when the run ends. The measured ones stay in the lane's inFlight, which
// laneRun.stats counts in Expired, as on every run.
func (ln *simLane) expireFlows() {
	for seq := range ln.flows.flows {
		if !ln.flows.flows[seq].done {
			ln.abandon(ln.deadline, int32(seq))
		}
	}
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

// next picks the forwarding hop for a copy at node at64: the (possibly
// stale) table's hop when it is live, else a detour. ok=false means the
// copy was dropped; the source timeout recovers the flow.
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

// connected reports whether src and dst are live and joined by a live path.
func (b *bfsRoutes) connected(src, dst int64) bool {
	b.sync()
	return !b.nodeDead(int32(src)) && !b.nodeDead(int32(dst)) &&
		route.BFSNextHops(b.g, int32(dst), b.nodeDead, b.linkDead)[src] >= 0
}

// RunFaulty executes the simulation under cfg while applying fc.Plan, as a
// single-lane run of the lane runner. Run is RunFaulty with an empty plan.
// The run follows the engine's degraded-mode rule, so with a nil or empty
// plan it is not degraded and none of the fault machinery exists: no
// liveness, no flow table, no retransmission timers, and fc's protocol
// parameters have no effect. The hop watchdog allows 8·N hops; a packet
// exceeding it aborts a run that is not degraded and loses a copy of a
// degraded one (the flow recovers at its source). Like every run, it ends
// at the first cycle after injection stops with no measured packet (flow)
// pending and the plan's last event past, or at the drain deadline.
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
