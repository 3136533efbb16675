// The lane runner: the one wiring of the engine. Every entry point ends in
// runLanes: Run, RunFaulty, RunFaultyWithBaseline (built graphs, see
// faultsim.go), RunImplicit and RunImplicitFaulty are single-lane runs of
// it, RunSharded a multi-lane one.
//
// A lane owns a set of whole modules and everything mutable about them:
// link FIFOs, arrival ring, RNG stream, router, fault sink, statistics and
// probe buffer. RunSharded deals modules to cfg.Lanes lanes (lane(u) =
// Module(u) % Lanes) and executes them on Shards worker goroutines under a
// conservative lookahead window — classic conservative parallel discrete-
// event simulation with the window set to the minimum cross-lane link
// delay. Every cross-lane link crosses a module boundary, so its delay is
// exactly OffModulePeriod (cut-through) or OffModulePeriod*Flits (store-
// and-forward) cycles, and a packet transmitted during window k cannot
// arrive before window k+1 begins. Cross-lane packets are exchanged only at
// window barriers in a fixed (destination lane, source lane, FIFO order)
// merge, so results are bit-for-bit identical for every Shards value:
// Shards chooses how many lanes run at once, never what they compute.
// TestShardedDeterminism pins this.
//
// A single lane owns every node and pays none of that: it is seeded with
// Seed itself, walks the whole id range in order when it injects, writes
// straight to the probe, has no outbox, and runs one window from cycle 0
// to the drain deadline, applying the drain rule itself. Its statistics and probe stream are therefore identical to
// RunImplicit's (fault-free) or RunImplicitFaulty's (with a plan) on the
// same configuration; TestShardedSingleLane pins this. Multi-lane runs draw
// per-lane RNG streams split from Seed, so they are comparable with the
// sequential runs in distribution, not packet for packet.
//
// Faults follow the engine's degraded-mode rule; RunImplicitFaulty and
// RunFaulty document what a degraded lane does.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
)

// ModuleSpace is the closed-form module partition the sharded simulator
// shards by: a dense module id space with uniform module size and an O(1)
// inverse enumeration. topo.Implicit (nucleus-per-module packing) and
// topo.SubcubeSpace (hypercube subcubes) implement it. Implementations must
// be safe for concurrent use — every lane queries the space while routing
// cross-lane traffic.
type ModuleSpace interface {
	// Modules returns the module count M_total; ids are dense in [0, M_total).
	Modules() int64
	// Module returns the module id of node u.
	Module(u int64) int64
	// ModuleSize returns the uniform node count of every module.
	ModuleSize() int64
	// ModuleNode returns the off-th node of module mod, off in
	// [0, ModuleSize()); enumerating off yields each member exactly once.
	ModuleNode(mod, off int64) int64
}

// identitySpace is the degenerate partition used when no ModuleSpace is
// configured: every node is its own module (and all links have period 1,
// mirroring ImplicitConfig.ModuleOf == nil).
type identitySpace struct{ n int64 }

func (s identitySpace) Modules() int64              { return s.n }
func (s identitySpace) Module(u int64) int64        { return u }
func (s identitySpace) ModuleSize() int64           { return 1 }
func (s identitySpace) ModuleNode(m, _ int64) int64 { return m }

// ShardedConfig parameterizes RunSharded.
type ShardedConfig struct {
	// NewLane builds one lane's private simulation oracles: the topology,
	// the router, and (for faulty runs) the fault sink the router consults.
	// It is called Lanes times, because none of the three is required to be
	// safe for concurrent use — each lane owns its own instances (e.g. one
	// topo.NewImplicit + topo.NewFaultAware + topo.NewFaultSet triple per
	// call). Fault-free runs may return a nil FaultSink.
	NewLane func() (Topology, Router, FaultSink, error)
	// Space is the module partition to shard by; lane(u) = Module(u) %
	// Lanes. Links crossing a module boundary cost OffModulePeriod, links
	// inside a module cost 1. Nil means no module structure: every link has
	// period 1 and nodes are dealt to lanes round-robin by id.
	Space ModuleSpace
	// InjectionRate, WarmupCycles, MeasureCycles, DrainCycles, Seed, Flits,
	// CutThrough, OffModulePeriod, MaxHops as in ImplicitConfig. Seed is
	// split into per-lane streams, so two runs differing only in Shards
	// draw identical randomness.
	InjectionRate                            float64
	WarmupCycles, MeasureCycles, DrainCycles int
	Seed                                     int64
	Flits                                    int
	CutThrough                               bool
	OffModulePeriod                          int
	MaxHops                                  int
	// Shards is the worker goroutine count (default 1). Any value from 1
	// to Lanes produces identical results; values above Lanes are clamped.
	Shards int
	// Lanes is the logical partition count (default 64). It IS part of the
	// run's identity: changing Lanes re-deals nodes to RNG streams and
	// changes results; changing Shards never does.
	Lanes int
	// Plan schedules faults as in ImplicitFaultConfig (nil/empty =
	// fault-free). Every lane applies the full plan to its own FaultSink at
	// the scheduled cycles — liveness is global knowledge — while queue
	// kills and stranded-packet re-routes happen only in the owning lane.
	Plan *FaultPlan
	// Pattern as in ImplicitConfig; it must depend only on its arguments
	// (it is called from concurrent lanes with per-lane RNGs).
	Pattern func(src int64, n int64, rng *rand.Rand) int64
	// Probe observes the run. Lanes buffer their events privately
	// (obs.EventLog) and the coordinator replays them between windows —
	// Tick(c), then each lane's cycle-c events in lane order — so the
	// probe runs on one goroutine and sees one deterministic sequence
	// regardless of Shards.
	Probe obs.Probe
}

func (cfg *ShardedConfig) normalize() error {
	if cfg.NewLane == nil {
		return fmt.Errorf("netsim: sharded runs need a NewLane factory")
	}
	if r := cfg.InjectionRate; r < 0 || r > 1 || r != r {
		return fmt.Errorf("netsim: injection rate %v out of [0,1]", cfg.InjectionRate)
	}
	if cfg.Lanes < 1 {
		cfg.Lanes = 64
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.Lanes {
		cfg.Shards = cfg.Lanes
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
	return nil
}

// laneSeed splits the run seed into per-lane streams (splitmix64 finalizer:
// well-mixed, collision-free in the lane index).
func laneSeed(seed int64, lane int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(lane+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// laneSend is one cross-lane packet in a lane's outbox: deliver pkt to node
// at the given cycle, in the destination lane's ring.
type laneSend struct {
	cycle int
	node  int64
	pkt   epacket
}

// laneChange is a scheduled fault event in the form every lane applies.
type laneChange struct {
	kind FaultKind
	u, v int64
	down bool
}

// planChanges buckets the plan by cycle and returns the last event cycle
// (-1 for an empty plan). The map is built once and read concurrently.
func planChanges(p *FaultPlan) (map[int][]laneChange, int) {
	changesAt := map[int][]laneChange{}
	lastChange := -1
	for _, ev := range p.sorted() {
		changesAt[ev.Cycle] = append(changesAt[ev.Cycle], laneChange{kind: ev.Kind, u: ev.U, v: ev.V, down: true})
		if ev.Cycle > lastChange {
			lastChange = ev.Cycle
		}
		if ev.Transient() {
			changesAt[ev.Repair] = append(changesAt[ev.Repair], laneChange{kind: ev.Kind, u: ev.U, v: ev.V, down: false})
			if ev.Repair > lastChange {
				lastChange = ev.Repair
			}
		}
	}
	return changesAt, lastChange
}

// runOpts is what only some entry points hand the lane runner.
type runOpts struct {
	// moduleOf decides every run's link periods: a link between two
	// modules costs OffModulePeriod, a link inside one costs 1 (nil = one
	// module). Implicit runs take it from their ModuleSpace, built graphs
	// from their Partition.
	moduleOf func(int64) int64
	// script is injected by every lane; it is only meaningful with a
	// single lane.
	script []Injection

	// graph selects the built-graph wiring (RunFaulty, and so Run):
	// BFS-table routes in place of the lanes' Router. Links live in the one
	// link store over the lane's topology, as on every run.
	graph *graph.Graph
	// fc is the built-graph routing around faults (normalized): detour TTL
	// and notification delay.
	fc FaultConfig
}

// laneRun is what the lanes of one run share; it is read-only while they
// run.
type laneRun struct {
	cfg        ShardedConfig
	o          runOpts
	degraded   bool
	n          int64
	directed   bool
	space      ModuleSpace
	changesAt  map[int][]laneChange
	lastChange int
	// window is the conservative lookahead of a multi-lane run.
	window int
}

// laneOf returns the lane owning node u.
func (r *laneRun) laneOf(u int64) int { return int(r.space.Module(u) % int64(r.cfg.Lanes)) }

// simLane is one lane: an engine plus everything it owns.
type simLane struct {
	engine
	idx     int
	run     *laneRun
	topo    Topology
	router  Router
	flagged flaggedRouter
	faults  FaultSink
	rng     *rand.Rand
	sampler injectionSampler
	log     *obs.EventLog
	outbox  [][]laneSend // indexed by destination lane; nil in a single-lane run

	// tables routes built graphs; it is nil on implicit runs.
	tables *bfsRoutes

	st         FaultStats
	latencySum int64
	inFlight   int // measured packets injected here minus measured packets retired here (may go negative; the lane sum is the global in-flight count)
	nextSeq    int64
	scriptPos  int
	err        error

	statser    routerStatser
	routerBase obs.RouterStats
}

// RunSharded executes the implicit-topology simulation partitioned into
// cfg.Lanes lanes on cfg.Shards workers. Results are deterministic in the
// configuration minus Shards: for fixed everything-else, every Shards value
// produces identical ImplicitFaultStats and an identical probe event
// sequence. With a nil/empty Plan the run follows RunImplicit's semantics;
// with a plan, RunImplicitFaulty's (drops counted in Lost). With
// Lanes 1 it reproduces those runs exactly.
func RunSharded(cfg ShardedConfig) (ImplicitFaultStats, error) {
	var o runOpts
	if cfg.Space != nil {
		o.moduleOf = cfg.Space.Module
	}
	return runLanes(cfg, o)
}

// runLanes is the lane runner behind every entry point.
func runLanes(cfg ShardedConfig, o runOpts) (ImplicitFaultStats, error) {
	r, lanes, err := newLanes(cfg, o)
	if err != nil {
		return ImplicitFaultStats{}, err
	}
	var stop int
	if len(lanes) == 1 {
		stop, err = lanes[0].loop()
	} else {
		stop, err = runWindows(lanes, r.cfg.Shards, r.window, r.lastChange, r.cfg.Probe)
	}
	if err != nil {
		return ImplicitFaultStats{}, err
	}
	return r.stats(lanes, stop), nil
}

// newLanes normalizes cfg and builds the run's lanes, ready for cycle 0.
func newLanes(cfg ShardedConfig, o runOpts) (*laneRun, []*simLane, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	built := o.graph != nil
	r := &laneRun{cfg: cfg, o: o, degraded: cfg.Plan.Len() > 0}

	lanes := make([]*simLane, cfg.Lanes)
	for i := range lanes {
		t, rt, fs, err := cfg.NewLane()
		if err != nil {
			return nil, nil, fmt.Errorf("netsim: lane %d: %w", i, err)
		}
		if t == nil || rt == nil && !built {
			return nil, nil, fmt.Errorf("netsim: lane %d: NewLane returned a nil topology or router", i)
		}
		if r.degraded && fs == nil {
			return nil, nil, fmt.Errorf("netsim: lane %d: a fault plan needs a FaultSink shared with the lane's router", i)
		}
		lanes[i] = &simLane{idx: i, run: r, topo: t, router: rt, faults: fs}
	}
	r.n = lanes[0].topo.N()
	if r.n < 2 {
		return nil, nil, fmt.Errorf("netsim: need a topology with at least 2 nodes")
	}
	r.directed = lanes[0].topo.Directed()
	for _, ln := range lanes[1:] {
		if ln.topo.N() != r.n {
			return nil, nil, fmt.Errorf("netsim: lane %d topology has %d nodes, lane 0 has %d", ln.idx, ln.topo.N(), r.n)
		}
	}
	if err := cfg.Plan.ValidateTopo(lanes[0].topo); err != nil {
		return nil, nil, err
	}

	r.space = cfg.Space
	if r.space == nil {
		r.space = identitySpace{n: r.n}
	}
	M, S := r.space.Modules(), r.space.ModuleSize()
	if M*S != r.n {
		return nil, nil, fmt.Errorf("netsim: module space covers %d*%d nodes, topology has %d", M, S, r.n)
	}
	single := cfg.Lanes == 1
	L := int64(cfg.Lanes)
	maxPeriod := 1
	if o.moduleOf != nil {
		maxPeriod = cfg.OffModulePeriod
	}
	// The conservative lookahead: every cross-lane link crosses a module
	// boundary, so its delay is exactly this many cycles and arrivals from
	// window k land in window k+1 or later.
	r.window = maxPeriod
	if !cfg.CutThrough {
		r.window *= cfg.Flits
	}

	total := cfg.WarmupCycles + cfg.MeasureCycles
	r.changesAt, r.lastChange = planChanges(cfg.Plan)

	for _, ln := range lanes {
		seed := cfg.Seed
		if !single {
			seed = laneSeed(cfg.Seed, ln.idx)
		}
		ln.rng = rand.New(rand.NewSource(seed))
		var owned int64
		if int64(ln.idx) < M {
			owned = ((M-1-int64(ln.idx))/L + 1) * S
		}
		ln.sampler = newInjectionSampler(owned, cfg.InjectionRate, ln.rng)
		ln.statser, _ = ln.router.(routerStatser)
		if ln.statser != nil {
			ln.routerBase = ln.statser.RouterStats()
		}
		ln.engine = engine{
			ring:       make([][]earrival, maxPeriod*cfg.Flits+1),
			flits:      cfg.Flits,
			cutThrough: cfg.CutThrough,
			moduleOf:   o.moduleOf,
			offPeriod:  cfg.OffModulePeriod,
			degraded:   r.degraded,
			total:      total,
			deadline:   total + cfg.DrainCycles,
			hopLimit:   cfg.MaxHops,
		}
		if single {
			ln.pb = cfg.Probe // the lane sees all traffic: no buffering
		} else {
			if cfg.Probe != nil {
				ln.log = &obs.EventLog{}
				ln.pb = ln.log
			}
			ln.outbox = make([][]laneSend, cfg.Lanes)
		}
		ln.store = newSparseLinks(ln.topo)
		if built {
			ln.tables = newBFSRoutes(o.graph, ln)
		} else {
			ln.flagged, _ = ln.router.(flaggedRouter)
		}
	}

	return r, lanes, nil
}

// stats sums the lanes' statistics of a run that stopped at cycle stop.
func (r *laneRun) stats(lanes []*simLane, stop int) ImplicitFaultStats {
	var out ImplicitFaultStats
	cfg := r.cfg
	st := &out.FaultStats
	var latencySum int64
	inFlight := 0
	for _, ln := range lanes {
		st.Injected += ln.st.Injected
		st.Delivered += ln.st.Delivered
		st.Expired += ln.st.Expired
		st.Lost += ln.st.Lost
		st.DeliveredDegraded += ln.st.DeliveredDegraded
		st.HopLimitDrops += ln.st.HopLimitDrops
		if ln.st.MaxLatency > st.MaxLatency {
			st.MaxLatency = ln.st.MaxLatency
		}
		latencySum += ln.latencySum
		inFlight += ln.inFlight
		if ln.statser != nil {
			out.Router = out.Router.Add(ln.statser.RouterStats().Delta(ln.routerBase))
		}
	}
	st.RerouteEvents = int(out.Router.Reroutes)
	st.MisroutedHops = int(out.Router.DetourHops)
	if t := lanes[0].tables; t != nil {
		st.RerouteEvents, st.MisroutedHops = t.reroutes, t.misrouted
		if t.reroutes > 0 {
			st.MeanTimeToReroute = float64(t.lagSum) / float64(t.reroutes)
		}
	}
	st.Expired += inFlight
	if st.Delivered > 0 {
		st.AvgLatency = float64(latencySum) / float64(st.Delivered)
	}
	if cfg.MeasureCycles > 0 {
		st.Throughput = float64(st.Delivered) / float64(r.n) / float64(cfg.MeasureCycles)
	}
	if r.degraded {
		// Fault event accounting is deterministic from the plan and the stop
		// cycle (every lane applied the same events at the same cycles).
		for _, ev := range cfg.Plan.sorted() {
			if ev.Cycle < stop {
				st.FaultsInjected++
			}
			if ev.Transient() && ev.Repair < stop {
				st.FaultsRepaired++
			}
		}
	}
	st.fillQuantiles(cfg.Probe)
	return out
}

// lose drops a packet: a measured one counts in Lost (and, when the hop
// watchdog killed it, in HopLimitDrops), so Injected == Delivered + Lost +
// Expired on every run. The probe sees every drop, tagged with where and
// why the packet died; it is the packet's terminal event.
func (ln *simLane) lose(now int, at int64, pkt *epacket, reason obs.DropReason) {
	if pkt.measured {
		ln.st.Lost++
		ln.inFlight--
		if reason == obs.DropHopLimit {
			ln.st.HopLimitDrops++
		}
	}
	if pb := ln.pb; pb != nil {
		pb.Drop(now, pkt.id, at, reason)
	}
}

// deliver accounts a packet that reached its destination.
func (ln *simLane) deliver(now int, at int64, pkt *epacket) {
	lat := now - pkt.born
	if pkt.measured {
		ln.st.Delivered++
		if pkt.degraded {
			ln.st.DeliveredDegraded++
		}
		ln.inFlight--
		ln.latencySum += int64(lat)
		if lat > ln.st.MaxLatency {
			ln.st.MaxLatency = lat
		}
	}
	if pb := ln.pb; pb != nil {
		pb.Deliver(now, pkt.id, at, lat, pkt.measured)
	}
}

// route asks the lane's Router for the next hop.
func (ln *simLane) route(now int, at int64, pkt *epacket) (int64, bool, error) {
	var nh int64
	var detoured bool
	var err error
	if ln.flagged != nil {
		nh, detoured, err = ln.flagged.NextHopFlagged(at, pkt.dst)
	} else {
		nh, err = ln.router.NextHop(at, pkt.dst)
	}
	if err != nil {
		// Destination dead or no fault-free route derivable. (A
		// non-neighbor next hop is a router bug either way: the link
		// store's hard error stops the run.)
		if !ln.degraded {
			return 0, false, err
		}
		ln.lose(now, at, pkt, obs.DropNoRoute)
		return 0, false, nil
	}
	pkt.degraded = pkt.degraded || detoured
	return nh, true, nil
}

// hopLimitHit is the livelock watchdog: a hard error unless the run is
// degraded, where livelock-like trajectories are a property of the fault
// pattern and the packet is dropped.
func (ln *simLane) hopLimitHit(now int, at int64, pkt *epacket) error {
	if !ln.degraded {
		return fmt.Errorf("netsim: packet for %d exceeded %d hops at %d (router livelock?)", pkt.dst, ln.run.cfg.MaxHops, at)
	}
	ln.lose(now, at, pkt, obs.DropHopLimit)
	return nil
}

// node maps an owned-node index to its node id: a single lane owns the id
// range in order, lane i of L owns modules i, i+L, ... in module order.
func (ln *simLane) node(i int64) int64 {
	r := ln.run
	if r.cfg.Lanes == 1 {
		return i
	}
	S := r.space.ModuleSize()
	return r.space.ModuleNode(int64(ln.idx)+(i/S)*int64(r.cfg.Lanes), i%S)
}

// inject runs the cycle's sampled injections, then its scripted sends.
func (ln *simLane) inject(now int) error {
	r := ln.run
	for ln.sampler.start(); ; {
		i := ln.sampler.next()
		if i < 0 {
			break
		}
		src := ln.node(i)
		var dst int64
		if r.cfg.Pattern != nil {
			dst = r.cfg.Pattern(src, r.n, ln.rng)
		} else {
			dst = uniformDst64(src, r.n, ln.rng)
		}
		if dst == src || dst < 0 || dst >= r.n {
			continue
		}
		if err := ln.emit(now, src, dst); err != nil {
			return err
		}
	}
	// Scripted sends follow the cycle's random draws and consume no
	// randomness.
	for ; ln.scriptPos < len(r.o.script) && r.o.script[ln.scriptPos].At == now; ln.scriptPos++ {
		sc := r.o.script[ln.scriptPos]
		if err := ln.emit(now, sc.Src, sc.Dst); err != nil {
			return err
		}
	}
	return nil
}

// emit injects one packet src -> dst. In a degraded run dead sources stay
// silent and dead sinks are skipped (the draws already happened, keeping
// the RNG stream aligned).
func (ln *simLane) emit(now int, src, dst int64) error {
	r := ln.run
	if ln.degraded && (ln.faults.NodeDown(src) || ln.faults.NodeDown(dst)) {
		return nil
	}
	measured := now >= r.cfg.WarmupCycles
	if measured {
		ln.st.Injected++
		ln.inFlight++
	}
	id := ln.nextSeq*int64(r.cfg.Lanes) + int64(ln.idx) // unique and Shards-independent
	ln.nextSeq++
	if pb := ln.pb; pb != nil {
		pb.Inject(now, id, src, dst, measured)
	}
	return ln.enqueue(now, src, epacket{id: id, dst: dst, born: now, ttl: r.o.fc.DetourTTL, measured: measured})
}

// applyChanges applies the cycle's scheduled fault events.
func (ln *simLane) applyChanges(now int) error {
	cs := ln.run.changesAt[now]
	for _, c := range cs {
		if err := ln.applyChange(now, c); err != nil {
			return err
		}
	}
	if ln.tables != nil {
		ln.tables.advance(now, len(cs) > 0)
	}
	return nil
}

// applyChange applies one fault event. Every lane applies the liveness
// change to its own sink (routers need global knowledge; the sink's epoch
// bump invalidates their cached routes); only the lane owning the affected
// queues performs the side effects and emits the probe event.
func (ln *simLane) applyChange(now int, c laneChange) error {
	r, pb := ln.run, ln.pb
	switch c.kind {
	case NodeFault:
		owned := r.laneOf(c.u) == ln.idx
		if owned && pb != nil {
			pb.Fault(now, c.u, -1, true, c.down)
		}
		if !c.down {
			ln.faults.RepairNode(c.u)
			return nil
		}
		ln.faults.FailNode(c.u)
		if owned {
			// Everything queued on the dead node's outgoing links is lost.
			ln.store.eachFrom(c.u, func(lk *elink) {
				for i := range lk.queue {
					ln.lose(now, c.u, &lk.queue[i], obs.DropQueueKilled)
				}
				lk.queue = nil
			})
		}
	case LinkFault:
		if r.laneOf(c.u) == ln.idx && pb != nil {
			pb.Fault(now, c.u, c.v, false, c.down)
		}
		// One mutation (one epoch bump) per event: an undirected link
		// fails or heals in both directions at once.
		if !c.down {
			if r.directed {
				ln.faults.RepairLink(c.u, c.v)
			} else {
				ln.faults.RepairLinkBoth(c.u, c.v)
			}
			return nil
		}
		if r.directed {
			ln.faults.FailLink(c.u, c.v)
		} else {
			ln.faults.FailLinkBoth(c.u, c.v)
		}
		for _, arc := range [2][2]int64{{c.u, c.v}, {c.v, c.u}} {
			if r.directed && arc != [2]int64{c.u, c.v} || r.laneOf(arc[0]) != ln.idx {
				continue
			}
			// Re-route the stranded queue from the link's tail.
			if lk := ln.store.peek(arc[0], arc[1]); lk != nil && len(lk.queue) > 0 {
				q := lk.queue
				lk.queue = nil
				for _, pkt := range q {
					if err := ln.enqueue(now, lk.u, pkt); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// arrivalDead loses a packet arriving at a dead node.
func (ln *simLane) arrivalDead(now int, node int64, pkt *epacket) bool {
	if ln.faults.NodeDown(node) {
		ln.lose(now, node, pkt, obs.DropDeadRouter)
		return true
	}
	return false
}

// blocked holds the queue of a link with a dead tail or a dead link until a
// repair (a link strike re-routes the queue; this holds packets queued on
// links that died while busy).
func (ln *simLane) blocked(lk *elink) bool {
	return ln.faults.NodeDown(lk.u) || ln.faults.LinkDown(lk.u, lk.v)
}

// runWindows is the multi-lane coordinator: lanes run [start, start+window)
// in parallel, then the coordinator merges cross-lane outboxes in
// (destination lane, source lane, FIFO) order, replays the probe, and
// decides termination. It returns the cycle the run stopped at.
func runWindows(lanes []*simLane, shards, window, lastChange int, probe obs.Probe) (int, error) {
	total, deadline := lanes[0].total, lanes[0].deadline
	start := 0
	for start < deadline {
		if start >= total {
			inFlight := 0
			for _, ln := range lanes {
				inFlight += ln.inFlight
			}
			if inFlight == 0 && start > lastChange {
				break
			}
		}
		end := start + window
		if end > deadline {
			end = deadline
		}
		if shards == 1 {
			for _, ln := range lanes {
				ln.runWindow(start, end)
			}
		} else {
			var wg sync.WaitGroup
			for w := 0; w < shards; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for li := w; li < len(lanes); li += shards {
						lanes[li].runWindow(start, end)
					}
				}(w)
			}
			wg.Wait()
		}
		for _, ln := range lanes {
			if ln.err != nil {
				return start, ln.err
			}
		}
		for _, dst := range lanes {
			ring := dst.ring
			for _, src := range lanes {
				box := src.outbox[dst.idx]
				for _, snd := range box {
					slot := snd.cycle % len(ring)
					ring[slot] = append(ring[slot], earrival{node: snd.node, pkt: snd.pkt})
				}
				src.outbox[dst.idx] = box[:0]
			}
		}
		if probe != nil {
			for c := start; c < end; c++ {
				probe.Tick(c)
				for _, ln := range lanes {
					ln.log.ReplayCycle(c, probe)
				}
			}
			for _, ln := range lanes {
				ln.log.Reset()
			}
		}
		start = end
	}
	return start, nil
}

// runWindow steps the lane's engine through cycles [start, end); an error
// parks in ln.err for the coordinator (lane errors must not tear down other
// lanes mid-window).
func (ln *simLane) runWindow(start, end int) {
	if ln.err != nil {
		return
	}
	for c := start; c < end; c++ {
		if _, err := ln.step(c); err != nil {
			ln.err = err
			return
		}
	}
}
