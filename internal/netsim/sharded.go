// The lane runner: the one wiring of the engine's hooks for implicit
// topologies. RunImplicit, RunImplicitFaulty and RunSharded all end in
// runLanes; the sequential entry points are single-lane runs of it.
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
// Seed itself, draws sources from the whole id range, writes straight to
// the probe, has no cross-lane hook, and runs one window from cycle 0 to
// the drain deadline, stopping inside the engine as soon as the network has
// drained. Its statistics and probe stream are therefore identical to
// RunImplicit's (fault-free) or RunImplicitFaulty's (with a plan) on the
// same configuration; TestShardedSingleLane pins this. Multi-lane runs draw
// per-lane RNG streams split from Seed, so they are comparable with the
// sequential runs in distribution, not packet for packet.
//
// Faults follow the engine's degraded-mode rule; RunImplicitFaulty
// documents what a degraded lane does.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"

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
	if cfg.InjectionRate < 0 || cfg.InjectionRate > 1 {
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
		changesAt[ev.Cycle] = append(changesAt[ev.Cycle], laneChange{kind: ev.Kind, u: int64(ev.U), v: int64(ev.V), down: true})
		if ev.Cycle > lastChange {
			lastChange = ev.Cycle
		}
		if ev.Transient() {
			changesAt[ev.Repair] = append(changesAt[ev.Repair], laneChange{kind: ev.Kind, u: int64(ev.U), v: int64(ev.V), down: false})
			if ev.Repair > lastChange {
				lastChange = ev.Repair
			}
		}
	}
	return changesAt, lastChange
}

// simLane is one lane: an engine plus everything it owns.
type simLane struct {
	idx    int
	topo   Topology
	router Router
	faults FaultSink
	eng    *engine
	sparse *sparseLinks
	rng    *rand.Rand
	log    *obs.EventLog
	outbox [][]laneSend // indexed by destination lane

	st         FaultStats
	latencySum int64
	inFlight   int // measured packets injected here minus measured packets retired here (may go negative; the lane sum is the global in-flight count)
	nOwned     int64
	nextSeq    int64
	err        error

	statser    routerStatser
	routerBase obs.RouterStats
}

// RunSharded executes the implicit-topology simulation partitioned into
// cfg.Lanes lanes on cfg.Shards workers. Results are deterministic in the
// configuration minus Shards: for fixed everything-else, every Shards value
// produces identical ImplicitFaultStats and an identical probe event
// sequence. With a nil/empty Plan the run follows RunImplicit's semantics;
// with a plan, RunImplicitFaulty's (drops counted, no retransmission). With
// Lanes 1 it reproduces those runs exactly.
func RunSharded(cfg ShardedConfig) (ImplicitFaultStats, error) {
	var moduleOf func(int64) int64
	if cfg.Space != nil {
		moduleOf = cfg.Space.Module
	}
	return runLanes(cfg, moduleOf, nil)
}

// runLanes is the lane runner behind every implicit entry point. moduleOf
// decides link periods (nil = one module: every link has period 1); script
// is injected by every lane and is only meaningful with a single lane.
func runLanes(cfg ShardedConfig, moduleOf func(int64) int64, script []Injection) (ImplicitFaultStats, error) {
	var out ImplicitFaultStats
	if err := cfg.normalize(); err != nil {
		return out, err
	}
	degraded := cfg.Plan.Len() > 0

	lanes := make([]*simLane, cfg.Lanes)
	for i := range lanes {
		t, r, fs, err := cfg.NewLane()
		if err != nil {
			return out, fmt.Errorf("netsim: lane %d: %w", i, err)
		}
		if t == nil || r == nil {
			return out, fmt.Errorf("netsim: lane %d: NewLane returned a nil topology or router", i)
		}
		if degraded && fs == nil {
			return out, fmt.Errorf("netsim: lane %d: a fault plan needs a FaultSink shared with the lane's router", i)
		}
		lanes[i] = &simLane{idx: i, topo: t, router: r, faults: fs}
	}
	n := lanes[0].topo.N()
	if n < 2 {
		return out, fmt.Errorf("netsim: need a topology with at least 2 nodes")
	}
	directed := lanes[0].topo.Directed()
	for _, ln := range lanes[1:] {
		if ln.topo.N() != n {
			return out, fmt.Errorf("netsim: lane %d topology has %d nodes, lane 0 has %d", ln.idx, ln.topo.N(), n)
		}
	}
	if err := cfg.Plan.ValidateTopo(lanes[0].topo); err != nil {
		return out, err
	}

	space := cfg.Space
	if space == nil {
		space = identitySpace{n: n}
	}
	if space.Modules()*space.ModuleSize() != n {
		return out, fmt.Errorf("netsim: module space covers %d*%d nodes, topology has %d",
			space.Modules(), space.ModuleSize(), n)
	}
	single := cfg.Lanes == 1
	L := int64(cfg.Lanes)
	laneOf := func(u int64) int { return int(space.Module(u) % L) }
	period := func(u, v int64) int {
		if moduleOf == nil || moduleOf(u) == moduleOf(v) {
			return 1
		}
		return cfg.OffModulePeriod
	}
	// The conservative lookahead: every cross-lane link crosses a module
	// boundary, so its delay is exactly this many cycles and arrivals from
	// window k land in window k+1 or later.
	crossPeriod := 1
	if moduleOf != nil {
		crossPeriod = cfg.OffModulePeriod
	}
	window := crossPeriod
	if !cfg.CutThrough {
		window *= cfg.Flits
	}

	total := cfg.WarmupCycles + cfg.MeasureCycles
	changesAt, lastChange := planChanges(cfg.Plan)
	M, S := space.Modules(), space.ModuleSize()

	for _, ln := range lanes {
		ln := ln
		seed := cfg.Seed
		if !single {
			seed = laneSeed(cfg.Seed, ln.idx)
		}
		ln.rng = rand.New(rand.NewSource(seed))
		ln.sparse = newSparseLinks(ln.topo)
		if int64(ln.idx) < M {
			ln.nOwned = ((M-1-int64(ln.idx))/L + 1) * S
		}
		ln.statser, _ = ln.router.(routerStatser)
		if ln.statser != nil {
			ln.routerBase = ln.statser.RouterStats()
		}
		ln.eng = &engine{
			store:      ln.sparse,
			ring:       make([][]earrival, crossPeriod*cfg.Flits+1),
			flits:      cfg.Flits,
			cutThrough: cfg.CutThrough,
			period:     period,
			total:      total,
			deadline:   total + cfg.DrainCycles,
			hopLimit:   cfg.MaxHops,
		}
		e := ln.eng
		if single {
			// The lane sees all traffic, so it can tell on its own when the
			// network has drained; the probe needs no buffering.
			e.pb = cfg.Probe
			e.canStop = func(now int) bool { return ln.inFlight == 0 && now > lastChange }
		} else {
			if cfg.Probe != nil {
				ln.log = &obs.EventLog{}
				e.pb = ln.log
			}
			e.canStop = func(int) bool { return false } // the coordinator stops runs at barriers
			ln.outbox = make([][]laneSend, cfg.Lanes)
			e.crossSend = func(now, delay int, dst int64, pkt epacket) bool {
				d := laneOf(dst)
				if d == ln.idx {
					return false
				}
				ln.outbox[d] = append(ln.outbox[d], laneSend{cycle: now + delay, node: dst, pkt: pkt})
				return true
			}
		}
		pb := e.pb

		// lose drops a packet. Loss counters track measured traffic only, so
		// Injected == Delivered + Lost + Expired; the probe sees every
		// dropped copy, tagged with where and why it died.
		lose := func(now int, at int64, pkt *epacket, reason obs.DropReason) {
			if pkt.measured {
				ln.st.Lost++
				ln.inFlight--
			}
			if pb != nil {
				pb.Drop(now, pkt.id, at, reason)
			}
		}
		e.deliver = func(now int, at int64, pkt *epacket) {
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
			if pb != nil {
				pb.Deliver(now, pkt.id, at, lat, pkt.measured)
			}
		}
		flagged, _ := ln.router.(flaggedRouter)
		e.route = func(now int, at int64, pkt *epacket) (int64, bool, error) {
			var nh int64
			var detoured bool
			var err error
			if flagged != nil {
				nh, detoured, err = flagged.NextHopFlagged(at, pkt.dst)
			} else {
				nh, err = ln.router.NextHop(at, pkt.dst)
			}
			if err != nil {
				// Destination dead or no fault-free route derivable. (A
				// non-neighbor next hop is a router bug either way: the link
				// store's hard error stops the run.)
				if !degraded {
					return 0, false, err
				}
				lose(now, at, pkt, obs.DropNoRoute)
				return 0, false, nil
			}
			pkt.degraded = pkt.degraded || detoured
			return nh, true, nil
		}
		e.onHopLimit = func(now int, at int64, pkt *epacket) error {
			if !degraded {
				return fmt.Errorf("netsim: packet for %d exceeded %d hops at %d (router livelock?)", pkt.dst, cfg.MaxHops, at)
			}
			if pkt.measured {
				ln.st.HopLimitDrops++
			}
			lose(now, at, pkt, obs.DropHopLimit)
			return nil
		}

		emit := func(now int, src, dst int64) error {
			measured := now >= cfg.WarmupCycles
			if measured {
				ln.st.Injected++
				ln.inFlight++
			}
			id := ln.nextSeq*L + int64(ln.idx) // unique and Shards-independent
			ln.nextSeq++
			if pb != nil {
				pb.Inject(now, id, src, dst, measured)
			}
			return e.enqueue(now, src, epacket{id: id, dst: dst, born: now, measured: measured})
		}
		scriptPos := 0
		e.inject = func(now int) error {
			for k := injectionCount(ln.nOwned, cfg.InjectionRate, ln.rng); k > 0; k-- {
				var src int64
				if single {
					src = ln.rng.Int63n(n)
				} else {
					i := ln.rng.Int63n(ln.nOwned)
					src = space.ModuleNode(int64(ln.idx)+(i/S)*L, i%S)
				}
				var dst int64
				if cfg.Pattern != nil {
					dst = cfg.Pattern(src, n, ln.rng)
				} else {
					dst = uniformDst64(src, n, ln.rng)
				}
				if dst == src || dst < 0 || dst >= n {
					continue
				}
				if degraded && (ln.faults.NodeDown(src) || ln.faults.NodeDown(dst)) {
					continue // dead sources stay silent; dead sinks are skipped
				}
				if err := emit(now, src, dst); err != nil {
					return err
				}
			}
			// Scripted sends follow the cycle's random draws, consume no
			// randomness, and obey the same dead-endpoint rule.
			for ; scriptPos < len(script) && script[scriptPos].At == now; scriptPos++ {
				sc := script[scriptPos]
				if degraded && (ln.faults.NodeDown(sc.Src) || ln.faults.NodeDown(sc.Dst)) {
					continue
				}
				if err := emit(now, sc.Src, sc.Dst); err != nil {
					return err
				}
			}
			return nil
		}
		if !degraded {
			continue
		}

		// strand re-routes everything queued on a link that just died, from
		// the link's tail node, through the fault-aware router.
		strand := func(now int, lk *elink) error {
			q := lk.queue
			lk.queue = nil
			for _, pkt := range q {
				if err := e.enqueue(now, lk.u, pkt); err != nil {
					return err
				}
			}
			return nil
		}
		// Every lane applies the liveness change to its own sink (the
		// routers need global knowledge; the sink's epoch bump invalidates
		// their cached routes); only the lane owning the affected queues
		// performs the side effects and emits the probe event.
		applyChange := func(now int, c laneChange) error {
			switch c.kind {
			case NodeFault:
				owned := laneOf(c.u) == ln.idx
				if owned && pb != nil {
					pb.Fault(now, c.u, -1, true, c.down)
				}
				if !c.down {
					ln.faults.RepairNode(c.u)
					return nil
				}
				ln.faults.FailNode(c.u)
				if owned && ln.faults.NodeDown(c.u) {
					// Everything queued on the dead node's outgoing links is
					// lost (first strike or overlapping, the queues are dead
					// either way).
					ln.sparse.eachFrom(c.u, func(lk *elink) {
						for i := range lk.queue {
							lose(now, c.u, &lk.queue[i], obs.DropQueueKilled)
						}
						lk.queue = nil
					})
				}
			case LinkFault:
				if laneOf(c.u) == ln.idx && pb != nil {
					pb.Fault(now, c.u, c.v, false, c.down)
				}
				if !c.down {
					ln.faults.RepairLink(c.u, c.v)
					if !directed {
						ln.faults.RepairLink(c.v, c.u)
					}
					return nil
				}
				ln.faults.FailLink(c.u, c.v)
				if !directed {
					ln.faults.FailLink(c.v, c.u)
				}
				for _, arc := range [2][2]int64{{c.u, c.v}, {c.v, c.u}} {
					if directed && arc != [2]int64{c.u, c.v} {
						continue
					}
					if laneOf(arc[0]) != ln.idx {
						continue
					}
					if lk := ln.sparse.peek(arc[0], arc[1]); lk != nil && len(lk.queue) > 0 {
						if err := strand(now, lk); err != nil {
							return err
						}
					}
				}
			}
			return nil
		}
		e.applyChanges = func(now int) error {
			for _, c := range changesAt[now] {
				if err := applyChange(now, c); err != nil {
					return err
				}
			}
			return nil
		}
		e.arrivalDead = func(now int, node int64, pkt *epacket) bool {
			if ln.faults.NodeDown(node) {
				lose(now, node, pkt, obs.DropDeadRouter)
				return true
			}
			return false
		}
		// A dead tail or dead link holds its queue until a repair (a link
		// strike re-routes the queue via strand; this holds packets queued
		// on links that died while busy).
		e.blocked = func(lk *elink) bool {
			return ln.faults.NodeDown(lk.u) || ln.faults.LinkDown(lk.u, lk.v)
		}
	}

	var stop int
	var err error
	if single {
		stop, err = lanes[0].eng.run()
	} else {
		stop, err = runWindows(lanes, cfg.Shards, window, lastChange, cfg.Probe)
	}
	if err != nil {
		return out, err
	}

	st := &out.FaultStats
	var latencySum int64
	inFlight := 0
	for _, ln := range lanes {
		st.Injected += ln.st.Injected
		st.Delivered += ln.st.Delivered
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
	st.Expired = inFlight
	if st.Delivered > 0 {
		st.AvgLatency = float64(latencySum) / float64(st.Delivered)
	}
	if cfg.MeasureCycles > 0 {
		st.Throughput = float64(st.Delivered) / float64(n) / float64(cfg.MeasureCycles)
	}
	if degraded {
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
	return out, nil
}

// runWindows is the multi-lane coordinator: lanes run [start, start+window)
// in parallel, then the coordinator merges cross-lane outboxes in
// (destination lane, source lane, FIFO) order, replays the probe, and
// decides termination. It returns the cycle the run stopped at.
func runWindows(lanes []*simLane, shards, window, lastChange int, probe obs.Probe) (int, error) {
	total, deadline := lanes[0].eng.total, lanes[0].eng.deadline
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
			ring := dst.eng.ring
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
		if _, err := ln.eng.step(c); err != nil {
			ln.err = err
			return
		}
	}
}
