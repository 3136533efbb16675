// Fault-tolerant operation: RunFaulty executes the packet simulator while a
// FaultPlan kills (and possibly heals) links and nodes mid-run. Three layers
// keep traffic flowing, mirroring how real interconnects operate through
// failures:
//
//  1. Fault-adaptive routing. Per-destination next-hop tables are rebuilt
//     against the surviving topology when a failure (or repair) notification
//     arrives (route.BFSNextHops with liveness predicates: the same builder
//     and BFS-parent tie-break as the fault-free tables); notifications
//     propagate after FaultConfig.NotifyDelay cycles, during which packets
//     route on stale tables.
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
// The degraded-mode statistics (FaultStats) extend the fault-free Stats with
// loss, retransmission, misroute, reroute-latency, and disconnection
// counters, plus the latency inflation against a fault-free baseline.
//
// All three layers exist only in a degraded run (the engine's degraded-mode
// rule: the plan is non-empty). A run that is not degraded is Run: it
// builds its tables with nil liveness predicates and routes straight from
// them, installs no fault hooks, hop watchdog or flow table, arms no
// retransmission timer, and skips the deadline abandon pass, so Expired
// counts the measured packets still in flight, Lost is 0, and no
// DropAbandoned event is emitted.
package netsim

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/route"
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

// FaultStats extends Stats with degraded-mode counters. Injected counts
// measured flows (originals, not retransmissions); every measured flow ends
// as either Delivered or Lost.
type FaultStats struct {
	Stats
	// Lost counts measured flows abandoned after MaxRetries retransmissions
	// (or still undelivered at the drain deadline).
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
	// DisconnectedPairs counts lost measured flows whose source and
	// destination had no live path when the flow was abandoned.
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
	src, dst int32
	born     int
	timeout  int // current backoff value
	attempt  int // retransmissions performed
	measured bool
	done     bool // delivered or abandoned
}

// RunFaulty executes the simulation under cfg while applying fc.Plan. It is
// the one materialized simulator: Run is RunFaulty with an empty plan. The
// run follows the engine's degraded-mode rule, so with a nil or empty plan
// it is not degraded and none of the fault machinery exists: no liveness,
// no flow table, no retransmission timers, no hop watchdog, and fc's
// protocol parameters have no effect.
func RunFaulty(cfg Config, fc FaultConfig) (FaultStats, error) {
	if err := cfg.normalize(); err != nil {
		return FaultStats{}, err
	}
	if err := fc.normalize(); err != nil {
		return FaultStats{}, err
	}
	if err := fc.Plan.Validate(cfg.Graph); err != nil {
		return FaultStats{}, err
	}
	return runFaultyNormalized(cfg, fc)
}

// runFaultyNormalized assembles the materialized wiring of the engine and
// runs it. cfg, fc, and the plan must already be normalized/validated;
// RunFaultyWithBaseline calls this directly so baseline and faulty runs
// share one setup pass.
func runFaultyNormalized(cfg Config, fc FaultConfig) (FaultStats, error) {
	g := cfg.Graph
	n := g.N()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pb := cfg.Probe // nil fast path: no obs code runs uninstrumented
	degraded := fc.Plan.Len() > 0

	dense := newDenseLinks(g)
	e := &engine{
		pb:         pb,
		store:      dense,
		ring:       make([][]earrival, cfg.maxServicePeriod()*cfg.Flits+1),
		flits:      cfg.Flits,
		cutThrough: cfg.CutThrough,
		period:     materializedPeriod(&cfg),
		total:      cfg.WarmupCycles + cfg.MeasureCycles,
	}
	e.deadline = e.total + cfg.DrainCycles

	st := FaultStats{}
	var latencySum int64
	outstanding := 0 // measured packets neither delivered nor abandoned

	// ---- per-destination routing tables, built lazily ----
	// The liveness predicates stay nil unless the run is degraded.
	var nodeDead func(int32) bool
	var linkDead func(u, v int32) bool
	var tables []route.NextHopTable
	var allTables [][][]int32
	if cfg.Adaptive {
		allTables = make([][][]int32, n)
	} else {
		tables = make([]route.NextHopTable, n)
	}
	build := func(dst int32) {
		if cfg.Adaptive {
			allTables[dst] = route.BFSAllNextHops(g, dst, nodeDead, linkDead)
		} else {
			tables[dst] = route.BFSNextHops(g, dst, nodeDead, linkDead)
		}
	}
	e.route = func(_ int, at int64, pkt *epacket) (int64, bool, error) {
		dst := int32(pkt.dst)
		if cfg.Adaptive {
			if allTables[dst] == nil {
				build(dst)
			}
			if opts := allTables[dst][at]; len(opts) > 0 {
				return int64(opts[rng.Intn(len(opts))]), true, nil
			}
		} else {
			if tables[dst] == nil {
				build(dst)
			}
			if h := tables[dst][at]; h >= 0 {
				return int64(h), true, nil
			}
		}
		return 0, false, fmt.Errorf("netsim: no route from %d to %d", at, dst)
	}

	delivered := func(now int, at, id int64, lat int, measured bool) {
		if measured {
			st.Delivered++
			outstanding--
			latencySum += int64(lat)
			if lat > st.MaxLatency {
				st.MaxLatency = lat
			}
		}
		if pb != nil {
			pb.Deliver(now, id, at, lat, measured)
		}
	}
	e.deliver = func(now int, at int64, pkt *epacket) {
		delivered(now, at, pkt.id, now-pkt.born, pkt.measured)
	}

	// ---- flow table and retransmission schedule (degraded runs only) ----
	var flows []flowState
	retryAt := map[int][]int32{}
	var nextID int64
	e.inject = func(now int) error {
		for u := 0; u < n; u++ {
			if rng.Float64() >= cfg.InjectionRate {
				continue
			}
			dst := cfg.Pattern(int32(u), n, rng)
			if dst == int32(u) || dst < 0 || int(dst) >= n {
				continue
			}
			if degraded && (nodeDead(int32(u)) || nodeDead(dst)) {
				continue // dead sources stay silent; dead sinks are skipped
			}
			measured := now >= cfg.WarmupCycles
			id := nextID // in a degraded run, also the flow sequence number
			nextID++
			if measured {
				st.Injected++
				outstanding++
			}
			if pb != nil {
				pb.Inject(now, id, int64(u), int64(dst), measured)
			}
			if degraded {
				flows = append(flows, flowState{src: int32(u), dst: dst, born: now,
					timeout: fc.RetransmitTimeout, measured: measured})
				if fc.MaxRetries >= 0 {
					retryAt[now+fc.RetransmitTimeout] = append(retryAt[now+fc.RetransmitTimeout], int32(id))
				}
			}
			if err := e.enqueue(now, int64(u), epacket{id: id, dst: int64(dst),
				born: now, ttl: fc.DetourTTL, measured: measured}); err != nil {
				return err
			}
		}
		return nil
	}
	e.canStop = func(int) bool { return outstanding == 0 }

	// abandon gives up on a pending flow: the flow is lost, and counted as
	// disconnected when its endpoints have no live path.
	abandon := func(now int, seq int32) {
		f := &flows[seq]
		f.done = true
		if pb != nil {
			pb.Drop(now, int64(seq), int64(f.src), obs.DropAbandoned)
		}
		if !f.measured {
			return
		}
		st.Lost++
		outstanding--
		if nodeDead(f.src) || nodeDead(f.dst) || route.BFSNextHops(g, f.dst, nodeDead, linkDead)[f.src] < 0 {
			st.DisconnectedPairs++
		}
	}
	var rerouteLagSum int64
	// finish runs the engine and turns the counters into FaultStats.
	finish := func() (FaultStats, error) {
		if _, err := e.run(); err != nil {
			return st, err
		}
		if degraded {
			// Flows still pending at the deadline are lost; the measured ones
			// are the drain-deadline expiries (a subset of Lost).
			for seq := range flows {
				if !flows[seq].done {
					if flows[seq].measured {
						st.Expired++
					}
					abandon(e.deadline, int32(seq))
				}
			}
		} else {
			st.Expired = outstanding
		}
		if st.Delivered > 0 {
			st.AvgLatency = float64(latencySum) / float64(st.Delivered)
		}
		if st.RerouteEvents > 0 {
			st.MeanTimeToReroute = float64(rerouteLagSum) / float64(st.RerouteEvents)
		}
		if cfg.MeasureCycles > 0 {
			st.Throughput = float64(st.Delivered) / float64(n) / float64(cfg.MeasureCycles)
		}
		st.fillQuantiles(pb)
		return st, nil
	}
	if !degraded {
		return finish()
	}

	// ---- topology liveness (reference-counted for overlapping faults) ----
	nodeDownCnt := make([]int, n)
	nodeDead = func(v int32) bool { return nodeDownCnt[v] > 0 }
	linkDead = func(u, v int32) bool { return dense.at(int64(u), int64(v)).downCnt > 0 }

	// Epoch bookkeeping: epochCycle[e] is the cycle at which epoch e began
	// (one bump per cycle that changed the topology).
	epochCycle := []int{0}
	topoEpoch := 0
	visEpoch := 0 // epochs whose changes have propagated (NotifyDelay old)

	// Scheduled events, bucketed by cycle.
	type topoChange struct {
		kind FaultKind
		u, v int32
		down bool
	}
	changesAt := map[int][]topoChange{}
	for _, ev := range fc.Plan.sorted() {
		changesAt[ev.Cycle] = append(changesAt[ev.Cycle], topoChange{kind: ev.Kind, u: ev.U, v: ev.V, down: true})
		if ev.Transient() {
			changesAt[ev.Repair] = append(changesAt[ev.Repair], topoChange{kind: ev.Kind, u: ev.U, v: ev.V, down: false})
		}
	}

	// freshen rebuilds dst's table when a visible topology change has
	// invalidated it (lazily, on the first packet that needs it).
	tableEpoch := make([]int, n)
	freshen := func(dst int32, now int) {
		built := cfg.Adaptive && allTables[dst] != nil || !cfg.Adaptive && tables[dst] != nil
		if built && tableEpoch[dst] >= visEpoch {
			return
		}
		if built {
			// The first change this table missed began epoch tableEpoch+1.
			st.RerouteEvents++
			lag := now - epochCycle[tableEpoch[dst]+1]
			rerouteLagSum += int64(lag)
			if pb != nil {
				pb.Reroute(now, int64(dst), lag)
			}
		}
		build(dst)
		tableEpoch[dst] = topoEpoch
	}

	// route picks the forwarding hop for a copy at node `at`, preferring
	// the (possibly stale) table and falling back to a TTL-bounded detour.
	// ok=false means the copy is dropped; the source timeout recovers the
	// flow.
	e.route = func(now int, at64 int64, pkt *epacket) (int64, bool, error) {
		at, dst := int32(at64), int32(pkt.dst)
		freshen(dst, now)
		if cfg.Adaptive {
			opts := allTables[dst][at]
			// Filter to currently-live options (the table may be stale).
			live := opts[:0:0]
			for _, v := range opts {
				if !nodeDead(v) && !linkDead(at, v) {
					live = append(live, v)
				}
			}
			if len(live) > 0 {
				return int64(live[rng.Intn(len(live))]), true, nil
			}
		} else {
			h := tables[dst][at]
			if h >= 0 && !nodeDead(h) && !linkDead(at, h) {
				return int64(h), true, nil
			}
		}
		// Detour: misroute to a random live neighbor.
		if pkt.ttl <= 0 {
			if pb != nil {
				pb.Drop(now, pkt.id, at64, obs.DropTTL)
			}
			return 0, false, nil
		}
		adj := g.Neighbors(at)
		var live []int32
		for _, v := range adj {
			if !nodeDead(v) && !linkDead(at, v) {
				live = append(live, v)
			}
		}
		if len(live) == 0 {
			if pb != nil {
				pb.Drop(now, pkt.id, at64, obs.DropNoRoute)
			}
			return 0, false, nil
		}
		pkt.ttl--
		st.MisroutedHops++
		return int64(live[rng.Intn(len(live))]), true, nil
	}
	// The hop-count watchdog kills livelocked copies; the flow recovers at
	// the source.
	e.hopLimit = 8 * n
	e.onHopLimit = func(now int, at int64, pkt *epacket) error {
		if pb != nil {
			pb.Drop(now, pkt.id, at, obs.DropHopLimit)
		}
		return nil
	}

	// Delivery consults the flow table: late copies of an already-done flow
	// are suppressed as duplicates, and latency runs from the flow's first
	// injection.
	e.deliver = func(now int, at int64, pkt *epacket) {
		f := &flows[pkt.id]
		if f.done {
			if f.measured {
				st.Duplicates++
			}
			if pb != nil {
				pb.Drop(now, pkt.id, at, obs.DropDuplicate)
			}
			return
		}
		f.done = true
		delivered(now, at, pkt.id, now-f.born, f.measured)
	}

	applyChange := func(now int, c topoChange) error {
		switch c.kind {
		case NodeFault:
			if pb != nil {
				pb.Fault(now, int64(c.u), -1, true, c.down)
			}
			if c.down {
				nodeDownCnt[c.u]++
				st.FaultsInjected++
				if nodeDownCnt[c.u] == 1 {
					// Everything queued at the dead node is lost.
					for s := range dense.links[c.u] {
						lk := &dense.links[c.u][s]
						if pb != nil {
							for _, pkt := range lk.queue {
								pb.Drop(now, pkt.id, int64(c.u), obs.DropQueueKilled)
							}
						}
						lk.queue = lk.queue[:0]
					}
				}
			} else {
				nodeDownCnt[c.u]--
				st.FaultsRepaired++
			}
		case LinkFault:
			if pb != nil {
				pb.Fault(now, int64(c.u), int64(c.v), false, c.down)
			}
			mark := func(a, b int32) error {
				lk := dense.at(int64(a), int64(b))
				if c.down {
					lk.downCnt++
					if lk.downCnt == 1 && len(lk.queue) > 0 {
						// Re-route the stranded queue from node a.
						q := lk.queue
						lk.queue = nil
						for _, pkt := range q {
							if err := e.enqueue(now, int64(a), pkt); err != nil {
								return err
							}
						}
					}
				} else {
					lk.downCnt--
				}
				return nil
			}
			if err := mark(c.u, c.v); err != nil {
				return err
			}
			if !g.Directed {
				if err := mark(c.v, c.u); err != nil {
					return err
				}
			}
			if c.down {
				st.FaultsInjected++
			} else {
				st.FaultsRepaired++
			}
		}
		return nil
	}
	e.applyChanges = func(now int) error {
		if cs, hit := changesAt[now]; hit {
			for _, c := range cs {
				if err := applyChange(now, c); err != nil {
					return err
				}
			}
			topoEpoch++
			epochCycle = append(epochCycle, now)
		}
		for visEpoch < topoEpoch && epochCycle[visEpoch+1]+fc.NotifyDelay <= now {
			visEpoch++
		}
		return nil
	}
	e.arrivalDead = func(now int, node int64, pkt *epacket) bool {
		if nodeDead(int32(node)) {
			if pb != nil {
				pb.Drop(now, pkt.id, node, obs.DropDeadRouter)
			}
			return true // arrived at a dead router: copy lost
		}
		return false
	}
	e.fireRetries = func(now int) error {
		seqs, hit := retryAt[now]
		if !hit {
			return nil
		}
		for _, seq := range seqs {
			f := &flows[seq]
			if f.done {
				continue
			}
			if f.attempt >= fc.MaxRetries {
				abandon(now, seq)
				continue
			}
			f.attempt++
			if f.measured {
				st.Retransmitted++
			}
			if pb != nil {
				pb.Retransmit(now, int64(seq), int64(f.src), f.attempt)
			}
			f.timeout *= 2
			retryAt[now+f.timeout] = append(retryAt[now+f.timeout], seq)
			if !nodeDead(f.src) {
				if err := e.enqueue(now, int64(f.src), epacket{id: int64(seq), dst: int64(f.dst),
					born: now, ttl: fc.DetourTTL, measured: f.measured}); err != nil {
					return err
				}
			}
		}
		delete(retryAt, now)
		return nil
	}
	e.blocked = func(lk *elink) bool { return nodeDownCnt[lk.u] > 0 || lk.downCnt > 0 }
	return finish()
}

// RunFaultyWithBaseline runs cfg fault-free (Run) and under the plan
// (RunFaulty), and returns the degraded stats with LatencyInflation filled
// in as faulty/baseline average latency, plus the baseline itself. Both runs
// share one setup pass: the configuration is normalized and the plan
// validated once, and both are runFaultyNormalized calls, the baseline with
// the plan removed.
func RunFaultyWithBaseline(cfg Config, fc FaultConfig) (FaultStats, Stats, error) {
	if err := cfg.normalize(); err != nil {
		return FaultStats{}, Stats{}, err
	}
	if err := fc.normalize(); err != nil {
		return FaultStats{}, Stats{}, err
	}
	if err := fc.Plan.Validate(cfg.Graph); err != nil {
		return FaultStats{}, Stats{}, err
	}
	// The baseline is a reference run: detach any probe so collectors see
	// only the faulty run's traffic.
	baseCfg := cfg
	baseCfg.Probe = nil
	baseFC := fc
	baseFC.Plan = nil
	base, err := runFaultyNormalized(baseCfg, baseFC)
	if err != nil {
		return FaultStats{}, Stats{}, err
	}
	faulty, err := runFaultyNormalized(cfg, fc)
	if err != nil {
		return FaultStats{}, Stats{}, err
	}
	if base.AvgLatency > 0 {
		faulty.LatencyInflation = faulty.AvgLatency / base.AvgLatency
	}
	return faulty, base.Stats, nil
}
