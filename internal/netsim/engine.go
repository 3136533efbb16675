// The simulation engine. Every simulator in this package runs on the one
// engine in this file: one packet struct (epacket), one link store
// (sparseLinks: only live link FIFOs, keyed by their arc (u, v) in an
// open-addressed table, an arc tested for adjacency only when its link is
// activated, visited in activation order, idle ones recycled; built graphs
// run on it through topo.Materialized like any implicit topology),
// one future-arrival ring, one injection sampler, and one per-cycle phase
// order
//
//	tick → apply topology changes → deliver arrivals → inject (or test
//	the drain break) → advance links
//
// with one wiring: the lane runner in sharded.go, whose lanes (simLane)
// embed the engine and supply the parts that differ as plain methods.
// Every entry point is a run of it: Run, RunFaulty and
// RunFaultyWithBaseline (a built graph, BFS-table routes; Run is RunFaulty
// with an empty plan), RunImplicit and RunImplicitFaulty (any id-space
// Router; RunImplicit is RunImplicitFaulty with an empty plan) are
// single-lane runs, RunSharded a multi-lane one. Every run takes its link
// periods from one module rule (a link between two modules costs
// OffModulePeriod, any other link 1; built graphs name their modules with
// a Partition). What only built graphs need (the BFS-table route hook)
// enters the lane runner through one per-run options struct.
//
// Degraded-mode rule: a run is degraded iff its fault plan is non-empty.
// Only a degraded run runs the fault phases (topology changes, dead
// arrivals, blocked links) and drops a packet it cannot route or that
// exceeds the hop watchdog. A run that is not degraded skips those phases,
// so it pays nothing for fault tolerance, and a packet it cannot route is a
// hard error. Loss rule, one for every run: a dropped measured packet
// counts in Lost once, and each packet has one id, one Inject event and at
// most one terminal Deliver or Drop event. What a degraded run does beyond
// that is documented on RunFaulty and RunImplicitFaulty.
//
// Drain rule, one for every run: once injection has stopped, the run ends
// at the first cycle that has no measured packet in flight and lies past
// the plan's last event, or at the drain deadline.
//
// Bit-for-bit compatibility contract: a run consumes its RNG in a fixed
// order (injection draws, detour choices) and emits probe events
// in a fixed sequence. TestEngineGoldenParity and TestEngineProbeGolden pin
// this against recorded fixtures.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/obs"
	"repro/internal/topo"
)

// epacket is the one in-flight packet representation. id is unique in its
// run, ttl backs a degraded RunFaulty's detour budget, hops the hop
// watchdog, and degraded the detoured-delivery counter.
type epacket struct {
	id       int64
	dst      int64
	born     int
	hops     int
	ttl      int
	measured bool
	degraded bool
}

// elink is the FIFO of one directed link u -> v, stored under its arc in
// the link store. Liveness lives in the run's FaultSink, not here.
type elink struct {
	u, v   int64
	queue  []epacket
	freeAt int
}

// earrival is one scheduled packet arrival in the future-arrival ring.
type earrival struct {
	node int64
	pkt  epacket
}

// engine is the clock/link/arrival core of one lane: every simLane embeds
// one, and the lane runner is the only code that builds them. The per-cycle
// phases call the lane directly; the fault phases (topology changes, dead
// arrivals, blocked links) run only when the run is degraded.
type engine struct {
	pb         obs.Probe
	store      *sparseLinks
	ring       [][]earrival
	flits      int
	cutThrough bool
	// moduleOf and offPeriod are the run's one link-period rule (period).
	moduleOf  func(int64) int64
	offPeriod int
	degraded  bool

	total    int // warmup + measure: injection stops here
	deadline int // total + drain: the run stops here
	// hopLimit is the hop watchdog: a packet with hops >= hopLimit is
	// handed to simLane.hopLimitHit instead of being routed.
	hopLimit int
}

// period is the service time in cycles of link u -> v: offPeriod when it
// joins two modules, 1 inside a module or without modules.
func (e *engine) period(u, v int64) int {
	if e.moduleOf == nil || e.moduleOf(u) == e.moduleOf(v) {
		return 1
	}
	return e.offPeriod
}

// loop executes the clock loop of a single-lane run until the drain
// deadline, the drain rule, or an error, and returns the cycle it stopped
// on.
func (ln *simLane) loop() (int, error) {
	now := 0
	for ; now < ln.deadline; now++ {
		stop, err := ln.step(now)
		if err != nil {
			return now, err
		}
		if stop {
			break
		}
	}
	return now, nil
}

// step executes one cycle of the clock loop: tick, topology changes,
// arrivals, injection (or the drain break), link advance. The multi-lane
// coordinator drives lanes through it window by window; loop() is the
// single-lane clock. stop reports the drain break.
func (ln *simLane) step(now int) (stop bool, err error) {
	if ln.pb != nil {
		ln.pb.Tick(now)
	}
	if ln.degraded {
		if err := ln.applyChanges(now); err != nil {
			return false, err
		}
	}
	slot := now % len(ln.ring)
	for i := range ln.ring[slot] {
		a := &ln.ring[slot][i]
		if ln.degraded && ln.arrivalDead(now, a.node, &a.pkt) {
			continue
		}
		if err := ln.enqueue(now, a.node, a.pkt); err != nil {
			return false, err
		}
	}
	ln.ring[slot] = ln.ring[slot][:0]
	if now < ln.total {
		if err := ln.inject(now); err != nil {
			return false, err
		}
	} else if ln.outbox == nil && ln.inFlight == 0 && now > ln.run.lastChange {
		// A single lane sees all traffic, so it applies the drain rule
		// itself; the coordinator stops multi-lane runs at barriers.
		return true, nil
	}
	ln.store.advance(now, ln)
	return false, nil
}

// enqueue routes one packet at node `at`: deliver it, drop it on the
// hop watchdog, or append it to the next hop's link FIFO.
func (ln *simLane) enqueue(now int, at int64, pkt epacket) error {
	if pkt.dst == at {
		ln.deliver(now, at, &pkt)
		return nil
	}
	if pkt.hops >= ln.hopLimit {
		return ln.hopLimitHit(now, at, &pkt)
	}
	var nh int64
	var ok bool
	var err error
	if ln.tables != nil {
		nh, ok, err = ln.tables.next(now, at, &pkt)
	} else {
		nh, ok, err = ln.route(now, at, &pkt)
	}
	if err != nil || !ok {
		return err
	}
	lk, err := ln.store.get(at, nh)
	if err != nil {
		return err
	}
	lk.queue = append(lk.queue, pkt)
	if ln.pb != nil {
		ln.pb.Enqueue(now, pkt.id, at, nh, len(lk.queue))
	}
	return nil
}

// transmit moves the queue head of a free link onto the arrival ring, or
// into the outbox of the lane owning its head node.
func (ln *simLane) transmit(now int, lk *elink) {
	pkt := lk.queue[0]
	lk.queue = lk.queue[1:]
	p := ln.period(lk.u, lk.v)
	occupy := p * ln.flits
	lk.freeAt = now + occupy
	delay := occupy // store-and-forward: the whole message arrives together
	if ln.cutThrough {
		delay = p // head proceeds while the tail drains
	}
	pkt.hops++
	if ln.pb != nil {
		ln.pb.Hop(now, pkt.id, lk.u, lk.v, occupy, len(lk.queue))
	}
	if ln.outbox != nil {
		if d := ln.run.laneOf(lk.v); d != ln.idx {
			ln.outbox[d] = append(ln.outbox[d], laneSend{cycle: now + delay, node: lk.v, pkt: pkt})
			return
		}
	}
	s := (now + delay) % len(ln.ring)
	ln.ring[s] = append(ln.ring[s], earrival{node: lk.v, pkt: pkt})
}

// ---------------------------------------------------------------------------
// The link store: only links that currently hold or recently transmitted a
// packet exist, keyed by their arc (u, v) in an open-addressed linkTable.
// Only arcs are ever stored, so a table hit needs no check; a miss tests
// adjacency once, through the topology's topo.Adjacency (generator steps
// with an early exit on an implicit topology, a bit test on a hypercube, a
// binary search of the CSR row on a built graph, and for any other topology
// a binary search of the neighbor list Neighbors builds: neighborSearch),
// before it activates the link. The active list holds the links themselves
// in activation order, so the advance phase, and therefore the whole run, is
// deterministic and looks up no key. An idle link goes onto the free list; a
// link taken from it is reset but keeps its queue's backing array.

type sparseLinks struct {
	topo   Topology
	adj    topo.Adjacency
	links  linkTable
	active []*elink
	free   []*elink
	nbrBuf []int64 // eachFrom's neighbor list
}

func newSparseLinks(t Topology) *sparseLinks {
	adj, ok := t.(topo.Adjacency)
	if !ok {
		adj = &neighborSearch{topo: t}
	}
	return &sparseLinks{topo: t, adj: adj, links: newLinkTable()}
}

// neighborSearch is the adjacency test of a topology without one: it builds
// u's sorted neighbor list and binary-searches it for v.
type neighborSearch struct {
	topo Topology
	buf  []int64
}

func (s *neighborSearch) Adjacent(u, v int64) bool {
	if n := s.topo.N(); u < 0 || u >= n {
		return false
	}
	s.buf = s.topo.Neighbors(u, s.buf)
	_, ok := slices.BinarySearch(s.buf, v)
	return ok
}

// get returns the FIFO of arc u->v, activating it if needed. It errors when
// v is not a neighbor of u: a routing-layer bug.
func (s *sparseLinks) get(u, v int64) (*elink, error) {
	if lk := s.links.get(u, v); lk != nil {
		return lk, nil
	}
	if !s.adj.Adjacent(u, v) {
		return nil, fmt.Errorf("netsim: next hop %d from %d is not a neighbor", v, u)
	}
	var lk *elink
	if n := len(s.free); n > 0 {
		lk = s.free[n-1]
		s.free = s.free[:n-1]
		*lk = elink{u: u, v: v, queue: lk.queue[:0]}
	} else {
		lk = &elink{u: u, v: v}
	}
	s.links.put(lk)
	s.active = append(s.active, lk)
	return lk, nil
}

// peek returns the FIFO of arc u->v when it is active, nil otherwise (v not
// a neighbor, or the link idle and recycled).
func (s *sparseLinks) peek(u, v int64) *elink {
	return s.links.get(u, v)
}

// eachFrom visits the active FIFOs of u's outgoing links in the order of
// u's sorted neighbor list.
func (s *sparseLinks) eachFrom(u int64, fn func(*elink)) {
	s.nbrBuf = s.topo.Neighbors(u, s.nbrBuf)
	for _, v := range s.nbrBuf {
		if lk := s.links.get(u, v); lk != nil {
			fn(lk)
		}
	}
}

// advance visits the active links in activation order, transmits the queue
// head of every link that is free and not blocked, and recycles the links
// that are idle.
func (s *sparseLinks) advance(now int, ln *simLane) {
	live := s.active[:0]
	for _, lk := range s.active {
		switch {
		case len(lk.queue) == 0:
			if lk.freeAt <= now {
				s.links.del(lk.u, lk.v)
				s.free = append(s.free, lk)
				continue
			}
		case lk.freeAt > now:
		case ln.degraded && ln.blocked(lk):
			// Dead tail or dead link: the queue waits for a repair.
		default:
			ln.transmit(now, lk)
		}
		live = append(live, lk)
	}
	s.active = live
}

// ---------------------------------------------------------------------------
// Injection sampling: the one sampler of every run.

// injectionSampler draws one cycle's injecting sources among the n nodes a
// lane owns, as owned-node indices in increasing order: every node injects
// with probability rate each cycle, independently of every other node. It
// draws the gap to the next injecting node from Geometric(rate), as
// ⌊ln U / ln(1 − rate)⌋ with U in (0, 1], so it costs one draw per
// injection (plus at most one that ends the cycle) instead of one per
// node, and the caller draws each packet's destination before the next
// gap. A gap that reaches past n ends the cycle; by memorylessness the
// next cycle starts afresh at index 0. Rate 0 draws nothing; at rate 1
// every gap is 0.
type injectionSampler struct {
	n    int64
	logq float64 // ln(1 − rate): 0 at rate 0, −Inf at rate 1
	rng  *rand.Rand
	pos  int64 // the first owned index the cycle's next gap starts from
}

func newInjectionSampler(n int64, rate float64, rng *rand.Rand) injectionSampler {
	return injectionSampler{n: n, logq: math.Log1p(-rate), rng: rng}
}

// start begins a cycle.
func (s *injectionSampler) start() { s.pos = 0 }

// next returns the cycle's next injecting owned index, or -1 when the
// cycle has no more.
func (s *injectionSampler) next() int64 {
	if s.logq == 0 || s.pos >= s.n {
		return -1
	}
	// Compared as a float: a gap past n can exceed the int64 range.
	gap := math.Floor(math.Log(1-s.rng.Float64()) / s.logq)
	if gap >= float64(s.n-s.pos) {
		s.pos = s.n
		return -1
	}
	i := s.pos + int64(gap)
	s.pos = i + 1
	return i
}

// uniformDst64 draws a uniformly random destination != src over [0, n).
func uniformDst64(src, n int64, rng *rand.Rand) int64 {
	d := rng.Int63n(n - 1)
	if d >= src {
		d++
	}
	return d
}
