// The unified simulation engine. Every simulator in this package runs on
// the one engine in this file: one packet struct (epacket), one link-FIFO/
// active-list core (linkStore: dense for materialized graphs, sparse for
// implicit topologies), one future-arrival ring, one injection sampler, and
// one per-cycle phase order
//
//	tick → apply topology changes → deliver arrivals → fire retransmission
//	timers → inject (or test the drain break) → advance links
//
// parameterized by closures for the parts that genuinely differ. There are
// two wirings of those closures: the materialized one in faultsim.go, which
// serves RunFaulty, RunFaultyWithBaseline and Run (BFS tables or adaptive
// spread over a built graph; Run is RunFaulty with an empty plan), and the
// lane runner in sharded.go, which serves RunImplicit, RunImplicitFaulty
// and RunSharded (any id-space Router; RunImplicit is RunImplicitFaulty
// with an empty plan). The closures capture each variant's statistics
// directly, so the engine itself holds no Stats.
//
// Degraded-mode rule, shared by both wirings: a run is degraded iff its
// fault plan is non-empty. Only a degraded run installs the fault hooks
// (applyChanges, arrivalDead, fireRetries, blocked) and drops and counts a
// packet it cannot route. A run that is not degraded has none of those
// hooks, so it pays nothing for fault tolerance, and a packet it cannot
// route is a hard error. What a degraded run does beyond that is
// documented on RunFaulty and RunImplicitFaulty.
//
// Bit-for-bit compatibility contract: every variant must consume the run's
// RNG in exactly the order the pre-refactor loops did (injection draws,
// adaptive/detour choices) and emit probe events in the same sequence.
// TestEngineGoldenParity pins this against fixtures recorded from the
// original loops.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/obs"
)

// epacket is the one in-flight packet representation shared by all engine
// variants. Fault-free materialized runs use only the narrow prefix (id,
// dst, born, measured); ttl backs a degraded RunFaulty's detour budget,
// hops the livelock watchdogs, and degraded the lane runner's
// detoured-delivery counter. In a degraded RunFaulty, id doubles as the
// flow sequence number.
type epacket struct {
	id       int64
	dst      int64
	born     int
	hops     int
	ttl      int
	measured bool
	degraded bool
}

// elink is the FIFO of one directed link u -> v. downCnt is the
// reference-counted liveness used by the materialized fault simulator
// (overlapping transient faults); the implicit fault simulator keeps
// liveness in its FaultSink instead.
type elink struct {
	u, v    int64
	queue   []epacket
	freeAt  int
	downCnt int
}

// earrival is one scheduled packet arrival in the future-arrival ring.
type earrival struct {
	node int64
	pkt  epacket
}

// linkStore is the adjacency-side parameterization of the engine: how link
// FIFOs are stored and in what deterministic order the advance phase visits
// them. denseLinks materializes one FIFO per directed edge of a
// *graph.Graph; sparseLinks keeps only links that currently hold (or
// recently transmitted) a packet, keyed by the implicit topology's
// (node, port) pair.
type linkStore interface {
	// get returns the FIFO of arc u->v, creating it if needed. It errors
	// when v is not a neighbor of u — a routing-layer bug.
	get(u, v int64) (*elink, error)
	// advance visits the store's links in its deterministic order and
	// transmits the queue head of every link that is free and not blocked.
	advance(now int, e *engine) error
}

// engine is the shared clock/link/arrival core. The two wirings assemble
// one, point the hook closures at their own statistics, and call run().
// Hooks left nil are skipped (runs that are not degraded have no
// applyChanges/fireRetries/arrivalDead/blocked phase at all).
type engine struct {
	pb         obs.Probe
	store      linkStore
	ring       [][]earrival
	flits      int
	cutThrough bool
	period     func(u, v int64) int

	total    int // warmup + measure: injection stops here
	deadline int // total + drain: the run stops here

	// route picks the next hop for pkt at node `at`. ok=false drops the
	// copy (the hook has done the accounting); err aborts the run.
	route func(now int, at int64, pkt *epacket) (nh int64, ok bool, err error)
	// deliver performs delivery bookkeeping for a packet that reached
	// pkt.dst (stats, flow state, probe call).
	deliver func(now int, at int64, pkt *epacket)
	// hopLimit > 0 enables the livelock watchdog: a packet with hops >=
	// hopLimit is handed to onHopLimit instead of being routed, which
	// either accounts a drop (nil error) or aborts the run.
	hopLimit   int
	onHopLimit func(now int, at int64, pkt *epacket) error

	// Optional per-cycle phases, in engine.run order.
	applyChanges func(now int) error
	arrivalDead  func(now int, node int64, pkt *epacket) bool
	fireRetries  func(now int) error
	inject       func(now int) error
	canStop      func(now int) bool
	// blocked gates the advance phase: a true return holds the link's
	// queue this cycle (dead node, dead link).
	blocked func(lk *elink) bool
	// crossSend intercepts a transmitted packet whose head node another
	// lane owns (sharded runs): a true return means the hook captured the
	// packet (into a cross-lane outbox) and it must not enter the local
	// arrival ring. Nil — materialized and single-lane runs — keeps
	// everything local.
	crossSend func(now, delay int, dst int64, pkt epacket) bool
}

// run executes the clock loop until the drain deadline, the variant's early
// break, or an error, and returns the cycle it stopped on.
func (e *engine) run() (int, error) {
	now := 0
	for ; now < e.deadline; now++ {
		stop, err := e.step(now)
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
// arrivals, retransmission timers, injection (or the drain break), link
// advance. The sharded simulator drives lanes through it window by window;
// run() is the sequential wrapper. stop reports the variant's early break.
func (e *engine) step(now int) (stop bool, err error) {
	if e.pb != nil {
		e.pb.Tick(now)
	}
	if e.applyChanges != nil {
		if err := e.applyChanges(now); err != nil {
			return false, err
		}
	}
	slot := now % len(e.ring)
	for i := range e.ring[slot] {
		a := &e.ring[slot][i]
		if e.arrivalDead != nil && e.arrivalDead(now, a.node, &a.pkt) {
			continue
		}
		if err := e.enqueue(now, a.node, a.pkt); err != nil {
			return false, err
		}
	}
	e.ring[slot] = e.ring[slot][:0]
	if e.fireRetries != nil {
		if err := e.fireRetries(now); err != nil {
			return false, err
		}
	}
	if now < e.total {
		if err := e.inject(now); err != nil {
			return false, err
		}
	} else if e.canStop(now) {
		return true, nil
	}
	if err := e.store.advance(now, e); err != nil {
		return false, err
	}
	return false, nil
}

// enqueue routes one packet copy at node `at`: deliver it, drop it on the
// hop watchdog, or append it to the next hop's link FIFO.
func (e *engine) enqueue(now int, at int64, pkt epacket) error {
	if pkt.dst == at {
		e.deliver(now, at, &pkt)
		return nil
	}
	if e.hopLimit > 0 && pkt.hops >= e.hopLimit {
		return e.onHopLimit(now, at, &pkt)
	}
	nh, ok, err := e.route(now, at, &pkt)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	lk, err := e.store.get(at, nh)
	if err != nil {
		return err
	}
	lk.queue = append(lk.queue, pkt)
	if e.pb != nil {
		e.pb.Enqueue(now, pkt.id, at, nh, len(lk.queue))
	}
	return nil
}

// transmit moves the queue head of a free link onto the arrival ring.
func (e *engine) transmit(now int, lk *elink) {
	pkt := lk.queue[0]
	lk.queue = lk.queue[1:]
	p := e.period(lk.u, lk.v)
	occupy := p * e.flits
	lk.freeAt = now + occupy
	delay := occupy // store-and-forward: the whole message arrives together
	if e.cutThrough {
		delay = p // head proceeds while the tail drains
	}
	pkt.hops++
	if e.pb != nil {
		e.pb.Hop(now, pkt.id, lk.u, lk.v, occupy, len(lk.queue))
	}
	if e.crossSend != nil && e.crossSend(now, delay, lk.v, pkt) {
		return
	}
	s := (now + delay) % len(e.ring)
	e.ring[s] = append(e.ring[s], earrival{node: lk.v, pkt: pkt})
}

// ---------------------------------------------------------------------------
// Dense link store: one FIFO per directed edge of a materialized graph,
// visited in (node, adjacency slot) order.

type denseLinks struct {
	links  [][]elink
	slotOf []map[int32]int
}

func newDenseLinks(g *graph.Graph) *denseLinks {
	n := g.N()
	d := &denseLinks{links: make([][]elink, n), slotOf: make([]map[int32]int, n)}
	for u := 0; u < n; u++ {
		adj := g.Neighbors(int32(u))
		d.links[u] = make([]elink, len(adj))
		d.slotOf[u] = make(map[int32]int, len(adj))
		for s, v := range adj {
			d.links[u][s] = elink{u: int64(u), v: int64(v)}
			d.slotOf[u][v] = s
		}
	}
	return d
}

func (d *denseLinks) get(u, v int64) (*elink, error) {
	s, ok := d.slotOf[u][int32(v)]
	if !ok {
		return nil, fmt.Errorf("netsim: next hop %d from %d is not a neighbor", v, u)
	}
	return &d.links[u][s], nil
}

// at returns the FIFO of arc u->v, or nil when v is not a neighbor of u.
// The fault machinery uses it for liveness marks and queue kills.
func (d *denseLinks) at(u, v int64) *elink {
	s, ok := d.slotOf[u][int32(v)]
	if !ok {
		return nil
	}
	return &d.links[u][s]
}

func (d *denseLinks) advance(now int, e *engine) error {
	for u := range d.links {
		for s := range d.links[u] {
			lk := &d.links[u][s]
			if len(lk.queue) == 0 || lk.freeAt > now {
				continue
			}
			if e.blocked != nil && e.blocked(lk) {
				continue
			}
			e.transmit(now, lk)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Sparse link store: only links that currently hold or recently transmitted
// a packet exist, keyed by u*maxDegree + port (port = index of the target in
// u's sorted neighbor list). The active list keeps insertion order so the
// advance phase — and therefore the whole run — is deterministic; idle links
// are reclaimed. This is the link-FIFO key math previously copy-pasted
// between the two implicit simulators.

type sparseLinks struct {
	topo   Topology
	deg    int64
	links  map[int64]*elink
	active []int64
	nbrBuf []int64
}

func newSparseLinks(t Topology) *sparseLinks {
	deg := int64(t.MaxDegree())
	return &sparseLinks{
		topo:   t,
		deg:    deg,
		links:  make(map[int64]*elink),
		nbrBuf: make([]int64, 0, deg),
	}
}

// port returns the index of v in u's sorted neighbor list, or -1 when v is
// not a neighbor of u.
func (s *sparseLinks) port(u, v int64) int {
	s.nbrBuf = s.topo.Neighbors(u, s.nbrBuf)
	p := sort.Search(len(s.nbrBuf), func(i int) bool { return s.nbrBuf[i] >= v })
	if p == len(s.nbrBuf) || s.nbrBuf[p] != v {
		return -1
	}
	return p
}

func (s *sparseLinks) get(u, v int64) (*elink, error) {
	p := s.port(u, v)
	if p < 0 {
		return nil, fmt.Errorf("netsim: next hop %d from %d is not a neighbor", v, u)
	}
	key := u*s.deg + int64(p)
	lk, ok := s.links[key]
	if !ok {
		lk = &elink{u: u, v: v}
		s.links[key] = lk
		s.active = append(s.active, key)
	}
	return lk, nil
}

// peek returns the FIFO of arc u->v when it exists, nil otherwise (v not a
// neighbor, or the link currently idle and reclaimed).
func (s *sparseLinks) peek(u, v int64) *elink {
	p := s.port(u, v)
	if p < 0 {
		return nil
	}
	return s.links[u*s.deg+int64(p)]
}

// eachFrom visits the live FIFOs of u's outgoing links in port order.
func (s *sparseLinks) eachFrom(u int64, fn func(*elink)) {
	for port := int64(0); port < s.deg; port++ {
		if lk, ok := s.links[u*s.deg+port]; ok {
			fn(lk)
		}
	}
}

func (s *sparseLinks) advance(now int, e *engine) error {
	live := s.active[:0]
	for _, key := range s.active {
		lk := s.links[key]
		if len(lk.queue) == 0 {
			if lk.freeAt <= now {
				delete(s.links, key)
				continue
			}
			live = append(live, key)
			continue
		}
		if lk.freeAt > now {
			live = append(live, key)
			continue
		}
		if e.blocked != nil && e.blocked(lk) {
			// Dead tail or dead link: the queue waits for a repair.
			live = append(live, key)
			continue
		}
		e.transmit(now, lk)
		if len(lk.queue) == 0 {
			lk.queue = nil // release the backing array of drained FIFOs
		}
		live = append(live, key)
	}
	s.active = live
	return nil
}

// ---------------------------------------------------------------------------
// Injection sampling, shared by the implicit simulators and the sharded
// engine.

// injectionCount draws the number of packets injected this cycle. Up to
// 2^16 nodes the per-node Bernoulli draws are simulated exactly, matching
// the materialized simulator's semantics; beyond that the aggregate count is
// sampled from the Poisson approximation of Binomial(N, rate) (exact
// multiplicative sampling for small means, a normal approximation above),
// because iterating tens of millions of nodes every cycle would dominate the
// run. Sources are then drawn uniformly, so one node can inject twice in a
// cycle — a vanishing-probability event at the scales where the
// approximation is active.
func injectionCount(n int64, rate float64, rng *rand.Rand) int64 {
	if n <= 1<<16 {
		k := int64(0)
		for i := int64(0); i < n; i++ {
			if rng.Float64() < rate {
				k++
			}
		}
		return k
	}
	lambda := float64(n) * rate
	if lambda == 0 {
		return 0
	}
	if lambda < 30 {
		// Knuth's multiplicative Poisson sampler.
		limit := math.Exp(-lambda)
		k := int64(-1)
		p := 1.0
		for p > limit {
			k++
			p *= rng.Float64()
		}
		return k
	}
	k := int64(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// uniformDst64 draws a uniformly random destination != src over [0, n).
func uniformDst64(src, n int64, rng *rand.Rand) int64 {
	d := rng.Int63n(n - 1)
	if d >= src {
		d++
	}
	return d
}
