// Package obs is the observability layer of the packet simulators: a Probe
// interface that internal/netsim invokes at every interesting event of a run
// (injection, queueing, link transmission, delivery, drops, retransmission,
// topology faults, and routing-table rebuilds) plus a set of built-in
// collectors — log-bucketed latency histograms (LatencyHist), per-link time
// series with CSV/JSONL export (TimeSeries), the module-aggregated time
// series, the one per-module view, whose memory is bounded by module count
// rather than node count (ModuleSeries), a sampled packet-lifecycle tracer emitting Chrome
// trace-event JSON (Trace), a live progress ticker (Progress), and a
// concurrency-safe metrics registry for long-running processes (Registry).
//
// The layer is zero-overhead when disabled: netsim guards every hook with a
// nil check, so an uninstrumented run executes no obs code at all and
// reproduces its statistics bit for bit. Probes must not mutate simulator
// state; they only watch. Collectors are not safe for concurrent use — one
// collector instance belongs to one run — except the Registry, which is
// explicitly built for concurrent writers.
//
// Node ids are int64 throughout: the implicit simulators route id spaces
// far beyond 2^31 (a sym-HSN(4;Q5) has 25,165,824 nodes today and the model
// admits larger instances), so probe events carry the full id width and
// never truncate.
//
// # Probe semantics on implicit runs
//
// netsim.RunImplicit and RunImplicitFaulty allocate link FIFOs lazily: a
// directed link exists in memory only while it holds or recently carried a
// packet. The probe contract is unchanged — Enqueue fires when a packet
// joins the FIFO of a directed link (allocating it if this is the link's
// first use), and Hop fires when the link starts transmitting — so
// collectors cannot tell a lazily allocated link from a preallocated one.
// Two differences are observable: packet ids count every injection (there
// are no retransmissions, so ids are unique per packet, not per flow), and
// Reroute never fires (implicit runs own no routing tables to rebuild —
// fault repair happens inside the router and is reported through
// RouterStats instead).
package obs

import (
	"fmt"
	"io"
	"os"
	"time"
)

// DropReason classifies why the simulator discarded a packet copy. Drops
// only occur in degraded runs (netsim.RunFaulty / RunImplicitFaulty with a
// non-empty fault plan); fault-free runs never drop.
type DropReason uint8

const (
	// DropTTL: the copy exhausted its detour budget around dead components.
	DropTTL DropReason = iota
	// DropNoRoute: no live neighbor existed to forward or detour to.
	DropNoRoute
	// DropHopLimit: the livelock watchdog killed a copy that hopped too long.
	DropHopLimit
	// DropDeadRouter: the copy arrived at a node that had died in transit.
	DropDeadRouter
	// DropQueueKilled: the copy sat queued at a node when the node died.
	DropQueueKilled
	// DropDuplicate: the copy reached a destination that had already
	// accepted another copy of the same flow (suppressed, not an error).
	DropDuplicate
	// DropAbandoned: the source gave up on the flow (MaxRetries exceeded or
	// the drain deadline hit). This is the terminal event of a lost flow.
	DropAbandoned
)

func (r DropReason) String() string {
	switch r {
	case DropTTL:
		return "ttl"
	case DropNoRoute:
		return "no-route"
	case DropHopLimit:
		return "hop-limit"
	case DropDeadRouter:
		return "dead-router"
	case DropQueueKilled:
		return "queue-killed"
	case DropDuplicate:
		return "duplicate"
	case DropAbandoned:
		return "abandoned"
	}
	return fmt.Sprintf("drop(%d)", uint8(r))
}

// Probe receives simulator events. All hooks run synchronously inside the
// simulation loop, so implementations should be cheap; heavy rendering
// belongs after the run. Packet ids are stable per run: every injected
// packet gets a fresh id, and in a degraded netsim.RunFaulty that id is the
// flow sequence number, shared by the original transmission and all its
// retransmitted copies.
type Probe interface {
	// Tick fires once per simulated cycle, before that cycle's events.
	Tick(cycle int)
	// Inject fires when a node sources a new packet (not retransmissions).
	Inject(cycle int, id int64, src, dst int64, measured bool)
	// Enqueue fires when a packet joins the FIFO of the directed link
	// at -> next; qlen is the queue length including the new packet.
	Enqueue(cycle int, id int64, at, next int64, qlen int)
	// Hop fires when the link from -> to starts transmitting a packet;
	// occupy is how many cycles the link stays busy (period * flits) and
	// qlen the queue length left behind.
	Hop(cycle int, id int64, from, to int64, occupy, qlen int)
	// Deliver fires when the destination accepts a packet; latency is in
	// cycles since injection.
	Deliver(cycle int, id int64, node int64, latency int, measured bool)
	// Drop fires when a copy (or, for DropAbandoned, a whole flow) is
	// discarded at node `at`.
	Drop(cycle int, id int64, at int64, reason DropReason)
	// Retransmit fires when a source re-sends an undelivered flow; attempt
	// counts retransmissions so far (1 = first retry).
	Retransmit(cycle int, id int64, src int64, attempt int)
	// Fault fires on topology changes: node is true for node faults (v is
	// then -1), down is true for a failure and false for a repair.
	Fault(cycle int, u, v int64, node, down bool)
	// Reroute fires when a per-destination next-hop table is rebuilt after
	// a topology-change notification; lag is the cycles elapsed between the
	// first change the table missed and this rebuild. Implicit runs never
	// fire it (no tables exist); router-side repair shows up in RouterStats.
	Reroute(cycle int, dst int64, lag int)
}

// NopProbe implements every Probe hook as a no-op; embed it to build
// collectors that only care about a few events.
type NopProbe struct{}

func (NopProbe) Tick(int)                               {}
func (NopProbe) Inject(int, int64, int64, int64, bool)  {}
func (NopProbe) Enqueue(int, int64, int64, int64, int)  {}
func (NopProbe) Hop(int, int64, int64, int64, int, int) {}
func (NopProbe) Deliver(int, int64, int64, int, bool)   {}
func (NopProbe) Drop(int, int64, int64, DropReason)     {}
func (NopProbe) Retransmit(int, int64, int64, int)      {}
func (NopProbe) Fault(int, int64, int64, bool, bool)    {}
func (NopProbe) Reroute(int, int64, int)                {}

// multi fans every event out to a list of probes, in order.
type multi []Probe

// Multi combines probes into one; nil entries are skipped. It returns nil
// when nothing remains (so the simulator keeps its fast path) and the probe
// itself when only one remains.
func Multi(probes ...Probe) Probe {
	var ps multi
	for _, p := range probes {
		if p != nil {
			ps = append(ps, p)
		}
	}
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	}
	return ps
}

func (m multi) Tick(cycle int) {
	for _, p := range m {
		p.Tick(cycle)
	}
}

func (m multi) Inject(cycle int, id int64, src, dst int64, measured bool) {
	for _, p := range m {
		p.Inject(cycle, id, src, dst, measured)
	}
}

func (m multi) Enqueue(cycle int, id int64, at, next int64, qlen int) {
	for _, p := range m {
		p.Enqueue(cycle, id, at, next, qlen)
	}
}

func (m multi) Hop(cycle int, id int64, from, to int64, occupy, qlen int) {
	for _, p := range m {
		p.Hop(cycle, id, from, to, occupy, qlen)
	}
}

func (m multi) Deliver(cycle int, id int64, node int64, latency int, measured bool) {
	for _, p := range m {
		p.Deliver(cycle, id, node, latency, measured)
	}
}

func (m multi) Drop(cycle int, id int64, at int64, reason DropReason) {
	for _, p := range m {
		p.Drop(cycle, id, at, reason)
	}
}

func (m multi) Retransmit(cycle int, id int64, src int64, attempt int) {
	for _, p := range m {
		p.Retransmit(cycle, id, src, attempt)
	}
}

func (m multi) Fault(cycle int, u, v int64, node, down bool) {
	for _, p := range m {
		p.Fault(cycle, u, v, node, down)
	}
}

func (m multi) Reroute(cycle int, dst int64, lag int) {
	for _, p := range m {
		p.Reroute(cycle, dst, lag)
	}
}

// LatencyQuantile lets a combined probe answer quantile queries (the hook
// netsim uses to surface p50/p95/p99 in Stats): the first member that
// carries a latency histogram answers; 0 when none does.
func (m multi) LatencyQuantile(q float64) float64 {
	for _, p := range m {
		if h, ok := p.(interface{ LatencyQuantile(float64) float64 }); ok {
			return h.LatencyQuantile(q)
		}
	}
	return 0
}

// Progress is a live ticker: every Every cycles it writes one status line
// (cycle, injected/delivered/dropped/retransmitted counts, the delivered-
// packet rate over the last window, and — when Total is set — an ETA) to W,
// which defaults to os.Stderr so an uninstrumented CLI run just works and a
// test can capture the output by injecting a buffer. Every <= 0 disables
// printing entirely.
type Progress struct {
	NopProbe
	Every int
	// W receives the status lines; nil means os.Stderr.
	W io.Writer
	// Total is the expected cycle count of the run (warmup + measurement);
	// when positive, each line carries "cycle c/Total" and an ETA
	// extrapolated from the wall-clock pace of the last window. Runs may
	// drain past Total, at which point the ETA column reads "drain".
	Total int

	cycle                              int
	injected, delivered, dropped, retx int64
	lastPrint                          time.Time
	lastDelivered                      int64
	now                                func() time.Time // test hook; nil = time.Now
}

func (p *Progress) Tick(cycle int) {
	p.cycle = cycle
	if p.Every <= 0 || cycle == 0 || cycle%p.Every != 0 {
		return
	}
	w := p.W
	if w == nil {
		w = os.Stderr
	}
	clock := p.now
	if clock == nil {
		clock = time.Now
	}
	t := clock()

	cycleCol := fmt.Sprintf("cycle %d", cycle)
	if p.Total > 0 {
		cycleCol = fmt.Sprintf("cycle %d/%d", cycle, p.Total)
	}
	rateCol, etaCol := "", ""
	if !p.lastPrint.IsZero() {
		if dt := t.Sub(p.lastPrint).Seconds(); dt > 0 {
			rateCol = fmt.Sprintf(" (%.0f/s)", float64(p.delivered-p.lastDelivered)/dt)
			if p.Total > 0 {
				switch {
				case cycle >= p.Total:
					etaCol = " eta drain"
				default:
					// Cycles per wall second over the window just elapsed.
					eta := time.Duration(float64(p.Total-cycle) / (float64(p.Every) / dt) * float64(time.Second))
					etaCol = " eta " + eta.Round(time.Second).String()
				}
			}
		}
	}
	fmt.Fprintf(w, "%s: injected %d delivered %d%s dropped %d retx %d%s\n",
		cycleCol, p.injected, p.delivered, rateCol, p.dropped, p.retx, etaCol)
	p.lastPrint, p.lastDelivered = t, p.delivered
}

func (p *Progress) Inject(int, int64, int64, int64, bool) { p.injected++ }

func (p *Progress) Deliver(int, int64, int64, int, bool) { p.delivered++ }

func (p *Progress) Drop(_ int, _ int64, _ int64, reason DropReason) {
	if reason != DropDuplicate {
		p.dropped++
	}
}

func (p *Progress) Retransmit(int, int64, int64, int) { p.retx++ }
