// Package obs is the observability layer of the packet simulator: a Probe
// interface that internal/netsim invokes at every interesting event of a run
// (injection, queueing, link transmission, delivery, drops and topology
// faults) plus a set of built-in collectors:
// log-bucketed latency histograms (LatencyHist); per-link time series with
// CSV/JSONL export (TimeSeries); the module-aggregated time series
// (ModuleSeries), the one per-module view, whose memory is bounded by the
// module count rather than the node count; a sampled packet-lifecycle
// tracer emitting Chrome trace-event JSON (Trace); a live progress ticker
// (Progress); and a concurrency-safe metrics registry for long-running
// processes (Registry).
//
// The layer is zero-overhead when disabled: netsim guards every hook with a
// nil check, so an uninstrumented run executes no obs code at all and
// reproduces its statistics bit for bit. Probes must not mutate simulator
// state; they only watch. Collectors are not safe for concurrent use — one
// collector instance belongs to one run — except the Registry, which is
// safe to read while it is written.
//
// Node ids are int64 throughout: implicit topologies have id spaces
// far beyond 2^31 (a sym-HSN(4;Q5) has 25,165,824 nodes today and the model
// admits larger instances), so probe events carry the full id width and
// never truncate.
//
// # Probe semantics across the simulator's runs
//
// Every netsim entry point (RunImplicit, RunImplicitFaulty, RunSharded,
// on built graphs and implicit topologies alike) is a run of one engine
// wiring, so the hooks fire in the same per-cycle phase order everywhere:
// Tick, then topology changes, arrivals, injection and link advance (a
// multi-lane run replays each cycle lane by lane, in lane order). Every
// run allocates link FIFOs lazily (a directed link exists in memory only
// while it holds or recently carried a packet), but
// the contract is unchanged — Enqueue fires when a packet joins the FIFO of
// a directed link, Hop when the link starts transmitting — so collectors
// cannot tell a lazily allocated link from a preallocated one. Every run
// gives each packet a unique id, so a packet has exactly one Inject and at
// most one terminal event, Deliver or Drop; a packet with neither was
// still in flight when the run ended. Route repair happens inside each
// run's router, built-graph table rebuilds included, and shows up in
// RouterStats, not in the probe stream.
package obs

import (
	"fmt"
	"io"
	"os"
	"time"
)

// DropReason classifies why the simulator discarded a packet. Drops
// only occur in degraded runs (netsim.RunImplicitFaulty or RunSharded
// with a non-empty fault plan); fault-free runs never drop.
type DropReason uint8

const (
	// DropNoRoute: no live route existed to forward it by (its
	// destination dead or cut off).
	DropNoRoute DropReason = iota
	// DropHopLimit: the livelock watchdog killed a packet that hopped too long.
	DropHopLimit
	// DropDeadRouter: the packet arrived at a node that had died in transit.
	DropDeadRouter
	// DropQueueKilled: the packet sat queued at a node when the node died.
	DropQueueKilled
)

func (r DropReason) String() string {
	switch r {
	case DropNoRoute:
		return "no-route"
	case DropHopLimit:
		return "hop-limit"
	case DropDeadRouter:
		return "dead-router"
	case DropQueueKilled:
		return "queue-killed"
	}
	return fmt.Sprintf("drop(%d)", uint8(r))
}

// Probe receives simulator events. All hooks run synchronously inside the
// simulation loop, so implementations should be cheap; heavy rendering
// belongs after the run. Packet ids are unique per run: every injected
// packet gets a fresh id, which all of its events carry.
type Probe interface {
	// Tick fires once per simulated cycle, before that cycle's events.
	Tick(cycle int)
	// Inject fires when a node sources a new packet.
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
	// Drop fires when a packet is discarded at node `at`; like Deliver,
	// it ends the packet.
	Drop(cycle int, id int64, at int64, reason DropReason)
	// Fault fires on topology changes: node is true for node faults (v is
	// then -1), down is true for a failure and false for a repair.
	Fault(cycle int, u, v int64, node, down bool)
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
func (NopProbe) Fault(int, int64, int64, bool, bool)    {}

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

func (m multi) Fault(cycle int, u, v int64, node, down bool) {
	for _, p := range m {
		p.Fault(cycle, u, v, node, down)
	}
}

// Progress is a live ticker: every Every cycles it writes one status line
// (cycle, injected/delivered/dropped counts, the delivered-
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

	cycle                        int
	injected, delivered, dropped int64
	lastPrint                    time.Time
	lastDelivered                int64
	now                          func() time.Time // test hook; nil = time.Now
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
	fmt.Fprintf(w, "%s: injected %d delivered %d%s dropped %d%s\n",
		cycleCol, p.injected, p.delivered, rateCol, p.dropped, etaCol)
	p.lastPrint, p.lastDelivered = t, p.delivered
}

func (p *Progress) Inject(int, int64, int64, int64, bool) { p.injected++ }

func (p *Progress) Deliver(int, int64, int64, int, bool) { p.delivered++ }

func (p *Progress) Drop(int, int64, int64, DropReason) { p.dropped++ }
