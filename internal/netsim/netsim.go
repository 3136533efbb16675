// Package netsim is a synchronous packet-switched network simulator used to
// back the paper's Section 5 performance arguments empirically. The paper
// argues analytically that, when transmissions over off-module links are
// slower (or more contended) than on-module links, the latency of a network
// under light load tracks its II-cost (inter-cluster degree times
// inter-cluster diameter) and the DD-/ID-costs in the equal-speed cases.
// The authors had no testbed; this simulator is the synthetic equivalent:
// one outgoing FIFO per directed link, configurable message length with
// store-and-forward or cut-through switching, uniform/transpose/complement/
// hotspot traffic patterns, and a configurable service period for
// off-module links.
package netsim

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Config parameterizes a simulation run.
type Config struct {
	// Graph is the network topology (undirected or directed).
	Graph *graph.Graph
	// Partition optionally assigns nodes to modules; links inside a module
	// are fast, links between modules are slow. Nil means one module.
	Partition *metrics.Partition
	// OffModulePeriod is the service time in cycles of an off-module link
	// (on-module links always have period 1). 1 = all links equal.
	OffModulePeriod int
	// InjectionRate is the probability per node per cycle of injecting a
	// packet, independently of every other node; Pattern picks its
	// destination (uniform by default).
	InjectionRate float64
	// WarmupCycles are simulated but packets injected during them are not
	// measured. MeasureCycles follow; then the run drains in-flight
	// measured packets for up to DrainCycles.
	WarmupCycles, MeasureCycles, DrainCycles int
	// Seed makes runs deterministic.
	Seed int64
	// Flits is the message length in flits (default 1). A link transmitting
	// a message stays busy for Flits * period cycles.
	Flits int
	// CutThrough, when true, lets the head flit proceed to the next node
	// after one link period while the tail still occupies the link
	// (cut-through / wormhole-style pipelining). When false, messages are
	// forwarded store-and-forward: the whole message must arrive before the
	// next hop begins.
	CutThrough bool
	// Pattern selects the destination for a packet injected at src (nil =
	// uniform random over the other nodes). See Uniform, Transpose,
	// BitComplement, Hotspot.
	Pattern PatternFunc
	// Probe, when non-nil, receives per-event callbacks during the run
	// (injection, queueing, transmission, delivery, drops, faults,
	// reroutes) — see internal/obs for the hook contract and the
	// built-in collectors. A nil Probe costs nothing: every hook sits
	// behind a nil check, and an uninstrumented run reproduces its Stats
	// bit for bit. Probes must not mutate simulator state.
	Probe obs.Probe
}

// normalize validates what only the materialized simulator (RunFaulty, and
// so Run) has and applies its defaults: it rejects a missing or trivial
// graph and a Partition that does not cover the graph's nodes
// (metrics.Partition.Validate). The settings every run shares (injection
// rate, drain, flits, and the link periods the Partition and
// OffModulePeriod decide) are checked and applied by the lane runner.
func (cfg *Config) normalize() error {
	g := cfg.Graph
	if g == nil || g.N() < 2 {
		return fmt.Errorf("netsim: need a graph with at least 2 nodes")
	}
	if cfg.OffModulePeriod < 1 {
		cfg.OffModulePeriod = 1
	}
	if cfg.Pattern == nil {
		cfg.Pattern = Uniform
	}
	if cfg.Partition != nil {
		if err := cfg.Partition.Validate(g.N()); err != nil {
			return err
		}
	}
	return nil
}

// PatternFunc picks a destination for a packet injected at src; returning
// src means "skip this injection" (used by patterns with fixed pairings).
type PatternFunc func(src int32, n int, rng *rand.Rand) int32

// Uniform is the default pattern: a uniformly random destination != src.
func Uniform(src int32, n int, rng *rand.Rand) int32 {
	d := int32(rng.Intn(n - 1))
	if d >= src {
		d++
	}
	return d
}

// Transpose sends node (x,y) to (y,x): the id's high and low bit halves are
// swapped. The swap is only well defined when n is a power of two with an
// even exponent (so the id splits into two equal halves). For every other
// size — odd exponents like n=32 as well as non-powers-of-two like n=12 —
// Transpose explicitly falls back to BitComplement(src, n, nil), which in
// turn degrades to the antipode (src + n/2) mod n when n is not a power of
// two. The fallback keeps sweeps over heterogeneous topologies (e.g. star
// graphs with n = k!) runnable with a single pattern flag.
func Transpose(src int32, n int, _ *rand.Rand) int32 {
	bitsN := 0
	for 1<<bitsN < n {
		bitsN++
	}
	if 1<<bitsN != n || bitsN%2 != 0 {
		return BitComplement(src, n, nil)
	}
	half := bitsN / 2
	lo := src & (1<<half - 1)
	hi := src >> half
	return lo<<half | hi
}

// BitComplement sends node src to its bitwise complement. Complementing
// only permutes the id space when n is a power of two; for any other size
// the function explicitly falls back to the antipode (src + n/2) mod n,
// which is the closest "maximally distant partner" analogue that stays a
// permutation (odd n pairs node i with i + floor(n/2), which is a
// derangement-like pairing rather than an involution).
func BitComplement(src int32, n int, _ *rand.Rand) int32 {
	bitsN := 0
	for 1<<bitsN < n {
		bitsN++
	}
	if 1<<bitsN == n {
		return src ^ int32(n-1)
	}
	return (src + int32(n/2)) % int32(n)
}

// Hotspot returns a pattern that sends traffic to node 0 with probability
// p and uniformly otherwise. p must lie in [0,1]: anything else would
// silently clamp inside rng.Float64() comparisons (p<0 behaves as 0, p>1 as
// 1) and misreport the offered hotspot fraction, so it is rejected instead.
func Hotspot(p float64) (PatternFunc, error) {
	if p < 0 || p > 1 || p != p {
		return nil, fmt.Errorf("netsim: hotspot probability %v out of [0,1]", p)
	}
	return func(src int32, n int, rng *rand.Rand) int32 {
		if rng.Float64() < p && src != 0 {
			return 0
		}
		return Uniform(src, n, rng)
	}, nil
}

// Stats reports the outcome of a run.
type Stats struct {
	// Injected counts measured packets (injected during the measurement
	// window); Delivered counts those that reached their destination before
	// the drain deadline.
	Injected, Delivered int
	// Expired counts measured packets (on a degraded built graph, flows)
	// still in flight when the drain deadline hit. Every run obeys
	// Injected == Delivered + FaultStats.Lost + Expired, with Lost 0 when
	// there is no plan.
	Expired int
	// AvgLatency is the mean delivery latency (cycles) of measured packets.
	AvgLatency float64
	// MaxLatency is the worst delivery latency observed.
	MaxLatency int
	// P50Latency, P95Latency and P99Latency are delivery-latency quantiles
	// in cycles (log-bucket interpolated), filled only when the run's
	// Probe carries a latency histogram (obs.LatencyHist, possibly inside
	// obs.Multi); zero otherwise.
	P50Latency, P95Latency, P99Latency float64
	// Throughput is delivered measured packets per node per cycle.
	Throughput float64
}

// LatencySummary is the optional interface a Probe implements to surface
// latency quantiles in Stats; obs.LatencyHist and obs.Multi satisfy it.
type LatencySummary interface {
	LatencyQuantile(q float64) float64
}

// fillQuantiles copies p50/p95/p99 out of the probe's histogram, when the
// probe carries one.
func (st *Stats) fillQuantiles(p obs.Probe) {
	if h, ok := p.(LatencySummary); ok {
		st.P50Latency = h.LatencyQuantile(0.50)
		st.P95Latency = h.LatencyQuantile(0.95)
		st.P99Latency = h.LatencyQuantile(0.99)
	}
}

// Run executes the simulation fault-free. It is RunFaulty with an empty
// plan, which is not degraded: packets route straight from per-destination
// BFS tables (route.BFSNextHops), and measured packets still in flight at
// the drain deadline count as Expired.
func Run(cfg Config) (Stats, error) {
	fs, err := RunFaulty(cfg, FaultConfig{})
	return fs.Stats, err
}

// Saturation estimates the saturation throughput of the network: the
// highest injection rate at which at least accept (e.g. 0.9) of the
// measured packets are delivered by the drain deadline, found by binary
// search over [0, hi]. Returns the rate and its stats. The paper's Section
// 5.1 observation — maximum throughput inversely proportional to average
// distance — can be checked against metrics.ThroughputBound.
func Saturation(cfg Config, hi float64, accept float64, steps int) (float64, Stats, error) {
	if hi <= 0 || hi > 1 {
		return 0, Stats{}, fmt.Errorf("netsim: hi rate %v out of (0,1]", hi)
	}
	if accept <= 0 || accept > 1 {
		return 0, Stats{}, fmt.Errorf("netsim: accept fraction %v out of (0,1]", accept)
	}
	lo := 0.0
	var best Stats
	bestRate := 0.0
	for i := 0; i < steps; i++ {
		mid := (lo + hi) / 2
		c := cfg
		c.InjectionRate = mid
		// Keep the drain short: a sustainable rate leaves only in-flight
		// packets at the end of the measurement window, while an
		// over-saturated rate leaves a backlog that a short drain cannot
		// clear — which is exactly the signal the search needs.
		if c.DrainCycles == 0 {
			c.DrainCycles = 100
		}
		st, err := Run(c)
		if err != nil {
			return 0, Stats{}, err
		}
		if st.Injected > 0 && float64(st.Delivered) >= accept*float64(st.Injected) {
			lo, best, bestRate = mid, st, mid
		} else {
			hi = mid
		}
	}
	return bestRate, best, nil
}
