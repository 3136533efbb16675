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
	"repro/internal/route"
	"repro/internal/topo"
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
	// packet with a uniformly random destination.
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
	// Adaptive, when true, spreads traffic across ALL minimal next hops
	// (random choice per packet per hop) instead of a single deterministic
	// shortest-path tree. Paths stay minimal; load balance improves.
	Adaptive bool
	// PeriodFunc, when non-nil, overrides Partition/OffModulePeriod with an
	// arbitrary per-link service time — e.g. a multi-level packaging
	// hierarchy (chip / board / cage) with different speeds per level.
	// Must return >= 1 for every link of the graph; Run validates this up
	// front and returns an error on violation.
	PeriodFunc func(u, v int32) int
	// Probe, when non-nil, receives per-event callbacks during the run
	// (injection, queueing, transmission, delivery, drops, retransmission,
	// faults, reroutes) — see internal/obs for the hook contract and the
	// built-in collectors. A nil Probe costs nothing: every hook sits
	// behind a nil check, and an uninstrumented run reproduces its Stats
	// bit for bit. Probes must not mutate simulator state.
	Probe obs.Probe
}

// normalize applies defaults and validates the configuration. It is shared
// by Run and RunFaulty so both reject the same bad inputs: a missing or
// trivial graph, an injection rate outside [0,1], and a PeriodFunc that
// returns a period < 1 on any link of the topology.
func (cfg *Config) normalize() error {
	g := cfg.Graph
	if g == nil || g.N() < 2 {
		return fmt.Errorf("netsim: need a graph with at least 2 nodes")
	}
	if cfg.OffModulePeriod < 1 {
		cfg.OffModulePeriod = 1
	}
	if cfg.InjectionRate < 0 || cfg.InjectionRate > 1 {
		return fmt.Errorf("netsim: injection rate %v out of [0,1]", cfg.InjectionRate)
	}
	if cfg.DrainCycles == 0 {
		cfg.DrainCycles = 10 * (cfg.WarmupCycles + cfg.MeasureCycles)
	}
	if cfg.Flits < 1 {
		cfg.Flits = 1
	}
	if cfg.Pattern == nil {
		cfg.Pattern = Uniform
	}
	if cfg.PeriodFunc != nil {
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(int32(u)) {
				if p := cfg.PeriodFunc(int32(u), v); p < 1 {
					return fmt.Errorf("netsim: PeriodFunc(%d,%d) = %d, must be >= 1", u, v, p)
				}
			}
		}
	}
	return nil
}

// maxServicePeriod returns the largest link service period of the
// (normalized) configuration; it bounds the in-flight delay and sizes the
// arrival ring buffer.
func (cfg *Config) maxServicePeriod() int {
	maxPeriod := cfg.OffModulePeriod
	if cfg.PeriodFunc != nil {
		g := cfg.Graph
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(int32(u)) {
				if p := cfg.PeriodFunc(int32(u), v); p > maxPeriod {
					maxPeriod = p
				}
			}
		}
	}
	return maxPeriod
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
	// Expired counts measured packets still in flight when the drain
	// deadline hit; Injected == Delivered + Expired for fault-free runs.
	// (For faulty runs the analogous deadline losses are a subset of
	// FaultStats.Lost — see that field.)
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

// materializedPeriod is the link service-period policy of the materialized
// configurations, shared by Run and RunFaulty: PeriodFunc overrides
// everything, otherwise off-module links (per Partition) cost
// OffModulePeriod and on-module links cost 1.
func materializedPeriod(cfg *Config) func(u, v int64) int {
	return func(u, v int64) int {
		if cfg.PeriodFunc != nil {
			return cfg.PeriodFunc(int32(u), int32(v)) // >= 1, validated by normalize
		}
		if cfg.Partition == nil || cfg.Partition.Of[u] == cfg.Partition.Of[v] {
			return 1
		}
		return cfg.OffModulePeriod
	}
}

// Run executes the simulation. For runs that inject failures mid-flight see
// RunFaulty.
func Run(cfg Config) (Stats, error) {
	if err := cfg.normalize(); err != nil {
		return Stats{}, err
	}
	return runNormalized(cfg)
}

// runNormalized assembles the fault-free materialized variant of the engine
// and runs it. cfg must already be normalized; RunFaultyWithBaseline calls
// this directly so baseline and faulty runs share one setup pass.
func runNormalized(cfg Config) (Stats, error) {
	g := cfg.Graph
	n := g.N()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-destination next-hop tables, built lazily.
	table := topo.NewTable(g)
	var allTables [][][]int32
	if cfg.Adaptive {
		allTables = make([][][]int32, n)
	}

	st := Stats{}
	var latencySum int64
	inFlightMeasured := 0
	var nextID int64

	e := &engine{
		pb:         cfg.Probe, // nil fast path: no obs code runs uninstrumented
		store:      newDenseLinks(g),
		ring:       make([][]earrival, cfg.maxServicePeriod()*cfg.Flits+1),
		flits:      cfg.Flits,
		cutThrough: cfg.CutThrough,
		period:     materializedPeriod(&cfg),
		total:      cfg.WarmupCycles + cfg.MeasureCycles,
	}
	e.deadline = e.total + cfg.DrainCycles
	e.route = func(_ int, at int64, pkt *epacket) (int64, bool, error) {
		if !cfg.Adaptive {
			nh, err := table.NextHop(at, pkt.dst)
			return nh, err == nil, err
		}
		cur, dst := int32(at), int32(pkt.dst)
		if allTables[dst] == nil {
			allTables[dst] = route.BFSAllNextHops(g, dst)
		}
		opts := allTables[dst][cur]
		if len(opts) == 0 {
			return 0, false, fmt.Errorf("netsim: no route from %d to %d", cur, dst)
		}
		return int64(opts[rng.Intn(len(opts))]), true, nil
	}
	e.deliver = func(now int, at int64, pkt *epacket) {
		lat := now - pkt.born
		if pkt.measured {
			st.Delivered++
			inFlightMeasured--
			latencySum += int64(lat)
			if lat > st.MaxLatency {
				st.MaxLatency = lat
			}
		}
		if e.pb != nil {
			e.pb.Deliver(now, pkt.id, at, lat, pkt.measured)
		}
	}
	e.inject = func(now int) error {
		for u := 0; u < n; u++ {
			if rng.Float64() < cfg.InjectionRate {
				dst := cfg.Pattern(int32(u), n, rng)
				if dst == int32(u) || dst < 0 || int(dst) >= n {
					continue
				}
				measured := now >= cfg.WarmupCycles
				if measured {
					st.Injected++
					inFlightMeasured++
				}
				id := nextID
				nextID++
				if e.pb != nil {
					e.pb.Inject(now, id, int64(u), int64(dst), measured)
				}
				if err := e.enqueue(now, int64(u), epacket{id: id, dst: int64(dst), born: now, measured: measured}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	e.canStop = func(int) bool { return inFlightMeasured == 0 }

	if _, err := e.run(); err != nil {
		return st, err
	}
	st.Expired = inFlightMeasured
	if st.Delivered > 0 {
		st.AvgLatency = float64(latencySum) / float64(st.Delivered)
	}
	if cfg.MeasureCycles > 0 {
		st.Throughput = float64(st.Delivered) / float64(n) / float64(cfg.MeasureCycles)
	}
	st.fillQuantiles(e.pb)
	return st, nil
}

// LoadSweep runs the simulation at each injection rate and returns the
// stats, the standard throughput-vs-offered-load curve of the evaluation
// harness. The config's InjectionRate field is ignored.
func LoadSweep(cfg Config, rates []float64) ([]Stats, error) {
	out := make([]Stats, 0, len(rates))
	for _, rate := range rates {
		c := cfg
		c.InjectionRate = rate
		st, err := Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
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
