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
//
// Every run enters through RunImplicit, RunImplicitFaulty or RunSharded,
// whatever its topology: a built graph is a topo.Materialized routed by a
// topo.BFSRouter, an implicit super-IP graph a topo.Implicit routed by
// topo.Algebraic. The package sees only the topo.Topology and topo.Router
// contracts.
package netsim

import (
	"fmt"
	"math/rand"
)

// Transpose sends node (x,y) to (y,x): the id's high and low bit halves are
// swapped. The swap is only well defined when n is a power of two with an
// even exponent (so the id splits into two equal halves). For every other
// size — odd exponents like n=32 as well as non-powers-of-two like n=12 —
// Transpose explicitly falls back to BitComplement(src, n, nil), which in
// turn degrades to the antipode (src + n/2) mod n when n is not a power of
// two. The fallback keeps sweeps over heterogeneous topologies (e.g. star
// graphs with n = k!) runnable with a single pattern flag.
func Transpose(src, n int64, _ *rand.Rand) int64 {
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
func BitComplement(src, n int64, _ *rand.Rand) int64 {
	bitsN := 0
	for 1<<bitsN < n {
		bitsN++
	}
	if 1<<bitsN == n {
		return src ^ (n - 1)
	}
	return (src + n/2) % n
}

// Hotspot returns a pattern that sends traffic to node 0 with probability
// p and uniformly otherwise. p must lie in [0,1]: anything else would
// silently clamp inside rng.Float64() comparisons (p<0 behaves as 0, p>1 as
// 1) and misreport the offered hotspot fraction, so it is rejected instead.
func Hotspot(p float64) (func(src, n int64, rng *rand.Rand) int64, error) {
	if p < 0 || p > 1 || p != p {
		return nil, fmt.Errorf("netsim: hotspot probability %v out of [0,1]", p)
	}
	return func(src, n int64, rng *rand.Rand) int64 {
		if rng.Float64() < p && src != 0 {
			return 0
		}
		return uniformDst64(src, n, rng)
	}, nil
}

// Saturation estimates the saturation throughput of the network: the
// highest injection rate at which at least accept (e.g. 0.9) of the
// measured packets are delivered by the drain deadline, found by binary
// search over [0, hi]. Returns the rate and its stats. The paper's Section
// 5.1 observation — maximum throughput inversely proportional to average
// distance — can be checked against metrics.ThroughputBound. Every step is
// a fault-free RunImplicit of cfg at its own rate, so cfg.Router serves
// all of them: a router's routes do not depend on the traffic, and a
// table router (topo.BFSRouter) builds each table once for the search.
func Saturation(cfg ImplicitConfig, hi float64, accept float64, steps int) (float64, ImplicitFaultStats, error) {
	if hi <= 0 || hi > 1 {
		return 0, ImplicitFaultStats{}, fmt.Errorf("netsim: hi rate %v out of (0,1]", hi)
	}
	if accept <= 0 || accept > 1 {
		return 0, ImplicitFaultStats{}, fmt.Errorf("netsim: accept fraction %v out of (0,1]", accept)
	}
	lo := 0.0
	var best ImplicitFaultStats
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
		st, err := RunImplicit(c)
		if err != nil {
			return 0, ImplicitFaultStats{}, err
		}
		if st.Injected > 0 && float64(st.Delivered) >= accept*float64(st.Injected) {
			lo, best, bestRate = mid, st, mid
		} else {
			hi = mid
		}
	}
	return bestRate, best, nil
}
