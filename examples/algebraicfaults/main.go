// Algebraicfaults: fault tolerance without the graph. The symmetric super-IP
// variants are Cayley graphs, so their edge connectivity equals their degree
// κ and Menger guarantees κ edge-disjoint routes between every pair. This
// example realizes those routes purely algebraically (topo.DisjointRoutes:
// generator-conjugate detours driven by flow augmentation over the implicit
// neighbor oracle), then demonstrates the worst case the theorem permits:
// cut κ−1 of the routes and the fault-aware router still delivers — first on
// every small symmetric family, then on sym-HSN(4;Q5) with 25,165,824 nodes,
// a graph that is never materialized.
//
// The final section runs the degraded-mode packet simulator over an implicit
// topology (netsim.RunImplicitFaulty) and sweeps the fault count: delivered
// fraction, latency inflation, and reroute work, all computed without a
// single O(N) allocation.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/netsim"
	"repro/internal/superip"
	"repro/internal/topo"
)

func main() {
	disjointTable()
	bigInstance()
	degradedSweep()
}

// cutAllButOne fails the first link of every disjoint route except one whose
// first hop differs from the primary route's first hop (the routes leave src
// by κ distinct arcs, so such a spare exists whenever κ >= 2). Returns the
// index of the spared route.
func cutAllButOne(fs *topo.FaultSet, routes [][]int64, primary []int64) int {
	spare := -1
	for i, rt := range routes {
		if rt[1] != primary[1] {
			spare = i
			break
		}
	}
	for i, rt := range routes {
		if i != spare {
			fs.FailLinkBoth(rt[0], rt[1])
		}
	}
	return spare
}

// walk drives the fault-aware router hop by hop and returns the number of
// hops taken and whether any hop was flagged as detoured.
func walk(fa *topo.FaultAware, src, dst int64, bound int) (int, bool, error) {
	cur, degraded, hops := src, false, 0
	for cur != dst {
		if hops > bound {
			return hops, degraded, fmt.Errorf("no delivery within %d hops", bound)
		}
		nxt, deg, err := fa.NextHopFlagged(cur, dst)
		if err != nil {
			return hops, degraded, err
		}
		degraded = degraded || deg
		cur = nxt
		hops++
	}
	return hops, degraded, nil
}

// disjointTable derives the κ edge-disjoint routes for a distant pair on
// each small symmetric family and survives κ−1 worst-case link cuts.
func disjointTable() {
	fmt.Println("=== κ edge-disjoint algebraic routes, then κ−1 worst-case cuts ===")
	fmt.Println("(symmetric variants are Cayley graphs: edge connectivity = degree κ)")
	fmt.Println()
	nets := []*superip.Net{
		superip.HSN(3, superip.NucleusHypercube(2)).SymmetricVariant(),
		superip.RingCN(3, superip.NucleusHypercube(2)).SymmetricVariant(),
		superip.CompleteCN(2, superip.NucleusHypercube(3)).SymmetricVariant(),
		superip.SuperFlip(3, superip.NucleusHypercube(2)).SymmetricVariant(),
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "network\tN\tκ\troutes\tprimary\tlongest\tcut κ−1: hops\tdegraded")
	for _, net := range nets {
		imp, err := topo.NewImplicit(net.Super())
		if err != nil {
			log.Fatal(err)
		}
		router, err := topo.NewAlgebraic(net.Super())
		if err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		n := imp.N()
		src := rng.Int63n(n)
		dst := rng.Int63n(n - 1)
		if dst >= src {
			dst++
		}
		routes, err := topo.DisjointRoutes(imp, router, src, dst)
		if err != nil {
			log.Fatal(err)
		}
		primary, err := router.Path(src, dst)
		if err != nil {
			log.Fatal(err)
		}
		longest := 0
		for _, rt := range routes {
			if len(rt)-1 > longest {
				longest = len(rt) - 1
			}
		}
		inner, err := topo.NewAlgebraic(net.Super())
		if err != nil {
			log.Fatal(err)
		}
		fs := topo.NewFaultSet()
		fa := topo.NewFaultAware(imp, inner, fs)
		cutAllButOne(fs, routes, primary)
		hops, degraded, err := walk(fa, src, dst, 4*net.Diameter()+fa.MaxDetourTTL+16)
		if err != nil {
			log.Fatalf("%s: %v", net.Name(), err)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			net.Name(), n, net.Degree(), len(routes), len(primary)-1, longest, hops, degraded)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nEvery family yields exactly κ routes (Menger's bound, realized by")
	fmt.Println("label arithmetic alone), and with κ−1 of them cut the router")
	fmt.Println("delivers over the survivor at a modest hop premium.")
}

// bigInstance repeats the κ−1 demonstration on sym-HSN(4;Q5): 25,165,824
// nodes, degree 8 — an order of magnitude past the materialization ceiling.
func bigInstance() {
	net := superip.HSN(4, superip.NucleusHypercube(5)).SymmetricVariant()
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		log.Fatal(err)
	}
	router, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== the same, at scale: %s, N = %d (never materialized) ===\n\n",
		net.Name(), imp.N())
	rng := rand.New(rand.NewSource(23))
	n := imp.N()
	src := rng.Int63n(n)
	dst := rng.Int63n(n - 1)
	if dst >= src {
		dst++
	}
	start := time.Now()
	routes, err := topo.DisjointRoutes(imp, router, src, dst)
	if err != nil {
		log.Fatal(err)
	}
	derive := time.Since(start)
	primary, err := router.Path(src, dst)
	if err != nil {
		log.Fatal(err)
	}
	inner, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		log.Fatal(err)
	}
	fs := topo.NewFaultSet()
	fa := topo.NewFaultAware(imp, inner, fs)
	cutAllButOne(fs, routes, primary)
	start = time.Now()
	hops, degraded, err := walk(fa, src, dst, 4*net.Diameter()+fa.MaxDetourTTL+16)
	if err != nil {
		log.Fatal(err)
	}
	walked := time.Since(start)
	rs := fa.RouterStats()
	fmt.Printf("pair %d -> %d: κ = %d disjoint routes derived in %v\n",
		src, dst, len(routes), derive.Round(time.Microsecond))
	fmt.Printf("cut %d of them; delivery in %d hops (primary %d) in %v, degraded=%v\n",
		len(routes)-1, hops, len(primary)-1, walked.Round(time.Microsecond), degraded)
	fmt.Printf("reroute events %d, detour-search hops %d — repair cost stays\n",
		rs.Reroutes, rs.DetourHops)
	fmt.Println("proportional to the route length, not to N: no tables, no BFS.")
}

// degradedSweep runs the implicit degraded-mode simulator on a mid-sized
// symmetric instance and sweeps the permanent-fault count: at this scale
// random faults genuinely intersect traffic, so the reroute machinery is
// exercised while delivery stays complete.
func degradedSweep() {
	net := superip.HSN(3, superip.NucleusHypercube(3)).SymmetricVariant()
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		log.Fatal(err)
	}
	router, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		log.Fatal(err)
	}
	const (
		seed    = 7
		rate    = 0.01
		warmup  = 200
		measure = 2000
	)
	fmt.Printf("\n=== degraded-mode simulation on %s (implicit, N = %d) ===\n",
		net.Name(), imp.N())
	fmt.Printf("(rate %.3g/node/cycle, %d measured cycles, permanent link faults, seed %d)\n\n",
		rate, measure, seed)
	base, err := netsim.RunImplicit(netsim.ImplicitConfig{Topo: imp, Router: router,
		InjectionRate: rate, WarmupCycles: warmup, MeasureCycles: measure, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "faults\tdelivered\tlost\texpired\tavg-lat\tlat-infl\tdegraded\treroutes\tdetours")
	for _, nFaults := range []int{0, 4, 8, 16, 32} {
		fc := netsim.ImplicitFaultConfig{}
		var fs *topo.FaultSet
		cfg := netsim.ImplicitConfig{Topo: imp, Router: router,
			InjectionRate: rate, WarmupCycles: warmup, MeasureCycles: measure, Seed: seed}
		if nFaults > 0 {
			plan, err := netsim.RandomFaults{MTBF: 25, Start: warmup,
				Horizon: warmup + measure, MaxFaults: nFaults, Seed: seed}.PlanTopo(imp)
			if err != nil {
				log.Fatal(err)
			}
			fs = topo.NewFaultSet()
			cfg.Router = topo.NewFaultAware(imp, router, fs)
			fc = netsim.ImplicitFaultConfig{Plan: plan, Faults: fs}
		}
		st, err := netsim.RunImplicitFaulty(cfg, fc)
		if err != nil {
			log.Fatal(err)
		}
		infl := 0.0
		if base.AvgLatency > 0 {
			infl = st.AvgLatency / base.AvgLatency
		}
		fmt.Fprintf(w, "%d\t%d/%d\t%d\t%d\t%.2f\t%.3f\t%d\t%d\t%d\n",
			st.FaultsInjected, st.Delivered, st.Injected, st.Lost, st.Expired,
			st.AvgLatency, infl, st.DeliveredDegraded, st.RerouteEvents, st.MisroutedHops)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading the table: with faults below the connectivity bound every")
	fmt.Println("measured packet is delivered — some over detoured (degraded) routes")
	fmt.Println("— and the latency inflation stays small. The router repairs each")
	fmt.Println("blocked route from the labels of the packet in hand; no routing")
	fmt.Println("table exists anywhere to rebuild.")
}
