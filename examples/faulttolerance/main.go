// Faulttolerance: the robustness attributes that motivate star graphs and
// their super-IP relatives (Section 1). For networks of comparable size this
// example measures exact vertex/edge connectivity, extracts a maximum set of
// vertex-disjoint paths between a distant pair (Menger), and reports
// Monte-Carlo survival rates under random node failures.
//
// The second half runs the *dynamic* counterpart: the packet simulator
// operates each network through live link failures (netsim.RunImplicitFaulty
// over the built graph, routed by per-destination BFS tables) and
// reports how throughput and latency degrade as the fault count grows —
// delivered/lost packets, routing-table repairs, and the latency inflation
// over the fault-free baseline. Everything runs from fixed seeds and is
// fully deterministic.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/networks"
	"repro/internal/superip"
	"repro/internal/topo"
)

func main() {
	type system struct {
		name string
		g    *graph.Graph
	}
	var systems []system
	q6, err := networks.Hypercube{Dim: 6}.Build()
	if err != nil {
		log.Fatal(err)
	}
	systems = append(systems, system{"Q6", q6})

	star5, err := networks.Star{Symbols: 5}.Build()
	if err != nil {
		log.Fatal(err)
	}
	systems = append(systems, system{"star(5)", star5})

	symHSN := superip.HSN(2, superip.NucleusHypercube(3)).SymmetricVariant()
	sg, err := symHSN.Build()
	if err != nil {
		log.Fatal(err)
	}
	systems = append(systems, system{symHSN.Name(), sg})

	ccc, err := networks.CCC{Dim: 4}.Build()
	if err != nil {
		log.Fatal(err)
	}
	systems = append(systems, system{"CCC(4)", ccc})

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "network\tN\tmin-deg\tkappa\tlambda\tdisjoint paths\tsurvive 3 faults")
	for _, s := range systems {
		k, err := faults.VertexConnectivity(s.g)
		if err != nil {
			log.Fatal(err)
		}
		lam, err := faults.EdgeConnectivity(s.g)
		if err != nil {
			log.Fatal(err)
		}
		// Disjoint paths between node 0 and a non-neighbor.
		var tgt int32 = -1
		for v := int32(1); v < int32(s.g.N()); v++ {
			if !s.g.HasEdge(0, v) {
				tgt = v
				break
			}
		}
		paths, err := faults.DisjointPaths(s.g, 0, tgt)
		if err != nil {
			log.Fatal(err)
		}
		inj, err := faults.InjectNodeFaults(s.g, 3, 300, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d/%d\n",
			s.name, s.g.N(), s.g.MinDegree(), k, lam, len(paths),
			inj.SurvivedConnected, inj.Trials)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nkappa = lambda = min degree for all of these (maximal fault")
	fmt.Println("tolerance), and the disjoint-path count realizes Menger's bound:")
	fmt.Println("any kappa-1 failures leave every pair connected.")

	dynamicSweep()
}

// dynamicSweep operates each network through live link failures and prints
// the degradation table: the empirical answer to "how much latency and
// throughput do these hierarchical networks give up when links die mid-run."
func dynamicSweep() {
	const (
		seed    = 7
		rate    = 0.01
		warmup  = 200
		measure = 2000
		mtbf    = 150
	)
	type system struct {
		name string
		g    *graph.Graph
	}
	var systems []system
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			log.Fatal(err)
		}
		systems = append(systems, system{name, g})
	}
	// Note l=2 makes HSN, CN, and SFN coincide (one swap = one shift = one
	// flip), so the CN and SFN entries use three levels over a Q2 nucleus
	// to stay at 64 nodes while exercising genuinely different wirings.
	hsn := superip.HSN(2, superip.NucleusHypercube(3))
	hg, err := hsn.Build()
	add(hsn.Name(), hg, err)
	rcn := superip.RingCN(3, superip.NucleusHypercube(2))
	rg, err := rcn.Build()
	add(rcn.Name(), rg, err)
	sfn := superip.SuperFlip(3, superip.NucleusHypercube(2))
	sg, err := sfn.Build()
	add(sfn.Name(), sg, err)
	st5, err := networks.Star{Symbols: 5}.Build()
	add("star(5)", st5, err)
	q6, err := networks.Hypercube{Dim: 6}.Build()
	add("Q6", q6, err)

	fmt.Println("\n=== live fault injection: permanent link faults during operation ===")
	fmt.Printf("(rate %.3g/node/cycle, %d measured cycles, MTBF %d, seed %d)\n\n",
		rate, measure, mtbf, seed)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "network\tfaults\tdelivered\tlost\tavg-lat\tlat-infl\treroutes")
	for _, s := range systems {
		t := topo.NewMaterialized(s.g)
		// run routes s.g by fresh per-destination BFS tables, rebuilt
		// against a fault set of their own when there is a plan.
		run := func(plan *netsim.FaultPlan) netsim.ImplicitFaultStats {
			var fs *topo.FaultSet
			if plan != nil {
				fs = topo.NewFaultSet()
			}
			st, err := netsim.RunImplicitFaulty(netsim.ImplicitConfig{Topo: t,
				Router: topo.NewBFSRouter(t, fs), InjectionRate: rate,
				WarmupCycles: warmup, MeasureCycles: measure, Seed: seed,
				MaxHops: 8 * s.g.N()},
				netsim.ImplicitFaultConfig{Plan: plan, Faults: fs})
			if err != nil {
				log.Fatal(err)
			}
			return st
		}
		base := run(nil)
		for _, nFaults := range []int{0, 2, 4, 8} {
			var plan *netsim.FaultPlan
			if nFaults > 0 {
				var err error
				plan, err = netsim.RandomFaults{MTBF: mtbf, Start: warmup,
					Horizon: warmup + measure, MaxFaults: nFaults, Seed: seed}.PlanTopo(t)
				if err != nil {
					log.Fatal(err)
				}
			}
			fs := run(plan)
			infl := 0.0
			if base.AvgLatency > 0 {
				infl = fs.AvgLatency / base.AvgLatency
			}
			fmt.Fprintf(w, "%s\t%d\t%d/%d\t%d\t%.2f\t%.3f\t%d\n",
				s.name, fs.FaultsInjected, fs.Delivered, fs.Injected, fs.Lost,
				fs.AvgLatency, infl, fs.Router.Reroutes)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading the table: every measured packet ends delivered or lost;")
	fmt.Println("with faults below the connectivity bound nothing is lost and the")
	fmt.Println("latency inflation stays within a few percent — the sparse")
	fmt.Println("inter-module wiring of the super-IP graphs does not make them")
	fmt.Println("degrade worse than their flat Cayley cousins. 'reroutes' counts")
	fmt.Println("per-destination table repairs: a table is rebuilt on the first")
	fmt.Println("packet that needs it after a fault.")
}
