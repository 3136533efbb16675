// Simulation: Section 5.4 argues that when off-module links are slower than
// on-module links, packet latency under light load is approximately
// proportional to II-cost (inter-cluster degree times inter-cluster
// diameter). This example runs the packet-switched simulator on equal-sized
// networks at several off-module speed ratios and shows that the latency
// ordering converges to the II-cost ordering as off-module links get slower.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/networks"
	"repro/internal/superip"
	"repro/internal/topo"
)

type system struct {
	name string
	g    *graph.Graph
	part metrics.Partition
}

func main() {
	var systems []system

	// 256-node networks, 16-node modules.
	q8, err := networks.Hypercube{Dim: 8}.Build()
	if err != nil {
		log.Fatal(err)
	}
	systems = append(systems, system{"Q8 (Q4 modules)", q8, metrics.SubcubePartition(q8.N(), 4)})

	tor, err := networks.Torus2D{Rows: 16, Cols: 16}.Build()
	if err != nil {
		log.Fatal(err)
	}
	tp, err := metrics.GridPartition(16, 16, 4, 4)
	if err != nil {
		log.Fatal(err)
	}
	systems = append(systems, system{"torus(16x16)", tor, tp})

	for _, net := range []*superip.Net{
		superip.HSN(2, superip.NucleusHypercube(4)),
		superip.CompleteCN(2, superip.NucleusHypercube(4)),
	} {
		g, ix, err := net.BuildWithIndex()
		if err != nil {
			log.Fatal(err)
		}
		systems = append(systems, system{net.Name(), g,
			metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())})
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "network\tII-cost\tlat(ratio=1)\tlat(ratio=4)\tlat(ratio=16)")
	for _, s := range systems {
		ii := metrics.IICost(metrics.IDegree(s.g, s.part), int(metrics.IStats(s.g, s.part).Diameter))
		var lat [3]float64
		t := topo.NewMaterialized(s.g)
		for i, ratio := range []int{1, 4, 16} {
			// The built graph routes by per-destination BFS tables.
			st, err := netsim.RunImplicit(netsim.ImplicitConfig{
				Topo:            t,
				Router:          topo.NewBFSRouter(t, nil),
				ModuleOf:        s.part.Module,
				OffModulePeriod: ratio,
				InjectionRate:   0.003,
				WarmupCycles:    300,
				MeasureCycles:   3000,
				Seed:            42,
				MaxHops:         8 * s.g.N(),
			})
			if err != nil {
				log.Fatal(err)
			}
			lat[i] = st.AvgLatency
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.1f\t%.1f\t%.1f\n", s.name, ii, lat[0], lat[1], lat[2])
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwith equal link speeds (ratio=1) the denser networks win; as the")
	fmt.Println("off-module links slow down, latency ranks by II-cost — the super-IP")
	fmt.Println("graphs' sparse inter-module traffic dominates (Fig. 5's argument).")
}
