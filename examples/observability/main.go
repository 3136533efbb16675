// Observability: instrument a simulator run instead of reading only its
// summary line. The paper's II-cost argument says hierarchical networks
// live or die by their few off-module links; this example makes that
// visible. It runs HSN(2;Q3) under uniform traffic and again with a
// hotspot on node 0, attaching the internal/obs collectors: a latency
// histogram (tail percentiles, not just the mean), a per-link time series
// (which links are busy, and are they the slow off-module ones?), and a
// sampled packet-lifecycle trace. Under the hotspot, queueing concentrates
// on the off-module links into the hotspot's module — exactly the
// contention the II-cost metric prices in.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/superip"
	"repro/internal/topo"
)

func main() {
	net := superip.HSN(2, superip.NucleusHypercube(3))
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		log.Fatal(err)
	}
	part := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())
	ist := metrics.IStats(g, part)
	fmt.Printf("%s: N=%d modules=%d I-degree=%.2f II-cost=%.2f\n\n",
		net.Name(), g.N(), part.K, metrics.IDegree(g, part),
		metrics.IICost(metrics.IDegree(g, part), int(ist.Diameter)))

	t := topo.NewMaterialized(g)
	base := netsim.ImplicitConfig{
		Topo:            t,
		ModuleOf:        part.Module,
		OffModulePeriod: 4,
		InjectionRate:   0.035,
		WarmupCycles:    500,
		MeasureCycles:   4000,
		Seed:            7,
		MaxHops:         8 * g.N(),
	}

	hotspot, err := netsim.Hotspot(0.25)
	if err != nil {
		log.Fatal(err)
	}
	runs := []struct {
		name    string
		pattern func(src, n int64, rng *rand.Rand) int64
	}{
		{"uniform", nil},
		{"hotspot(0.25 -> node 0)", hotspot},
	}

	type result struct {
		name string
		st   netsim.ImplicitFaultStats
		hist *obs.LatencyHist
		ts   *obs.TimeSeries
		tr   *obs.Trace
	}
	var results []result
	for _, r := range runs {
		cfg := base
		cfg.Router = topo.NewBFSRouter(t, nil) // per-destination BFS tables
		cfg.Pattern = r.pattern
		hist := &obs.LatencyHist{}
		ts := obs.NewTimeSeries(part.Module, 100)
		tr := &obs.Trace{SampleEvery: 32}
		cfg.Probe = obs.Multi(hist, ts, tr)
		st, err := netsim.RunImplicit(cfg)
		if err != nil {
			log.Fatal(err)
		}
		ts.Flush()
		results = append(results, result{r.name, st, hist, ts, tr})
	}

	// Headline numbers: the mean hides what the hotspot does to the tail.
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "traffic\tdelivered\texpired\tavg-lat\tp50\tp95\tp99\tmax")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t%.1f\t%.1f\t%.1f\t%d\n",
			r.name, r.st.Delivered, r.st.Expired, r.st.AvgLatency,
			r.hist.Quantile(0.50), r.hist.Quantile(0.95), r.hist.Quantile(0.99), r.st.MaxLatency)
	}
	w.Flush()

	for _, r := range results {
		fmt.Printf("\nlatency histogram, %s:\n", r.name)
		if err := r.hist.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	// Where did the cycles go? Top links by occupancy, per run. The
	// off-module links run at period 4, so a hop there costs four cycles
	// of link occupancy — under the hotspot the links into node 0's
	// module saturate first.
	hotMod := part.Of[0]
	for _, r := range results {
		fmt.Printf("\ntop links by busy cycles, %s (observed %d cycles):\n",
			r.name, r.ts.ObservedCycles())
		for _, l := range r.ts.TopLinks(6) {
			kind := "on-module "
			if l.OffModule {
				kind = "off-module"
			}
			into := ""
			if l.OffModule && part.Of[l.V] == hotMod {
				into = "  <- into the hotspot module"
			}
			fmt.Printf("  %4d -> %-4d %s  hops %-6d busy %-7d util %.3f%s\n",
				l.U, l.V, kind, l.Hops, l.Busy, l.Util, into)
		}
	}

	// Aggregate the same data per module: total off-module busy cycles,
	// grouped by the module the traffic flows INTO.
	fmt.Printf("\noff-module busy cycles by destination module (hotspot run):\n")
	hot := results[1].ts
	busyInto := make([]int64, part.K)
	for _, l := range hot.TopLinks(0) {
		if l.OffModule {
			busyInto[part.Of[l.V]] += l.Busy
		}
	}
	for m, b := range busyInto {
		tag := ""
		if int32(m) == hotMod {
			tag = "  <- hotspot"
		}
		fmt.Printf("  module %d: %d%s\n", m, b, tag)
	}

	// The trace has the per-packet story: load it in chrome://tracing or
	// Perfetto via `go run ./cmd/simulate ... -trace trace.json`.
	fmt.Printf("\nsampled lifecycle trace: %d events for the hotspot run "+
		"(write one with: go run ./cmd/simulate -net HSN -l 2 -nucleus Q3 -trace trace.json)\n",
		results[1].tr.Len())

	// Sanity: summed link occupancy must equal total hop-cycles.
	fmt.Printf("total link-busy cycles (hotspot): %d across %d links\n",
		hot.TotalBusy(), len(hot.TopLinks(0)))
}
