package netsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/networks"
	"repro/internal/superip"
)

func TestLightLoadLatencyApproxAvgDistance(t *testing.T) {
	// Under very light uniform load with equal link speeds, the average
	// latency approaches the average shortest-path distance (plus queueing
	// noise, which is tiny at this rate).
	spec := networks.Hypercube{Dim: 6}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(Config{
		Graph:         g,
		InjectionRate: 0.01,
		WarmupCycles:  200,
		MeasureCycles: 2000,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered == 0 || st.Delivered != st.Injected {
		t.Fatalf("delivered %d of %d", st.Delivered, st.Injected)
	}
	avg := g.AllPairs().AvgDistance
	if st.AvgLatency < avg {
		t.Fatalf("latency %v below average distance %v (impossible)", st.AvgLatency, avg)
	}
	if st.AvgLatency > avg*1.5 {
		t.Fatalf("latency %v too far above average distance %v at light load", st.AvgLatency, avg)
	}
}

func TestZeroRate(t *testing.T) {
	g, _ := networks.Ring{Nodes: 8}.Build()
	st, err := Run(Config{Graph: g, InjectionRate: 0, WarmupCycles: 10, MeasureCycles: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Injected != 0 || st.Delivered != 0 || st.AvgLatency != 0 {
		t.Fatalf("zero-rate stats = %+v", st)
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil graph must fail")
	}
	g, _ := networks.Ring{Nodes: 8}.Build()
	if _, err := Run(Config{Graph: g, InjectionRate: 2}); err == nil {
		t.Fatal("rate > 1 must fail")
	}
	if _, err := Run(Config{Graph: g, InjectionRate: math.NaN()}); err == nil {
		t.Fatal("rate NaN must fail")
	}
}

// TestPartitionValidated pins that a Partition which does not cover the
// graph is a configuration error, not a panic inside the run.
func TestPartitionValidated(t *testing.T) {
	g, err := networks.Hypercube{Dim: 5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	short := metrics.Partition{Of: make([]int32, 8), K: 1}
	cfg := Config{Graph: g, Partition: &short, OffModulePeriod: 4,
		InjectionRate: 0.02, WarmupCycles: 10, MeasureCycles: 50, Seed: 1}
	runs := map[string]func() error{
		"Run":       func() error { _, err := Run(cfg); return err },
		"RunFaulty": func() error { _, err := RunFaulty(cfg, FaultConfig{}); return err },
		"RunFaultyWithBaseline": func() error {
			_, _, err := RunFaultyWithBaseline(cfg, FaultConfig{})
			return err
		},
	}
	for name, run := range runs {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s panicked on a short partition: %v", name, p)
				}
			}()
			if err := run(); err == nil {
				t.Errorf("%s accepted an 8-entry partition of a 32-node graph", name)
			}
		}()
	}
}

// TestRunLongRoute pins the built-graph hop watchdog at 8·N: one packet
// across the diameter of an 8200-node ring takes 4100 hops, more than the
// implicit runs' default MaxHops of 4096, and must still arrive.
func TestRunLongRoute(t *testing.T) {
	g, err := networks.Ring{Nodes: 8200}.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(Config{Graph: g, InjectionRate: 1, MeasureCycles: 1, DrainCycles: 5000,
		Pattern: func(src int32, _ int, _ *rand.Rand) int32 {
			if src == 0 {
				return 4100
			}
			return src // skip every other node
		}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Injected != 1 || st.Delivered != 1 || st.MaxLatency != 4100 {
		t.Fatalf("one packet 0->4100: %+v, want delivered at latency 4100", st)
	}
}

func TestOffModuleSlowdownIncreasesLatency(t *testing.T) {
	// Making off-module links slower must increase latency on a network
	// with off-module hops, and the increase must track how many off-module
	// hops routes need.
	net := superip.HSN(2, superip.NucleusHypercube(3))
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	p := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())
	base, err := Run(Config{Graph: g, Partition: &p, OffModulePeriod: 1,
		InjectionRate: 0.01, WarmupCycles: 200, MeasureCycles: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(Config{Graph: g, Partition: &p, OffModulePeriod: 8,
		InjectionRate: 0.01, WarmupCycles: 200, MeasureCycles: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if slow.AvgLatency <= base.AvgLatency {
		t.Fatalf("slow off-module links did not increase latency: %v vs %v",
			slow.AvgLatency, base.AvgLatency)
	}
}

func TestIICostOrderingUnderSlowOffModuleLinks(t *testing.T) {
	// Section 5.4: with slow off-module links, the network with the smaller
	// II-cost should deliver lower latency. Compare the hypercube Q6 packed
	// into 8-node subcube modules (I-degree 3, I-diameter 3) against
	// HSN(2;Q3) packed into its nuclei (I-degree <= 1, I-diameter 1) at
	// equal size (64 nodes) and light load.
	cube, err := networks.Hypercube{Dim: 6}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cubePart := metrics.SubcubePartition(cube.N(), 3)
	net := superip.HSN(2, superip.NucleusHypercube(3))
	hsnG, ix, err := net.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	hsnPart := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())

	cubeStats, err := Run(Config{Graph: cube, Partition: &cubePart, OffModulePeriod: 8,
		InjectionRate: 0.005, WarmupCycles: 300, MeasureCycles: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hsnStats, err := Run(Config{Graph: hsnG, Partition: &hsnPart, OffModulePeriod: 8,
		InjectionRate: 0.005, WarmupCycles: 300, MeasureCycles: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	iiCube := metrics.IICost(metrics.IDegree(cube, cubePart), int(metrics.IStats(cube, cubePart).Diameter))
	iiHSN := metrics.IICost(metrics.IDegree(hsnG, hsnPart), int(metrics.IStats(hsnG, hsnPart).Diameter))
	if iiHSN >= iiCube {
		t.Fatalf("II-cost of HSN (%v) should beat the hypercube (%v)", iiHSN, iiCube)
	}
	if hsnStats.AvgLatency >= cubeStats.AvgLatency {
		t.Fatalf("II-cost ordering not reflected in simulated latency: HSN %v vs Q6 %v",
			hsnStats.AvgLatency, cubeStats.AvgLatency)
	}
}

func TestHeavierLoadRaisesLatency(t *testing.T) {
	g, err := networks.KAryNCube{K: 4, Dims: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	light, err := Run(Config{Graph: g, InjectionRate: 0.01, WarmupCycles: 200, MeasureCycles: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(Config{Graph: g, InjectionRate: 0.2, WarmupCycles: 200, MeasureCycles: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if heavy.AvgLatency <= light.AvgLatency {
		t.Fatalf("heavier load should raise latency: %v vs %v", heavy.AvgLatency, light.AvgLatency)
	}
	if heavy.Throughput <= light.Throughput {
		t.Fatalf("heavier load should raise delivered throughput below saturation: %v vs %v",
			heavy.Throughput, light.Throughput)
	}
}

func TestDirectedGraphSimulation(t *testing.T) {
	spec := networks.DeBruijn{Base: 2, Dim: 5}
	g, err := spec.BuildDirected()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(Config{Graph: g, InjectionRate: 0.02, WarmupCycles: 100, MeasureCycles: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered == 0 {
		t.Fatal("no packets delivered on directed de Bruijn")
	}
}

func TestPatterns(t *testing.T) {
	// Transpose on 2^6 = 64 nodes: swap 3-bit halves.
	if got := Transpose(0b101011, 64, nil); got != 0b011101 {
		t.Fatalf("Transpose(101011) = %b", got)
	}
	// Self-paired nodes return themselves (injection skipped).
	if got := Transpose(0b101101, 64, nil); got != 0b101101 {
		t.Fatalf("Transpose fixed point = %b", got)
	}
	// Odd exponent falls back to complement.
	if got := Transpose(5, 32, nil); got != 5^31 {
		t.Fatalf("Transpose odd-exponent fallback = %d", got)
	}
	// Non-power-of-two sizes (e.g. star graphs, n = k!) fall through
	// Transpose -> BitComplement -> antipode: (src + n/2) mod n.
	if got := Transpose(5, 12, nil); got != 11 {
		t.Fatalf("Transpose non-power-of-two fallback = %d, want antipode 11", got)
	}
	if got := Transpose(20, 24, nil); got != 8 {
		t.Fatalf("Transpose(20, 24) = %d, want (20+12)%%24 = 8", got)
	}
	if got := BitComplement(5, 32, nil); got != 26 {
		t.Fatalf("BitComplement(5) = %d", got)
	}
	if got := BitComplement(3, 10, nil); got != 8 {
		t.Fatalf("BitComplement non-power-of-two = %d", got)
	}
	// The antipode fallback must stay a permutation (injective) so that
	// pattern sweeps on star graphs pair every node.
	seen := map[int32]bool{}
	for src := int32(0); src < 120; src++ {
		d := BitComplement(src, 120, nil)
		if d < 0 || d >= 120 || seen[d] {
			t.Fatalf("antipode fallback not a permutation at %d -> %d", src, d)
		}
		seen[d] = true
	}
	hs := mustHotspot(t, 1.0)
	r := rand.New(rand.NewSource(1))
	if got := hs(5, 16, r); got != 0 {
		t.Fatalf("Hotspot(1.0) = %d, want 0", got)
	}
}

// mustHotspot builds a hotspot pattern, failing the test on an invalid p.
func mustHotspot(tb testing.TB, p float64) PatternFunc {
	tb.Helper()
	pat, err := Hotspot(p)
	if err != nil {
		tb.Fatal(err)
	}
	return pat
}

// TestHotspotBounds pins the validity boundary of the hotspot probability:
// both endpoints of [0,1] are legal patterns, anything outside is rejected
// with an error.
func TestHotspotBounds(t *testing.T) {
	for _, p := range []float64{0, 1} {
		if _, err := Hotspot(p); err != nil {
			t.Fatalf("Hotspot(%v): unexpected error %v", p, err)
		}
	}
	for _, p := range []float64{-0.001, 1.001, -1, 2} {
		if _, err := Hotspot(p); err == nil {
			t.Fatalf("Hotspot(%v): expected error, got nil", p)
		}
	}
}

func TestPatternTrafficRuns(t *testing.T) {
	g, err := networks.Hypercube{Dim: 6}.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range []PatternFunc{Transpose, BitComplement, mustHotspot(t, 0.2)} {
		st, err := Run(Config{Graph: g, InjectionRate: 0.01, Pattern: pat,
			WarmupCycles: 100, MeasureCycles: 1000, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if st.Delivered == 0 {
			t.Fatal("no packets delivered under pattern traffic")
		}
	}
	// Bit-complement traffic traverses the full diameter: latency >= n.
	st, err := Run(Config{Graph: g, InjectionRate: 0.005, Pattern: BitComplement,
		WarmupCycles: 100, MeasureCycles: 1000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.AvgLatency < 6 {
		t.Fatalf("complement traffic latency %v below diameter 6", st.AvgLatency)
	}
}

func TestMultiFlitMessages(t *testing.T) {
	g, err := networks.Ring{Nodes: 16}.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Graph: g, InjectionRate: 0.005, WarmupCycles: 100,
		MeasureCycles: 2000, Seed: 5}

	saf := base
	saf.Flits = 8
	safStats, err := Run(saf)
	if err != nil {
		t.Fatal(err)
	}
	ct := saf
	ct.CutThrough = true
	ctStats, err := Run(ct)
	if err != nil {
		t.Fatal(err)
	}
	one := base
	oneStats, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	// Longer messages cost more; cut-through pipelining beats
	// store-and-forward; single-flit is the floor.
	if !(oneStats.AvgLatency < ctStats.AvgLatency && ctStats.AvgLatency < safStats.AvgLatency) {
		t.Fatalf("latency ordering violated: 1-flit %v, cut-through %v, SAF %v",
			oneStats.AvgLatency, ctStats.AvgLatency, safStats.AvgLatency)
	}
}

func TestWormholeIDegreeArgument(t *testing.T) {
	// Section 5.3: "when wormhole or cut-through routing is used and
	// messages are long, the delay of a network with light traffic is
	// approximately proportional to its inter-cluster degree". The
	// premise is a fixed pin bandwidth per module, split across the
	// module's off-module links, so each network's off-module period is
	// scaled by its ⌈I-degree⌉: HSN(2;Q3) (I-degree 0.875) keeps the base
	// period, Q6 with subcube Q3 modules (I-degree 3) triples it. With
	// long cut-through messages HSN must then beat Q6 on every seed.
	const basePeriod = 4
	net := superip.HSN(2, superip.NucleusHypercube(3))
	hg, ix, err := net.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	hp := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())
	qg, err := networks.Hypercube{Dim: 6}.Build()
	if err != nil {
		t.Fatal(err)
	}
	qp := metrics.SubcubePartition(qg.N(), 3)
	mk := func(g *graph.Graph, p *metrics.Partition, seed int64) Stats {
		period := basePeriod * int(math.Ceil(metrics.IDegree(g, *p)))
		st, err := Run(Config{Graph: g, Partition: p, OffModulePeriod: period,
			Flits: 16, CutThrough: true, InjectionRate: 0.002,
			WarmupCycles: 300, MeasureCycles: 3000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for seed := int64(1); seed <= 20; seed++ {
		hsnStats := mk(hg, &hp, seed)
		qStats := mk(qg, &qp, seed)
		if hsnStats.AvgLatency >= qStats.AvgLatency {
			t.Errorf("seed %d, long-message cut-through: HSN %v should beat Q6 %v",
				seed, hsnStats.AvgLatency, qStats.AvgLatency)
		}
	}
}

func TestLoadSweep(t *testing.T) {
	g, err := networks.Torus2D{Rows: 8, Cols: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.01, 0.05, 0.15}
	var stats []Stats
	for _, rate := range rates {
		st, err := Run(Config{Graph: g, InjectionRate: rate, WarmupCycles: 200, MeasureCycles: 1500, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
	}
	// Delivered throughput grows with offered load below saturation, and
	// latency is non-decreasing.
	if !(stats[0].Throughput < stats[1].Throughput && stats[1].Throughput < stats[2].Throughput) {
		t.Fatalf("throughput curve not increasing: %v %v %v",
			stats[0].Throughput, stats[1].Throughput, stats[2].Throughput)
	}
	if stats[2].AvgLatency < stats[0].AvgLatency {
		t.Fatalf("latency decreased under load: %v -> %v", stats[0].AvgLatency, stats[2].AvgLatency)
	}
}

func TestSaturationOrderingMatchesThroughputBound(t *testing.T) {
	// Section 5.1: maximum throughput is inversely proportional to average
	// distance. The measured saturation ordering across a ring, a torus,
	// and a hypercube of 64 nodes must match the analytic bound ordering.
	type sys struct {
		name  string
		g     *graph.Graph
		bound float64
		sat   float64
	}
	var systems []sys
	for _, c := range []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"ring64", networks.Ring{Nodes: 64}.Build},
		{"torus8x8", networks.Torus2D{Rows: 8, Cols: 8}.Build},
		{"Q6", networks.Hypercube{Dim: 6}.Build},
	} {
		g, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		st := g.AllPairs()
		bound := metrics.ThroughputBound(g, st.AvgDistance)
		rate, _, err := Saturation(Config{Graph: g, WarmupCycles: 200,
			MeasureCycles: 1500, Seed: 3}, 0.9, 0.9, 7)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys{c.name, g, bound, rate})
	}
	for i := 0; i+1 < len(systems); i++ {
		a, b := systems[i], systems[i+1]
		if a.bound >= b.bound {
			t.Fatalf("bound ordering unexpected: %s %v vs %s %v", a.name, a.bound, b.name, b.bound)
		}
		if a.sat >= b.sat {
			t.Fatalf("saturation ordering does not match bounds: %s %v vs %s %v",
				a.name, a.sat, b.name, b.sat)
		}
		// The measured saturation tracks the analytic bound (the 0.9
		// acceptance criterion tolerates a few percent of oversubscription,
		// so allow 15% slack).
		if a.sat > a.bound*1.15 {
			t.Fatalf("%s: measured saturation %v far above bound %v", a.name, a.sat, a.bound)
		}
	}
}

func TestSaturationErrors(t *testing.T) {
	g, _ := networks.Ring{Nodes: 8}.Build()
	if _, _, err := Saturation(Config{Graph: g}, 0, 0.9, 3); err == nil {
		t.Fatal("bad hi must fail")
	}
	if _, _, err := Saturation(Config{Graph: g}, 0.5, 0, 3); err == nil {
		t.Fatal("bad accept must fail")
	}
	if _, _, err := Saturation(Config{Graph: g}, 1.5, 0.9, 3); err == nil {
		t.Fatal("hi > 1 must fail")
	}
	if _, _, err := Saturation(Config{Graph: g}, 0.5, 1.5, 3); err == nil {
		t.Fatal("accept > 1 must fail")
	}
	if _, _, err := Saturation(Config{Graph: g}, -0.1, 0.9, 3); err == nil {
		t.Fatal("negative hi must fail")
	}
}

func TestSaturationBoundaryAcceptFractions(t *testing.T) {
	// accept = 1 (every measured packet must drain) and hi = 1 are the
	// boundary of the valid parameter space; both must search successfully
	// and uphold the acceptance criterion at the returned rate.
	g, err := networks.Hypercube{Dim: 5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	rate, best, err := Saturation(Config{Graph: g, WarmupCycles: 100,
		MeasureCycles: 800, Seed: 19}, 1, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatal("Q5 must sustain some load at accept = 1")
	}
	if best.Delivered != best.Injected {
		t.Fatalf("accept = 1 returned a rate that loses packets: %+v", best)
	}
}

func TestSaturationHiBelowSaturation(t *testing.T) {
	// When the whole [0, hi] range is sustainable, the binary search must
	// converge to (nearly) hi itself rather than stall low.
	g, err := networks.Hypercube{Dim: 6}.Build()
	if err != nil {
		t.Fatal(err)
	}
	const hi = 0.01 // far below Q6 saturation
	rate, best, err := Saturation(Config{Graph: g, WarmupCycles: 100,
		MeasureCycles: 800, Seed: 19}, hi, 0.9, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rate < hi*(1-1.0/64)-1e-12 {
		t.Fatalf("sustainable range [0,%v] but search stopped at %v", hi, rate)
	}
	if float64(best.Delivered) < 0.9*float64(best.Injected) {
		t.Fatalf("returned stats violate the acceptance criterion: %+v", best)
	}
}

func TestSaturationBestStatsMatchDirectRun(t *testing.T) {
	// The best Stats returned by the search must be exactly the Stats of a
	// direct Run at the returned rate (same config, same short drain).
	g, err := networks.Torus2D{Rows: 8, Cols: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Graph: g, WarmupCycles: 150, MeasureCycles: 1000, Seed: 27}
	rate, best, err := Saturation(cfg, 0.9, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rate == 0 {
		t.Fatal("torus must sustain some load")
	}
	direct := cfg
	direct.InjectionRate = rate
	direct.DrainCycles = 100 // the search's short-drain override
	st, err := Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	if st != best {
		t.Fatalf("best stats do not reproduce at the returned rate:\nsearch %+v\ndirect %+v", best, st)
	}
}
