package netsim

import (
	"testing"

	"repro/internal/networks"
	"repro/internal/obs"
	"repro/internal/superip"
	"repro/internal/topo"
)

// Micro-benchmarks for the simulator's building blocks, sized so one
// iteration is cheap enough for tight -count loops under cmd/bench. All
// report allocations: the simulator's hot loop is supposed to be
// allocation-free per cycle, so an allocs/op regression here is a bug
// signal on its own, not just a speed signal.

// BenchmarkRunQ6 is one small fault-free run: the hypercube baseline every
// latency comparison in the Section 5.4 scenario rests on.
func BenchmarkRunQ6(b *testing.B) {
	g, err := (networks.Hypercube{Dim: 6}).Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Graph: g, InjectionRate: 0.01, WarmupCycles: 50, MeasureCycles: 300}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultPlanGen measures random fault-schedule generation on the
// same substrate, a built Q6 addressed through topo.NewMaterialized.
func BenchmarkFaultPlanGen(b *testing.B) {
	g, err := (networks.Hypercube{Dim: 6}).Build()
	if err != nil {
		b.Fatal(err)
	}
	t := topo.NewMaterialized(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (RandomFaults{
			MTBF: 100, RepairTime: 150, Start: 50, Horizon: 500,
			MaxFaults: 8, Seed: int64(i + 1),
		}).PlanTopo(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFaultyQ6 prices the degraded-mode loop (reroutes, detours,
// drops) against BenchmarkRunQ6.
func BenchmarkRunFaultyQ6(b *testing.B) {
	g, err := (networks.Hypercube{Dim: 6}).Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Graph: g, InjectionRate: 0.01, WarmupCycles: 50, MeasureCycles: 300}
	plan, err := (RandomFaults{
		MTBF: 100, RepairTime: 150, Start: cfg.WarmupCycles,
		Horizon: cfg.WarmupCycles + cfg.MeasureCycles, MaxFaults: 4, Seed: 1,
	}).PlanTopo(topo.NewMaterialized(g))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := RunFaulty(cfg, FaultConfig{Plan: plan}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunImplicitQ6 measures the sparse implicit-topology simulator on
// the same workload as BenchmarkRunQ6 (Q6, uniform traffic, 1% load), so the
// two rows in the baseline bound the cost of trading materialized tables for
// on-the-fly algebraic state.
func BenchmarkRunImplicitQ6(b *testing.B) {
	cfg := ImplicitConfig{
		Topo:          topo.HypercubeTopo{Dim: 6},
		Router:        topo.HypercubeRouter{Dim: 6},
		InjectionRate: 0.01,
		WarmupCycles:  50, MeasureCycles: 300,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := RunImplicit(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunImplicitQ14ECube is one run of the sim-q14-ecube benchmark
// workload: Q14 with e-cube routing, 16-node subcube modules at off-module
// period 2, uniform traffic at rate 0.02, 50 warmup and 100 measured cycles.
// Next hops and neighbors are bit operations, so the engine's link store and
// injection sampler dominate.
func BenchmarkRunImplicitQ14ECube(b *testing.B) {
	cfg := ImplicitConfig{
		Topo:          topo.HypercubeTopo{Dim: 14},
		Router:        topo.HypercubeRouter{Dim: 14},
		ModuleOf:      topo.SubcubeSpace{Dim: 14, Low: 4}.Module,
		InjectionRate: 0.02, OffModulePeriod: 2,
		WarmupCycles: 50, MeasureCycles: 100,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := RunImplicit(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunImplicitHSN25Uniform is one run of the sim-hsn25-uniform
// benchmark workload: HSN(2;Q5) with algebraic routing, nucleus modules at
// off-module period 4, uniform traffic at rate 0.02, 100 warmup and 400
// measured cycles. Ranker, router, the link store's adjacency test and the
// engine all do real work. Each run builds its topology and router, as a
// workload round does, so no route store carries over between runs.
func BenchmarkRunImplicitHSN25Uniform(b *testing.B) {
	s := superip.HSN(2, superip.NucleusHypercube(5)).Super()
	cfg := ImplicitConfig{InjectionRate: 0.02, OffModulePeriod: 4, WarmupCycles: 100, MeasureCycles: 400}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imp, err := topo.NewImplicit(s)
		if err != nil {
			b.Fatal(err)
		}
		a, err := topo.NewAlgebraic(s)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Topo, cfg.ModuleOf, cfg.Router, cfg.Seed = imp, imp.Module, a, int64(i)
		if _, err := RunImplicit(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunImplicitQ6Probed measures the BenchmarkRunImplicitQ6 workload
// with collectors attached (latency histogram, module-aggregated series, and
// a sparse per-link time series) — the price of observing an implicit run.
// Comparing against the nil-probe row above bounds the whole observability
// layer; the nil-probe row itself must not move when probes are added to the
// simulator (zero-overhead-when-disabled).
func BenchmarkRunImplicitQ6Probed(b *testing.B) {
	cfg := ImplicitConfig{
		Topo:          topo.HypercubeTopo{Dim: 6},
		Router:        topo.HypercubeRouter{Dim: 6},
		InjectionRate: 0.01,
		WarmupCycles:  50, MeasureCycles: 300,
	}
	moduleOf := func(u int64) int64 { return u >> 3 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		cfg.Probe = obs.Multi(
			&obs.LatencyHist{},
			obs.NewModuleSeries(moduleOf, 50),
			obs.NewTimeSeries(moduleOf, 50),
		)
		if _, err := RunImplicit(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunImplicitFaultyQ6 measures the degraded-mode implicit simulator
// on the BenchmarkRunImplicitQ6 workload plus a small permanent-fault plan,
// so the baseline bounds what the fault machinery (fault set consultation,
// change scheduling, reroute bookkeeping) costs over the fault-free path.
func BenchmarkRunImplicitFaultyQ6(b *testing.B) {
	ht := topo.HypercubeTopo{Dim: 6}
	plan := (&FaultPlan{}).
		LinkDown(60, 0, 1, 0).
		LinkDown(80, 5, 7, 200).
		LinkDown(120, 33, 37, 0)
	cfg := ImplicitConfig{
		Topo:          ht,
		InjectionRate: 0.01,
		WarmupCycles:  50, MeasureCycles: 300,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		fs := topo.NewFaultSet()
		cfg.Router = topo.NewFaultAware(ht, topo.HypercubeRouter{Dim: 6}, fs)
		if _, err := RunImplicitFaulty(cfg, ImplicitFaultConfig{Plan: plan, Faults: fs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotspotPattern measures destination selection under the skewed
// traffic pattern (per-packet work on the injection path).
func BenchmarkHotspotPattern(b *testing.B) {
	g, err := (networks.Hypercube{Dim: 6}).Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Graph: g, InjectionRate: 0.01, WarmupCycles: 50, MeasureCycles: 300,
		Pattern: mustHotspot(b, 0.2),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunShardedQ6 prices the sharded engine's coordination machinery
// against BenchmarkRunImplicitQ6: same Q6 workload, one worker, uniform
// link period 1 — so the conservative window is a single cycle and every
// cycle pays a full barrier + merge + lane sweep. This is the worst case
// for the coordinator; the delta over RunImplicitQ6 is pure sharding
// overhead. pkts/s is delivered measured packets per wall-clock second.
func BenchmarkRunShardedQ6(b *testing.B) {
	ht := topo.HypercubeTopo{Dim: 6}
	cfg := ShardedConfig{
		NewLane: func() (Topology, Router, FaultSink, error) {
			return ht, topo.HypercubeRouter{Dim: 6}, nil, nil
		},
		Space:         topo.SubcubeSpace{Dim: 6, Low: 3},
		InjectionRate: 0.01,
		WarmupCycles:  50, MeasureCycles: 300,
		Lanes: 8,
	}
	var delivered int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		st, err := RunSharded(cfg)
		if err != nil {
			b.Fatal(err)
		}
		delivered += int64(st.Delivered)
	}
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkRunImplicitSharded is the intended regime of the sharded engine:
// a super-IP instance (HSN(2;Q4), algebraic routing, off-module period 4 so
// the lookahead window is 4 cycles) stepped by two workers. Compare pkts/s
// here against BenchmarkRunShardedQ6 and the EXPERIMENTS.md scaling table;
// allocs/op guards the per-window merge paths staying growth-free.
func BenchmarkRunImplicitSharded(b *testing.B) {
	net := superip.HSN(2, superip.NucleusHypercube(4))
	space, err := topo.NewImplicit(net.Super())
	if err != nil {
		b.Fatal(err)
	}
	cfg := ShardedConfig{
		NewLane: func() (Topology, Router, FaultSink, error) {
			imp, err := topo.NewImplicit(net.Super())
			if err != nil {
				return nil, nil, nil, err
			}
			air, err := topo.NewAlgebraic(net.Super())
			return imp, air, nil, err
		},
		Space:         space,
		InjectionRate: 0.01,
		WarmupCycles:  50, MeasureCycles: 300,
		OffModulePeriod: 4,
		Lanes:           8,
		Shards:          2,
	}
	var delivered int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		st, err := RunSharded(cfg)
		if err != nil {
			b.Fatal(err)
		}
		delivered += int64(st.Delivered)
	}
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "pkts/s")
}
