package repro

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/emulate"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/networks"
	"repro/internal/obs"
	"repro/internal/superip"
	"repro/internal/symbols"
	"repro/internal/topo"
)

// Each benchmark regenerates one of the paper's evaluation artifacts, so
// `go test -bench=.` is the full reproduction run. Rendering goes to
// io.Discard; use cmd/figures to see the tables.

func benchTable(b *testing.B, gen func() (*figures.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1 regenerates Fig. 1: the structure and radix-4 ranking of
// HSN(2;Q2) = HCN(2,2) without diameter links, and HSN(3;Q2).
func BenchmarkFig1(b *testing.B) { benchTable(b, figures.Fig1) }

// BenchmarkFig2a and BenchmarkFig2b regenerate the DD-cost comparison
// (degree x diameter vs size) of Fig. 2.
func BenchmarkFig2a(b *testing.B) {
	benchTable(b, func() (*figures.Table, error) { return figures.Fig2("a") })
}

func BenchmarkFig2b(b *testing.B) {
	benchTable(b, func() (*figures.Table, error) { return figures.Fig2("b") })
}

// BenchmarkFig3a and BenchmarkFig3b regenerate the average I-distance and
// I-diameter comparisons of Fig. 3 (exact 0/1-BFS measurement, <= 16 nodes
// per module).
func BenchmarkFig3a(b *testing.B) {
	benchTable(b, func() (*figures.Table, error) { return figures.Fig3("a", 1<<13) })
}

func BenchmarkFig3b(b *testing.B) {
	benchTable(b, func() (*figures.Table, error) { return figures.Fig3("b", 1<<13) })
}

// BenchmarkFig4a and BenchmarkFig4b regenerate the ID-cost comparison of
// Fig. 4.
func BenchmarkFig4a(b *testing.B) {
	benchTable(b, func() (*figures.Table, error) { return figures.Fig4("a") })
}

func BenchmarkFig4b(b *testing.B) {
	benchTable(b, func() (*figures.Table, error) { return figures.Fig4("b") })
}

// BenchmarkFig5a and BenchmarkFig5b regenerate the II-cost comparison of
// Fig. 5 (8- and 16-node modules).
func BenchmarkFig5a(b *testing.B) {
	benchTable(b, func() (*figures.Table, error) { return figures.Fig5("a") })
}

func BenchmarkFig5b(b *testing.B) {
	benchTable(b, func() (*figures.Table, error) { return figures.Fig5("b") })
}

// BenchmarkOptimality regenerates the Theorem 4.4 optimality-factor table.
func BenchmarkOptimality(b *testing.B) { benchTable(b, figures.Optimality) }

// BenchmarkIDegreeTable regenerates the Section 5.3 off-module-links table.
func BenchmarkIDegreeTable(b *testing.B) { benchTable(b, figures.IDegreeTable) }

// ---------------------------------------------------------------------
// Machinery throughput benches: construction, measurement, routing, and
// simulation costs of the underlying substrates.

// BenchmarkBuildHSN3Q4 enumerates the 4096-node HSN(3;Q4) state space.
func BenchmarkBuildHSN3Q4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := superip.HSN(3, superip.NucleusHypercube(4))
		if _, err := net.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// buildBenchIP returns the gated construction-benchmark instance:
// sym-HSN(4;Q3), a 98,304-node symmetric super-IP graph — large enough that
// interning and arc assembly dominate, small enough for CI.
func buildBenchIP(b *testing.B) *core.IPGraph {
	b.Helper()
	net := superip.HSN(4, superip.NucleusHypercube(3)).SymmetricVariant()
	return net.Super().IPGraph()
}

// BenchmarkBuildSeq measures IPGraph.Build, the sequential level-order
// enumerator. The name predates the removal of a parallel builder and is
// kept so its BENCH_baseline.json row stays comparable.
func BenchmarkBuildSeq(b *testing.B) {
	ip := buildBenchIP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ip.Build(core.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllPairsHSN3Q4 measures the parallel all-pairs BFS used for every
// exact diameter/average-distance data point.
func BenchmarkAllPairsHSN3Q4(b *testing.B) {
	net := superip.HSN(3, superip.NucleusHypercube(4))
	g, err := net.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.AllPairs()
	}
}

// BenchmarkIStatsCN3Q4 measures the 0/1-BFS inter-cluster measurement that
// generates Fig. 3 points.
func BenchmarkIStatsCN3Q4(b *testing.B) {
	net := superip.CompleteCN(3, superip.NucleusHypercube(4))
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		b.Fatal(err)
	}
	p := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = metrics.IStats(g, p)
	}
}

// BenchmarkRouting measures the Theorem 4.1 router on HSN(3;Q4).
func BenchmarkRouting(b *testing.B) {
	net := superip.HSN(3, superip.NucleusHypercube(4))
	_, ix, err := net.BuildWithIndex()
	if err != nil {
		b.Fatal(err)
	}
	r, err := net.Router()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := ix.Label(int32(i % ix.N()))
		dst := ix.Label(int32((i * 2654435761) % ix.N()))
		if _, err := r.Route(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgebraicRoute measures end-to-end id-space routing on the
// implicit topology of sym-HSN(3;Q4): walk the Theorem 4.3 route on rank
// digits, emitting its node ids (core.Router.WordID), and copy them out —
// the whole per-packet cost of routing without a materialized graph, and
// with no label.
func BenchmarkAlgebraicRoute(b *testing.B) {
	net := superip.HSN(3, superip.NucleusHypercube(4)).SymmetricVariant()
	r, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		b.Fatal(err)
	}
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		b.Fatal(err)
	}
	n := imp.N()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := int64(i) % n
		dst := (int64(i) * 2654435761) % n
		if src == dst {
			continue
		}
		if _, err := r.Path(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgebraicPathSymHSN45 is BenchmarkAlgebraicRoute on the
// instance and pairs of cmd/ipbench's route-symhsn45 workload: Path over
// 4,000 pairs of the 25,165,824-node sym-HSN(4;Q5), drawn from seed 1 (a
// source, then a different destination), one route per op.
func BenchmarkAlgebraicPathSymHSN45(b *testing.B) {
	net := superip.HSN(4, superip.NucleusHypercube(5)).SymmetricVariant()
	r, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		b.Fatal(err)
	}
	n := int64(net.N())
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int64, 4000)
	for i := range pairs {
		src := rng.Int63n(n)
		dst := rng.Int63n(n - 1)
		if dst >= src {
			dst++
		}
		pairs[i] = [2]int64{src, dst}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		if _, err := r.Path(pr[0], pr[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// symHSN3Q4Ranker returns the label algebra of the sym-HSN(3;Q4) instance
// the routing rungs use (6,144 nodes).
func symHSN3Q4Ranker(b *testing.B) (*core.SuperIP, *core.Ranker) {
	b.Helper()
	s := superip.HSN(3, superip.NucleusHypercube(4)).SymmetricVariant().Super()
	rk, err := s.Ranker()
	if err != nil {
		b.Fatal(err)
	}
	return s, rk
}

// rankSink keeps the ranker rungs' results live.
var rankSink int64

// BenchmarkRankerRank measures label -> id on sym-HSN(3;Q4): layer 1 of
// every routed hop and every neighbor.
func BenchmarkRankerRank(b *testing.B) {
	_, rk := symHSN3Q4Ranker(b)
	labels := make([]symbols.Label, 1024)
	for i := range labels {
		labels[i] = rk.Unrank((int64(i)*2654435761)%rk.N(), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := rk.Rank(labels[i%len(labels)])
		if err != nil {
			b.Fatal(err)
		}
		rankSink += id
	}
}

// BenchmarkRankerUnrank measures id -> label on sym-HSN(3;Q4) into a reused
// buffer.
func BenchmarkRankerUnrank(b *testing.B) {
	_, rk := symHSN3Q4Ranker(b)
	buf := make(symbols.Label, rk.LabelLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = rk.Unrank((int64(i)*2654435761)%rk.N(), buf)
		rankSink += int64(buf[0])
	}
}

// BenchmarkRankerStep measures one generator step on rank digits on
// sym-HSN(3;Q4), cycling through every generator: layer 1 of every
// neighbor and of every super-generator hop of an id route.
func BenchmarkRankerStep(b *testing.B) {
	s, rk := symHSN3Q4Ranker(b)
	deg := len(s.IPGraph().Gens)
	n := rk.N()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankSink += rk.Step((int64(i)*2654435761)%n, i%deg)
	}
}

// BenchmarkImplicitNeighbors measures one adjacency list of the implicit
// sym-HSN(3;Q4): step the node's rank along every generator and insert
// each image into the sorted list.
func BenchmarkImplicitNeighbors(b *testing.B) {
	s, _ := symHSN3Q4Ranker(b)
	imp, err := topo.NewImplicit(s)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]int64, 0, imp.MaxDegree())
	n := imp.N()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = imp.Neighbors((int64(i)*2654435761)%n, buf)
	}
}

// BenchmarkRouteSymHSN3Q4 measures the Theorem 4.3 route alone on
// sym-HSN(3;Q4): core.Router.Word between labels into a reused buffer, with
// no ranking (BenchmarkAlgebraicRoute adds the id translation).
func BenchmarkRouteSymHSN3Q4(b *testing.B) {
	s, rk := symHSN3Q4Ranker(b)
	r, err := core.NewRouter(s)
	if err != nil {
		b.Fatal(err)
	}
	labels := make([]symbols.Label, 1024)
	for i := range labels {
		labels[i] = rk.Unrank((int64(i)*2654435761)%rk.N(), nil)
	}
	var word []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		word, err = r.Word(labels[i%len(labels)], labels[(i*7+1)%len(labels)], word[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWordID is BenchmarkRouteSymHSN3Q4 on ids: the Theorem 4.3 route
// alone, walked on rank digits by core.Router.WordID between the same node
// pairs, its word and node ids into reused buffers.
func BenchmarkWordID(b *testing.B) {
	s, rk := symHSN3Q4Ranker(b)
	r, err := core.NewRouter(s)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int64, 1024)
	for i := range ids {
		ids[i] = (int64(i) * 2654435761) % rk.N()
	}
	var word []int
	var path []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		word, path, err = r.WordID(ids[i%len(ids)], ids[(i*7+1)%len(ids)], word[:0], path[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultAwareRoute measures fault-aware routing on the implicit
// sym-HSN(3;Q4) with a fixed set of live link faults: most pairs route
// clean (pure wrapper overhead over BenchmarkAlgebraicRoute), the rest pay
// the generator-conjugate detour derivation.
func BenchmarkFaultAwareRoute(b *testing.B) {
	net := superip.HSN(3, superip.NucleusHypercube(4)).SymmetricVariant()
	r, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		b.Fatal(err)
	}
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		b.Fatal(err)
	}
	n := imp.N()
	fs := topo.NewFaultSet()
	fa := topo.NewFaultAware(imp, r, fs)
	var buf []int64
	for k := int64(0); k < 16; k++ {
		u := (k * 40503) % n
		buf = imp.Neighbors(u, buf)
		fs.FailLinkBoth(u, buf[int(k)%len(buf)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := int64(i) % n
		dst := (int64(i) * 2654435761) % n
		if src == dst || fs.NodeDown(src) || fs.NodeDown(dst) {
			continue
		}
		if _, err := fa.Path(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// nextHopWalk drives a few hundred packets round-robin through r on the
// implicit sym-HSN(3;Q4), one NextHop per iteration, so the router's route
// store holds a realistic in-flight population. A packet that arrives is
// replaced by the next pair of a fixed sequence; pairs touching a failed
// node are skipped.
func nextHopWalk(b *testing.B, imp *topo.Implicit, r topo.Router, fs *topo.FaultSet) {
	b.Helper()
	const packets = 256
	n := imp.N()
	var cur, dst [packets]int64
	pair := int64(0)
	refill := func(k int) {
		for {
			pair++
			src, d := pair%n, (pair*2654435761)%n
			if src != d && !fs.NodeDown(src) && !fs.NodeDown(d) {
				cur[k], dst[k] = src, d
				return
			}
		}
	}
	for k := range cur {
		refill(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % packets
		nxt, err := r.NextHop(cur[k], dst[k])
		if err != nil {
			b.Fatal(err)
		}
		if cur[k] = nxt; nxt == dst[k] {
			refill(k)
		}
	}
}

// BenchmarkAlgebraicNextHop measures one routed hop of the algebraic router
// on the implicit sym-HSN(3;Q4) with a few hundred packets in flight: the
// route-store lookup, delete and re-insert of every hop, plus a Theorem 4.3
// route at each packet's source.
func BenchmarkAlgebraicNextHop(b *testing.B) {
	net := superip.HSN(3, superip.NucleusHypercube(4)).SymmetricVariant()
	r, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		b.Fatal(err)
	}
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		b.Fatal(err)
	}
	nextHopWalk(b, imp, r, topo.NewFaultSet())
}

// BenchmarkFaultAwareNextHop is BenchmarkAlgebraicNextHop through
// FaultAware, with BenchmarkFaultAwareRoute's 16 live link faults: it prices
// the route store and the FaultSet queries that verify each new route.
func BenchmarkFaultAwareNextHop(b *testing.B) {
	net := superip.HSN(3, superip.NucleusHypercube(4)).SymmetricVariant()
	r, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		b.Fatal(err)
	}
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		b.Fatal(err)
	}
	n := imp.N()
	fs := topo.NewFaultSet()
	var buf []int64
	for k := int64(0); k < 16; k++ {
		u := (k * 40503) % n
		buf = imp.Neighbors(u, buf)
		fs.FailLinkBoth(u, buf[int(k)%len(buf)])
	}
	nextHopWalk(b, imp, topo.NewFaultAware(imp, r, fs), fs)
}

// BenchmarkFaultAwareRouteProbed measures the faulty routing workload the
// way a probed simulator run consumes it: packets walk hop by hop through
// NextHop (exercising the suffix cache the counters instrument), and a
// RouterStats snapshot (plus its Delta against the run start) is taken
// every iteration. The counters themselves are always on — this twin
// prices the cache-walk consumption pattern and reading the telemetry,
// against BenchmarkFaultAwareRoute's one-shot source-route derivation.
func BenchmarkFaultAwareRouteProbed(b *testing.B) {
	net := superip.HSN(3, superip.NucleusHypercube(4)).SymmetricVariant()
	r, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		b.Fatal(err)
	}
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		b.Fatal(err)
	}
	n := imp.N()
	fs := topo.NewFaultSet()
	fa := topo.NewFaultAware(imp, r, fs)
	var buf []int64
	for k := int64(0); k < 16; k++ {
		u := (k * 40503) % n
		buf = imp.Neighbors(u, buf)
		fs.FailLinkBoth(u, buf[int(k)%len(buf)])
	}
	base := fa.RouterStats()
	var last topo.RouterStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := int64(i+1) % n
		dst := (int64(i+1) * 2654435761) % n
		if src == dst || fs.NodeDown(src) || fs.NodeDown(dst) {
			continue
		}
		for cur, hops := src, 0; cur != dst; hops++ {
			if hops > 1024 {
				b.Fatalf("walk %d -> %d did not converge", src, dst)
			}
			nxt, err := fa.NextHop(cur, dst)
			if err != nil {
				b.Fatal(err)
			}
			cur = nxt
		}
		last = fa.RouterStats().Delta(base)
	}
	if last.CacheHits+last.CacheMisses == 0 {
		b.Fatal("router telemetry recorded no lookups")
	}
}

// BenchmarkEmbedding measures the dilation-3 hypercube-into-HSN embedding
// check (Section 3.2's embedding claim): Q6 into HSN(2;Q3), every guest
// edge validated.
func BenchmarkEmbedding(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := embed.ProductIntoHSN(superip.HSN(2, superip.NucleusHypercube(3)))
		if err != nil {
			b.Fatal(err)
		}
		if r.Dilation > 3 {
			b.Fatal("dilation exceeded 3")
		}
	}
}

// BenchmarkNetsim measures the packet simulator on HSN(2;Q4) with slow
// off-module links (the Section 5.4 scenario).
func BenchmarkNetsim(b *testing.B) {
	net := superip.HSN(2, superip.NucleusHypercube(4))
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		b.Fatal(err)
	}
	p := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.RunImplicit(onTables(g, nil, netsim.ImplicitConfig{
			ModuleOf: p.Module, OffModulePeriod: 4,
			InjectionRate: 0.005, WarmupCycles: 100, MeasureCycles: 1000,
			Seed: int64(i),
		})); err != nil {
			b.Fatal(err)
		}
	}
}

// onTables returns cfg on the built graph g routed by a fresh table router
// (topo.BFSRouter over fs, nil when fault-free), with the built-graph hop
// watchdog (8·N: a built graph's diameter can exceed the 4096 default).
// The benchmarks call it once an op, so every op builds its router's
// tables anew.
func onTables(g *graph.Graph, fs *topo.FaultSet, cfg netsim.ImplicitConfig) netsim.ImplicitConfig {
	t := topo.NewMaterialized(g)
	cfg.Topo, cfg.Router = t, topo.NewBFSRouter(t, fs)
	cfg.MaxHops = 8 * g.N()
	return cfg
}

// netsimBench builds the BenchmarkNetsim system once per benchmark: the
// graph, its partition and the run settings.
func netsimBench(b *testing.B) (*graph.Graph, metrics.Partition, netsim.ImplicitConfig) {
	b.Helper()
	net := superip.HSN(2, superip.NucleusHypercube(4))
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		b.Fatal(err)
	}
	p := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())
	return g, p, netsim.ImplicitConfig{
		ModuleOf: p.Module, OffModulePeriod: 4,
		InjectionRate: 0.005, WarmupCycles: 100, MeasureCycles: 1000,
	}
}

// fullProbe attaches every collector the obs package ships, so the probed
// benchmarks price the observability layer at its most expensive.
func fullProbe(p metrics.Partition) obs.Probe {
	return obs.Multi(
		&obs.LatencyHist{},
		obs.NewTimeSeries(p.Module, 50),
		obs.NewModuleSeries(p.Module, 50),
		&obs.Trace{SampleEvery: 16},
	)
}

// BenchmarkRunUniform isolates one fault-free simulator run (the inner
// loop of every latency sweep). Its Probed twin measures the same run with
// all obs collectors attached; comparing the two prices the observability
// layer. The nil-probe path must stay within noise of the pre-obs
// simulator — the probe hooks all sit behind a single nil check.
func BenchmarkRunUniform(b *testing.B) {
	g, _, cfg := netsimBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := netsim.RunImplicit(onTables(g, nil, cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunUniformProbed(b *testing.B) {
	g, p, cfg := netsimBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		cfg.Probe = fullProbe(p)
		if _, err := netsim.RunImplicit(onTables(g, nil, cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFaulty measures the degraded-mode simulator under a live
// fault plan (table rebuilds and drops included).
func BenchmarkRunFaulty(b *testing.B) {
	g, _, cfg := netsimBench(b)
	plan, err := netsim.RandomFaults{
		MTBF: 200, RepairTime: 300, Start: cfg.WarmupCycles,
		Horizon: cfg.WarmupCycles + cfg.MeasureCycles, MaxFaults: 4, Seed: 1,
	}.PlanTopo(topo.NewMaterialized(g))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		fs := topo.NewFaultSet()
		if _, err := netsim.RunImplicitFaulty(onTables(g, fs, cfg),
			netsim.ImplicitFaultConfig{Plan: plan, Faults: fs}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunFaultyProbed(b *testing.B) {
	g, p, cfg := netsimBench(b)
	plan, err := netsim.RandomFaults{
		MTBF: 200, RepairTime: 300, Start: cfg.WarmupCycles,
		Horizon: cfg.WarmupCycles + cfg.MeasureCycles, MaxFaults: 4, Seed: 1,
	}.PlanTopo(topo.NewMaterialized(g))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		cfg.Probe = fullProbe(p)
		fs := topo.NewFaultSet()
		if _, err := netsim.RunImplicitFaulty(onTables(g, fs, cfg),
			netsim.ImplicitFaultConfig{Plan: plan, Faults: fs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIPGraphEnumeration measures raw IP-graph state enumeration on a
// Cayley graph (the 7-symbol star graph, 5040 nodes).
func BenchmarkIPGraphEnumeration(b *testing.B) {
	nuc := superip.NucleusStar(7)
	ip := &core.IPGraph{Seed: nuc.Nuc.Seed, Gens: nuc.Nuc.Gens}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ip.Build(core.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectHypercube measures the direct-construction baseline.
func BenchmarkDirectHypercube(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (networks.Hypercube{Dim: 14}).Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation regenerates the nucleus-choice ablation table (DESIGN.md
// design-choice study: density of the nucleus vs diameter at fixed module
// size).
func BenchmarkAblation(b *testing.B) { benchTable(b, figures.NucleusAblation) }

// BenchmarkOptimalityGHC regenerates the Theorem 4.4 table with the paper's
// recommended generalized-hypercube nuclei.
func BenchmarkOptimalityGHC(b *testing.B) { benchTable(b, figures.OptimalityGHC) }

// BenchmarkSection51 regenerates the constant-bisection vs constant-pinout
// comparison of Section 5.1 (Kernighan-Lin bisection estimates inside).
func BenchmarkSection51(b *testing.B) {
	benchTable(b, func() (*figures.Table, error) { return figures.Section51(4, 1) })
}

// BenchmarkBidirectionalSearch measures optimal label-space routing on
// HSN(3;Q4) (4096 nodes) without using the built graph.
func BenchmarkBidirectionalSearch(b *testing.B) {
	net := superip.HSN(3, superip.NucleusHypercube(4))
	ip := net.Super().IPGraph()
	src := net.Super().SeedLabel()
	dst := symbols.RepeatedSeed(3, symbols.Label{2, 1, 2, 1, 2, 1, 2, 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.ShortestPath(src, dst, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVertexConnectivity measures the max-flow connectivity analysis
// on the 5-star (120 nodes).
func BenchmarkVertexConnectivity(b *testing.B) {
	g, err := networks.Star{Symbols: 5}.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faults.VertexConnectivity(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcast measures the module-aware broadcast construction and
// scheduling on HSN(3;Q4).
func BenchmarkBroadcast(b *testing.B) {
	net := superip.HSN(3, superip.NucleusHypercube(4))
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		b.Fatal(err)
	}
	p := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectives.Broadcast(g, p, 0, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitonicSortEmulated measures the bitonic sort on the emulated
// HSN(2;Q3) machine (64 values).
func BenchmarkBitonicSortEmulated(b *testing.B) {
	m, err := emulate.NewHSNMachine(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]int64, m.N())
	for i := range vals {
		vals[i] = int64((i * 2654435761) % 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.SetValues(vals); err != nil {
			b.Fatal(err)
		}
		if err := emulate.BitonicSort(m); err != nil {
			b.Fatal(err)
		}
	}
}
