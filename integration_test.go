package repro

// Integration tests exercising the full pipeline across modules: define a
// super-IP network, verify its theory, pack it into modules, measure the
// Section 5 metrics, broadcast on it, embed its product network, emulate an
// algorithm, and simulate packet traffic — each stage consuming the previous
// stage's artifacts.

import (
	"math"
	"testing"

	"repro/internal/collectives"
	"repro/internal/embed"
	"repro/internal/emulate"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/superip"
	"repro/internal/topo"
)

// TestEndToEndHSNPipeline drives one network through every subsystem.
func TestEndToEndHSNPipeline(t *testing.T) {
	net := superip.HSN(2, superip.NucleusHypercube(3)) // 64 nodes

	// 1. Theory: build and verify the Theorem 3.2/4.1 laws.
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != net.N() {
		t.Fatalf("size law: %d vs %d", g.N(), net.N())
	}
	st := g.AllPairs()
	if int(st.Diameter) != net.Diameter() {
		t.Fatalf("diameter law: %d vs %d", st.Diameter, net.Diameter())
	}

	// 2. Routing: the Theorem 4.1 router on a worst-case pair, cross-checked
	// against the bidirectional label search.
	router, err := net.Router()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := ix.Label(0), ix.Label(int32(ix.N()-1))
	path, err := router.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := net.Super().IPGraph().ShortestPath(src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if path.Hops() > net.Diameter() || len(opt) > path.Hops() {
		t.Fatalf("routing: %d hops (optimal search %d, diameter %d)",
			path.Hops(), len(opt), net.Diameter())
	}

	// 3. Packaging: nucleus modules, Section 5 metrics.
	part := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())
	ist := metrics.IStats(g, part)
	if int(ist.Diameter) != net.IDiameter() {
		t.Fatalf("I-diameter: %d vs %d", ist.Diameter, net.IDiameter())
	}
	ideg := metrics.IDegree(g, part)
	if ideg > float64(net.SuperDegree()) {
		t.Fatalf("I-degree %v exceeds super-degree %d", ideg, net.SuperDegree())
	}

	// 4. Collectives: module-aware broadcast crosses modules K-1 times.
	bres, err := collectives.Broadcast(g, part, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bres.CrossEdges != part.K-1 {
		t.Fatalf("broadcast cross edges %d, want %d", bres.CrossEdges, part.K-1)
	}

	// 5. Embedding: the guest hypercube Q6 embeds with dilation <= 3.
	eres, err := embed.ProductIntoHSN(net)
	if err != nil {
		t.Fatal(err)
	}
	if eres.Dilation > 3 {
		t.Fatalf("dilation %d", eres.Dilation)
	}

	// 6. Emulation: all-reduce on the emulated machine matches a direct Q6.
	machine, err := emulate.NewHSNMachine(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, machine.N())
	var want int64
	for i := range vals {
		vals[i] = int64(i * i % 97)
		want += vals[i]
	}
	if err := machine.SetValues(vals); err != nil {
		t.Fatal(err)
	}
	if err := emulate.AllReduceSum(machine); err != nil {
		t.Fatal(err)
	}
	for _, v := range machine.Values() {
		if v != want {
			t.Fatalf("all-reduce result %d, want %d", v, want)
		}
	}

	// 7. Robustness: connectivity equals min degree.
	kappa, err := faults.VertexConnectivity(g)
	if err != nil {
		t.Fatal(err)
	}
	if kappa != g.MinDegree() {
		t.Fatalf("kappa %d != min degree %d", kappa, g.MinDegree())
	}

	// 8. Simulation: delivered latency under light load is at least the
	// average distance and bounded by it plus slack.
	mat := topo.NewMaterialized(g)
	sim, err := netsim.RunImplicit(netsim.ImplicitConfig{
		Topo: mat, Router: topo.NewBFSRouter(mat, nil), ModuleOf: part.Module, OffModulePeriod: 2,
		InjectionRate: 0.01, WarmupCycles: 200, MeasureCycles: 1500, Seed: 1,
		MaxHops: 8 * g.N(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.AvgLatency < st.AvgDistance {
		t.Fatalf("simulated latency %v below average distance %v", sim.AvgLatency, st.AvgDistance)
	}

	// 9. Throughput: the analytic bound is consistent with the simulated
	// delivered throughput.
	bound := metrics.ThroughputBound(g, st.AvgDistance)
	if sim.Throughput > bound {
		t.Fatalf("simulated throughput %v exceeds bound %v", sim.Throughput, bound)
	}
}

// TestEndToEndSymmetricPipeline drives the symmetric-variant machinery.
func TestEndToEndSymmetricPipeline(t *testing.T) {
	base := superip.RingCN(3, superip.NucleusHypercube(2))
	sym := base.SymmetricVariant()
	g, ix, err := sym.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3*base.N() {
		t.Fatalf("symmetric size %d, want %d", g.N(), 3*base.N())
	}
	if !g.IsRegular() {
		t.Fatal("symmetric variant must be regular")
	}
	st := g.AllPairs()
	if int(st.Diameter) != sym.Diameter() {
		t.Fatalf("Theorem 4.3: %d vs %d", st.Diameter, sym.Diameter())
	}
	// Route with the Theorem 4.3 schedule machinery.
	r, err := sym.Router()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		u := int32((trial * 17) % ix.N())
		v := int32((trial * 89) % ix.N())
		path, err := r.Route(ix.Label(u), ix.Label(v))
		if err != nil {
			t.Fatal(err)
		}
		if path.Hops() > sym.Diameter() {
			t.Fatalf("route %d hops > diameter %d", path.Hops(), sym.Diameter())
		}
	}
}

// TestFigureConsistency cross-checks figure tables against the metric
// machinery they are built from.
func TestFigureConsistency(t *testing.T) {
	net := superip.CompleteCN(2, superip.NucleusHypercube(4))
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	p := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())
	measured := metrics.IDegree(g, p)
	analytic := figures.IDegreeAnalytic(net)
	if math.Abs(measured-analytic) > 1e-9 {
		t.Fatalf("figures I-degree %v vs measured %v", analytic, measured)
	}
	if metrics.IICost(analytic, net.IDiameter()) !=
		metrics.IICost(measured, int(metrics.IStats(g, p).Diameter)) {
		t.Fatal("II-cost pipelines disagree")
	}
}
