package netsim

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/superip"
	"repro/internal/topo"
)

// TestRunWithAlgebraicRouter runs the paper's algebraic router over a built
// super-IP graph (topo.Materialized, numbered in rank order) and checks
// packets arrive.
func TestRunWithAlgebraicRouter(t *testing.T) {
	net := superip.HSN(2, superip.NucleusHypercube(2))
	mat := topo.NewMaterialized(rankOrdered(t, net))
	r, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunImplicit(ImplicitConfig{Topo: mat, Router: r, InjectionRate: 0.02,
		WarmupCycles: 100, MeasureCycles: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered == 0 || st.Expired != 0 {
		t.Fatalf("algebraic-routed run lost packets: %+v", st)
	}
}

// TestRunImplicitHypercube drives the sparse simulator over the implicit
// Q10 with e-cube routing and checks conservation and latency sanity.
func TestRunImplicitHypercube(t *testing.T) {
	const dim = 10
	st, err := RunImplicit(ImplicitConfig{
		Topo:          topo.HypercubeTopo{Dim: dim},
		Router:        topo.HypercubeRouter{Dim: dim},
		InjectionRate: 0.01,
		WarmupCycles:  100, MeasureCycles: 1000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Injected == 0 || st.Delivered == 0 {
		t.Fatalf("no traffic: %+v", st)
	}
	if st.Delivered+st.Expired != st.Injected {
		t.Fatalf("conservation violated: %+v", st)
	}
	// Uniform traffic on Q10 averages dim/2 = 5 hops; with queueing the
	// latency must be at least that and, at 1% load, not wildly above.
	if st.AvgLatency < 4 || st.AvgLatency > 20 {
		t.Fatalf("implausible average latency %v for light-load Q%d", st.AvgLatency, dim)
	}
}

// TestRunImplicitMatchesMaterializedSuperIP cross-checks the implicit
// topology against the built graph of the same super-IP network, numbered in
// rank order, under the same algebraic routing discipline and module
// packing: the two present the same ids, neighbors and ports, so the runs
// must be identical, stats and router counters alike.
func TestRunImplicitMatchesMaterializedSuperIP(t *testing.T) {
	for _, net := range []*superip.Net{
		superip.HSN(2, superip.NucleusHypercube(3)),
		superip.HSN(3, superip.NucleusHypercube(2)).SymmetricVariant(),
		superip.RingCN(3, superip.NucleusHypercube(2)),
	} {
		imp, err := topo.NewImplicit(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		run := func(tp Topology) ImplicitFaultStats {
			t.Helper()
			r, err := topo.NewAlgebraic(net.Super())
			if err != nil {
				t.Fatal(err)
			}
			st, err := RunImplicit(ImplicitConfig{Topo: tp, Router: r, InjectionRate: 0.02,
				WarmupCycles: 200, MeasureCycles: 2000, Seed: 9,
				ModuleOf: imp.Module, OffModulePeriod: 4})
			if err != nil {
				t.Fatalf("%s: %v", net.Name(), err)
			}
			return st
		}
		ist, mst := run(imp), run(topo.NewMaterialized(rankOrdered(t, net)))
		if ist.Delivered == 0 || ist.Expired != 0 {
			t.Fatalf("%s: implicit run lost packets: %+v", net.Name(), ist)
		}
		if ist != mst {
			t.Fatalf("%s: implicit run %+v, rank-ordered built graph %+v", net.Name(), ist, mst)
		}
	}
}

// TestRunImplicitOffModulePeriods checks that slowing off-module links via
// ModuleOf raises latency, mirroring the materialized simulator's partition
// behavior.
func TestRunImplicitOffModulePeriods(t *testing.T) {
	net := superip.HSN(2, superip.NucleusHypercube(3))
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	r, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	base := ImplicitConfig{Topo: imp, Router: r, InjectionRate: 0.01,
		WarmupCycles: 100, MeasureCycles: 1000, Seed: 2}
	fast, err := RunImplicit(base)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.OffModulePeriod = 8
	slow.ModuleOf = imp.Module
	slowSt, err := RunImplicit(slow)
	if err != nil {
		t.Fatal(err)
	}
	if slowSt.AvgLatency <= fast.AvgLatency {
		t.Fatalf("off-module period 8 did not raise latency: %v vs %v",
			slowSt.AvgLatency, fast.AvgLatency)
	}
}

// TestRunImplicitDeterminism checks that identical configs reproduce
// identical stats, and that config errors are reported.
func TestRunImplicitDeterminism(t *testing.T) {
	cfg := ImplicitConfig{
		Topo:          topo.HypercubeTopo{Dim: 8},
		Router:        topo.HypercubeRouter{Dim: 8},
		InjectionRate: 0.05,
		WarmupCycles:  50, MeasureCycles: 500, Seed: 77,
	}
	a, err := RunImplicit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunImplicit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}

	bad := cfg
	bad.Router = nil
	if _, err := RunImplicit(bad); err == nil {
		t.Fatal("missing router accepted")
	}
	bad = cfg
	bad.InjectionRate = 1.5
	if _, err := RunImplicit(bad); err == nil {
		t.Fatal("injection rate 1.5 accepted")
	}
}

// loopRouter always routes to a fixed neighbor pair, never reaching dst.
type loopRouter struct{}

func (loopRouter) NextHop(cur, dst int64) (int64, error) {
	return cur ^ 1, nil // bounce between 2k and 2k+1 forever
}

// TestRunImplicitLivelockGuard checks that MaxHops converts a cycling
// router into an error instead of an unbounded run. An empty fault plan is
// not degraded mode, so RunImplicitFaulty without faults errors too.
func TestRunImplicitLivelockGuard(t *testing.T) {
	cfg := ImplicitConfig{
		Topo:          topo.HypercubeTopo{Dim: 6},
		Router:        loopRouter{},
		InjectionRate: 0.5,
		WarmupCycles:  10, MeasureCycles: 100, Seed: 1,
		MaxHops: 32,
	}
	_, plainErr := RunImplicit(cfg)
	_, faultyErr := RunImplicitFaulty(cfg, ImplicitFaultConfig{})
	want := fmt.Sprintf("exceeded %d hops", 32)
	for _, run := range []struct {
		name string
		err  error
	}{{"RunImplicit", plainErr}, {"RunImplicitFaulty without a plan", faultyErr}} {
		if run.err == nil {
			t.Fatalf("%s: livelocked router not detected", run.name)
		}
		if got := run.err.Error(); !contains(got, want) {
			t.Fatalf("%s: error %q does not mention hop bound", run.name, got)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// rankOrdered builds net and renumbers its nodes in rank order (node id =
// core.Ranker.Rank of its label), the id space of topo.Implicit, so the id
// routers run on the built graph unchanged.
func rankOrdered(t testing.TB, net *superip.Net) *graph.Graph {
	t.Helper()
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		t.Fatalf("%s: build: %v", net.Name(), err)
	}
	rk, err := net.Super().Ranker()
	if err != nil {
		t.Fatalf("%s: ranker: %v", net.Name(), err)
	}
	rank := make([]int32, g.N())
	for u := range rank {
		r, err := rk.Rank(ix.Label(int32(u)))
		if err != nil {
			t.Fatalf("%s: rank of node %d: %v", net.Name(), u, err)
		}
		rank[u] = int32(r)
	}
	b := graph.NewBuilder(g.N(), g.Directed)
	for u, ru := range rank {
		for _, v := range g.Neighbors(int32(u)) {
			b.AddArc(ru, rank[v])
		}
	}
	return b.Build()
}
