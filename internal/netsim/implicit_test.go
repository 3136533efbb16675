package netsim

import (
	"fmt"
	"testing"

	"repro/internal/networks"
	"repro/internal/superip"
	"repro/internal/topo"
)

// TestRunWithRouterMatchesTables checks that plugging a lazily materialized
// BFS table router (topo.Table) into Run reproduces the historical nil-Router
// path bit for bit: both consult identical tables and neither consumes
// randomness while routing.
func TestRunWithRouterMatchesTables(t *testing.T) {
	g, err := networks.Hypercube{Dim: 6}.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Graph: g, InjectionRate: 0.02,
		WarmupCycles: 100, MeasureCycles: 1000, Seed: 11}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withRouter := base
	withRouter.Router = topo.NewTable(g)
	got, err := Run(withRouter)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("stats diverge: with router %+v, tables %+v", got, want)
	}
}

// TestRunRouterAdaptiveConflict pins the config error: a deterministic
// router oracle cannot be combined with adaptive minimal routing.
func TestRunRouterAdaptiveConflict(t *testing.T) {
	g, err := networks.Hypercube{Dim: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Graph: g, InjectionRate: 0.01, MeasureCycles: 10,
		Router: topo.NewTable(g), Adaptive: true})
	if err == nil {
		t.Fatal("Router+Adaptive accepted")
	}
}

// TestRunWithAlgebraicRouter runs the materialized simulator with the
// paper's algebraic router over a super-IP graph and checks packets arrive.
func TestRunWithAlgebraicRouter(t *testing.T) {
	net := superip.HSN(2, superip.NucleusHypercube(2))
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	r, err := topo.NewAlgebraicWith(net.Super(), topo.NewMaterialized(g, ix))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(Config{Graph: g, InjectionRate: 0.02, Router: r,
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
// simulator against the materialized one on the same super-IP network with
// the same algebraic routing discipline. The two runs consume randomness
// differently, so the comparison is statistical: delivery must be complete
// and the average latencies must agree to within a small factor.
func TestRunImplicitMatchesMaterializedSuperIP(t *testing.T) {
	net := superip.HSN(2, superip.NucleusHypercube(3))
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	ar, err := topo.NewAlgebraicWith(net.Super(), topo.NewMaterialized(g, ix))
	if err != nil {
		t.Fatal(err)
	}
	mat, err := Run(Config{Graph: g, InjectionRate: 0.02, Router: ar,
		WarmupCycles: 200, MeasureCycles: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	air, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	ist, err := RunImplicit(ImplicitConfig{Topo: imp, Router: air,
		InjectionRate: 0.02, WarmupCycles: 200, MeasureCycles: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if ist.Delivered == 0 || ist.Expired != 0 {
		t.Fatalf("implicit run lost packets: %+v", ist)
	}
	ratio := ist.AvgLatency / mat.AvgLatency
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("latency mismatch: implicit %v vs materialized %v", ist.AvgLatency, mat.AvgLatency)
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
