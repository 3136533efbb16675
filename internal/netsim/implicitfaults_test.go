package netsim

import (
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/superip"
	"repro/internal/topo"
)

// faultTestNet builds the small symmetric family most fault tests run on,
// returning the implicit topology, a fault set, and a fault-aware algebraic
// router sharing it.
func faultTestNet(t testing.TB) (*superip.Net, *topo.Implicit, *topo.FaultSet, *topo.FaultAware) {
	t.Helper()
	net := superip.HSN(3, superip.NucleusHypercube(2)).SymmetricVariant()
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	inner, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	fs := topo.NewFaultSet()
	return net, imp, fs, topo.NewFaultAware(imp, inner, fs)
}

// TestRunImplicitFaultyEmptyPlanIdentical pins the acceptance criterion: a
// fault-free RunImplicitFaulty with a FaultAware router is stat-identical to
// the plain Algebraic RunImplicit — same RNG stream, same routes, same
// Stats, and zeroed fault counters.
func TestRunImplicitFaultyEmptyPlanIdentical(t *testing.T) {
	net, imp, _, fa := faultTestNet(t)
	plain, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ImplicitConfig{Topo: imp, Router: plain, InjectionRate: 0.02,
		WarmupCycles: 50, MeasureCycles: 500, Seed: 7}
	want, err := RunImplicit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Router = fa
	got, err := RunImplicitFaulty(cfg, ImplicitFaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	same := got
	same.Router = want.Router // the two routers differ, so only their telemetry may
	if same != want {
		t.Fatalf("fault-free stats diverge:\nfaulty run: %+v\nplain run:  %+v", got, want)
	}
	if got.Lost != 0 || got.DeliveredDegraded != 0 || got.HopLimitDrops != 0 ||
		got.Router.Reroutes != 0 || got.Router.DetourHops != 0 ||
		got.FaultsInjected != 0 || got.FaultsRepaired != 0 {
		t.Fatalf("fault-free run has nonzero fault counters: %+v", got)
	}
}

// faultyPlanFor returns a moderate deterministic plan for the test family:
// a few transient and permanent link faults plus one transient node fault,
// all in implicit id space.
func faultyPlanFor(t *testing.T, imp *topo.Implicit, seed int64) *FaultPlan {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	plan := &FaultPlan{}
	var buf []int64
	for i := 0; i < 6; i++ {
		u := rng.Int63n(imp.N())
		buf = imp.Neighbors(u, buf)
		v := buf[rng.Intn(len(buf))]
		repair := 0
		if i%2 == 0 {
			repair = 80 + 40*i
		}
		plan.LinkDown(10+15*i, u, v, repair)
	}
	plan.NodeDown(60, 1+rng.Int63n(imp.N()-1), 200)
	return plan
}

// TestRunImplicitFaultyDeterministic reruns an identical faulty
// configuration and requires identical degraded-mode statistics: fault
// application, rerouting, and drops must consume no randomness.
func TestRunImplicitFaultyDeterministic(t *testing.T) {
	run := func() ImplicitFaultStats {
		_, imp, fs, fa := faultTestNet(t)
		plan := faultyPlanFor(t, imp, 3)
		st, err := RunImplicitFaulty(ImplicitConfig{Topo: imp, Router: fa,
			InjectionRate: 0.05, WarmupCycles: 50, MeasureCycles: 400, Seed: 13},
			ImplicitFaultConfig{Plan: plan, Faults: fs})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("faulty runs diverge:\n%+v\n%+v", a, b)
	}
}

// TestRunImplicitFaultyDelivery checks the degraded-mode accounting on a
// run with real faults: conservation (Injected = Delivered + Lost +
// Expired), faults applied and repaired as scheduled, and the router
// actually rerouting.
func TestRunImplicitFaultyDelivery(t *testing.T) {
	_, imp, fs, fa := faultTestNet(t)
	plan := faultyPlanFor(t, imp, 5)
	st, err := RunImplicitFaulty(ImplicitConfig{Topo: imp, Router: fa,
		InjectionRate: 0.05, WarmupCycles: 50, MeasureCycles: 400, Seed: 17},
		ImplicitFaultConfig{Plan: plan, Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	if st.Injected == 0 {
		t.Fatal("no traffic injected")
	}
	if st.Injected != st.Delivered+st.Lost+st.Expired {
		t.Fatalf("conservation violated: %d injected, %d delivered + %d lost + %d expired",
			st.Injected, st.Delivered, st.Lost, st.Expired)
	}
	if st.FaultsInjected != 7 {
		t.Fatalf("FaultsInjected = %d, plan has 7 strikes", st.FaultsInjected)
	}
	if st.FaultsRepaired != 4 {
		t.Fatalf("FaultsRepaired = %d, plan has 4 transient faults", st.FaultsRepaired)
	}
	if st.Router.Reroutes == 0 {
		t.Fatal("no reroutes despite permanent link faults under sustained traffic")
	}
	if st.DeliveredDegraded == 0 {
		t.Fatal("no degraded deliveries despite reroutes")
	}
	if float64(st.Delivered) < 0.95*float64(st.Injected) {
		t.Fatalf("delivered only %d of %d under a light fault load", st.Delivered, st.Injected)
	}
}

// TestRunImplicitFaultyMaxHopsDrop pins the satellite semantics: under
// faults, a hop-budget overrun drops the packet and counts it instead of
// aborting the run (which fault-free RunImplicit rightly does).
func TestRunImplicitFaultyMaxHopsDrop(t *testing.T) {
	ht := topo.HypercubeTopo{Dim: 6}
	fs := topo.NewFaultSet()
	plan := (&FaultPlan{}).LinkDown(0, 0, 1, 0)
	st, err := RunImplicitFaulty(ImplicitConfig{Topo: ht, Router: loopRouter{},
		InjectionRate: 0.02, WarmupCycles: 5, MeasureCycles: 50, DrainCycles: 200,
		Seed: 2, MaxHops: 32},
		ImplicitFaultConfig{Plan: plan, Faults: fs})
	if err != nil {
		t.Fatalf("hop overrun under faults must not abort the run: %v", err)
	}
	if st.HopLimitDrops == 0 {
		t.Fatal("loop router under faults produced no hop-limit drops")
	}
	if st.Lost < st.HopLimitDrops {
		t.Fatalf("HopLimitDrops %d not accounted in Lost %d", st.HopLimitDrops, st.Lost)
	}
	if st.Injected != st.Delivered+st.Lost+st.Expired {
		t.Fatalf("conservation violated: %+v", st)
	}
}

// TestRunImplicitFaultyMatchesRunFaulty is the cross-topology agreement
// check: the same physical faults (translated between id spaces through
// labels) under statistically identical traffic must produce comparable
// delivered fractions and latencies on the built graph (table routing) and
// on the implicit topology (fault-aware algebraic routing).
func TestRunImplicitFaultyMatchesRunFaulty(t *testing.T) {
	net, imp, fs, fa := faultTestNet(t)
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	// Three permanent link faults, chosen in implicit id space, applied
	// from cycle 0 in both runs.
	rng := rand.New(rand.NewSource(41))
	implicitPlan := &FaultPlan{}
	matPlan := &FaultPlan{}
	var buf []int64
	for i := 0; i < 3; i++ {
		u := rng.Int63n(imp.N())
		buf = imp.Neighbors(u, buf)
		v := buf[rng.Intn(len(buf))]
		implicitPlan.LinkDown(0, u, v, 0)
		matPlan.LinkDown(0, int64(ix.ID(imp.Label(u))), int64(ix.ID(imp.Label(v))), 0)
	}

	ist, err := RunImplicitFaulty(ImplicitConfig{Topo: imp, Router: fa,
		InjectionRate: 0.02, WarmupCycles: 100, MeasureCycles: 2000, Seed: 19},
		ImplicitFaultConfig{Plan: implicitPlan, Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	mst, err := runGraph(g, ImplicitConfig{InjectionRate: 0.02,
		WarmupCycles: 100, MeasureCycles: 2000, Seed: 19},
		matPlan)
	if err != nil {
		t.Fatal(err)
	}
	ifrac := float64(ist.Delivered) / float64(ist.Injected)
	mfrac := float64(mst.Delivered) / float64(mst.Injected)
	if ifrac < 0.99 {
		t.Fatalf("implicit delivered fraction %.4f under 3 link faults (fault-aware routing should lose nothing)", ifrac)
	}
	if mfrac < 0.99 {
		t.Fatalf("materialized delivered fraction %.4f", mfrac)
	}
	if ist.AvgLatency <= 0 || mst.AvgLatency <= 0 {
		t.Fatal("missing latencies")
	}
	if r := ist.AvgLatency / mst.AvgLatency; r < 0.7 || r > 1.4 {
		t.Fatalf("latency ratio implicit/materialized = %.3f (implicit %.2f, materialized %.2f)",
			r, ist.AvgLatency, mst.AvgLatency)
	}
}

// TestRunImplicitFaultyKMinusOneZeroLoss is the small-scale version of the
// headline acceptance run: κ−1 adversarial link faults cut every disjoint
// route but one between a fixed pair, and a run injecting only that pair's
// traffic must deliver 100% — degraded, but complete.
func TestRunImplicitFaultyKMinusOneZeroLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 5; trial++ {
		// A fault set of the trial's own: the plan's strikes are its only
		// faults.
		net, imp, fs, fa := faultTestNet(t)
		router, err := topo.NewAlgebraic(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		n := imp.N()
		src := rng.Int63n(n)
		dst := rng.Int63n(n - 1)
		if dst >= src {
			dst++
		}
		routes, err := topo.DisjointRoutes(imp, router, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(routes) != net.Degree() {
			t.Fatalf("%d routes, want κ = %d", len(routes), net.Degree())
		}
		// Cut the first link of κ−1 routes. The disjoint routes leave src by
		// κ distinct arcs, so sparing one route whose first hop differs from
		// the router's primary path guarantees the primary is blocked while a
		// fully intact alternative survives (routes are edge-disjoint).
		primary, err := router.Path(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		spare := -1
		for i, rt := range routes {
			if rt[1] != primary[1] {
				spare = i
				break
			}
		}
		if spare < 0 {
			t.Fatal("every disjoint route shares the primary's first hop")
		}
		plan := &FaultPlan{}
		for i, rt := range routes {
			if i == spare {
				continue
			}
			plan.LinkDown(0, rt[0], rt[1], 0)
		}
		st, err := RunImplicitFaulty(ImplicitConfig{Topo: imp, Router: fa,
			InjectionRate: 1.0, WarmupCycles: 0, MeasureCycles: 50, Seed: 61,
			Pattern: func(s, n int64, _ *rand.Rand) int64 {
				if s == src {
					return dst
				}
				return s // only the chosen pair injects
			}},
			ImplicitFaultConfig{Plan: plan, Faults: fs})
		if err != nil {
			t.Fatal(err)
		}
		if st.Injected == 0 {
			t.Fatal("pair never injected")
		}
		if st.Delivered != st.Injected || st.Lost != 0 || st.Expired != 0 {
			t.Fatalf("κ−1 faults lost traffic: %+v", st)
		}
		if st.DeliveredDegraded == 0 {
			t.Fatal("primary route was cut; deliveries should be degraded")
		}
	}
}

// TestRunImplicitFaultyBigSym is the 25M-node acceptance run: κ−1
// adversarial link faults around a route on sym-HSN(4;Q5) — far past the
// materialization ceiling — lose nothing. Run with REPRO_BIG=1.
func TestRunImplicitFaultyBigSym(t *testing.T) {
	if os.Getenv("REPRO_BIG") == "" {
		t.Skip("set REPRO_BIG=1 to run the 25M-node κ−1 fault check")
	}
	net := superip.HSN(4, superip.NucleusHypercube(5)).SymmetricVariant()
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	router, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	inner, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	fs := topo.NewFaultSet()
	fa := topo.NewFaultAware(imp, inner, fs)
	n := imp.N()
	if n != 25165824 {
		t.Fatalf("sym-HSN(4;Q5) has %d nodes, expected 25165824", n)
	}
	rng := rand.New(rand.NewSource(71))
	src := rng.Int63n(n)
	dst := rng.Int63n(n - 1)
	if dst >= src {
		dst++
	}
	routes, err := topo.DisjointRoutes(imp, router, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != net.Degree() {
		t.Fatalf("%d disjoint routes, want κ = %d", len(routes), net.Degree())
	}
	primary, err := router.Path(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	spare := -1
	for i, rt := range routes {
		if rt[1] != primary[1] {
			spare = i
			break
		}
	}
	if spare < 0 {
		t.Fatal("every disjoint route shares the primary's first hop")
	}
	plan := &FaultPlan{}
	for i, rt := range routes {
		if i == spare {
			continue
		}
		plan.LinkDown(0, rt[0], rt[1], 0)
	}
	// First, the pair itself: walk the fault-aware router hop by hop with
	// the κ−1 faults live. At 25M nodes uniform injection essentially never
	// draws the chosen src, so the sim below cannot exercise this pair.
	for i, rt := range routes {
		if i == spare {
			continue
		}
		fs.FailLinkBoth(rt[0], rt[1])
	}
	cur, degradedSeen := src, false
	bound := 4*len(primary) + topo.MaxDetourTTL + 64
	for hops := 0; cur != dst; hops++ {
		if hops > bound {
			t.Fatalf("pair walk exceeded %d hops (primary has %d)", bound, len(primary)-1)
		}
		nxt, deg, err := fa.NextHopFlagged(cur, dst)
		if err != nil {
			t.Fatalf("κ−1 faults made the pair unroutable at %d: %v", cur, err)
		}
		if fs.Blocked(cur, nxt) {
			t.Fatalf("router crossed failed link %d -> %d", cur, nxt)
		}
		degradedSeen = degradedSeen || deg
		cur = nxt
	}
	if !degradedSeen {
		t.Fatal("primary route was cut; the walk should be flagged degraded")
	}
	rs := fa.RouterStats()
	if rs.Reroutes == 0 {
		t.Fatal("no reroutes recorded for the cut pair")
	}
	if int(rs.DetourHops) > bound {
		t.Fatalf("detour search spent %d hops, want O(route length) ~ %d", rs.DetourHops, len(primary))
	}

	// Then system-wide zero loss: uniform background traffic over all 25M
	// nodes with the same faults applied by the scheduler (the pair walk's
	// faults repaired first so the plan's strikes are the only live faults;
	// refcounts stay balanced).
	for i, rt := range routes {
		if i != spare {
			fs.RepairLinkBoth(rt[0], rt[1])
		}
	}
	st, err := RunImplicitFaulty(ImplicitConfig{Topo: imp, Router: fa,
		InjectionRate: 2e-7, WarmupCycles: 20, MeasureCycles: 200, Seed: 73},
		ImplicitFaultConfig{Plan: plan, Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	if st.Injected == 0 {
		t.Fatal("no background traffic injected")
	}
	if st.Delivered != st.Injected || st.Lost != 0 || st.Expired != 0 {
		t.Fatalf("κ−1 faults on the 25M-node instance lost traffic: %+v", st)
	}
}

// TestPlanTopoDeterministic pins PlanTopo on an implicit super-IP topology;
// TestRandomFaultPlanDeterministicAndValid pins it on a built Q4.
func TestPlanTopoDeterministic(t *testing.T) {
	_, imp, _, _ := faultTestNet(t)
	checkPlanTopoDeterministic(t, imp,
		RandomFaults{MTBF: 10, RepairTime: 50, NodeFraction: 0.2, Horizon: 500, Seed: 6})
}

// checkPlanTopoDeterministic draws gen's plan on tp: the same seed draws the
// same schedule, another seed a different one, every event validates against
// tp, and transient faults carry their repair cycle.
func checkPlanTopoDeterministic(t *testing.T, tp Topology, gen RandomFaults) {
	t.Helper()
	draw := func(seed int64) *FaultPlan {
		g := gen
		g.Seed = seed
		p, err := g.PlanTopo(tp)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := draw(gen.Seed), draw(gen.Seed), draw(gen.Seed+1)
	if !slices.Equal(a.Events, b.Events) {
		t.Fatalf("same seed, different plans:\n%+v\n%+v", a.Events, b.Events)
	}
	if slices.Equal(a.Events, c.Events) {
		t.Fatal("different seeds drew identical plans")
	}
	if len(a.Events) == 0 {
		t.Fatalf("MTBF %v over %d cycles drew no faults", gen.MTBF, gen.Horizon)
	}
	if err := a.ValidateTopo(tp); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	for _, e := range a.Events {
		if !e.Transient() || e.Repair != e.Cycle+gen.RepairTime {
			t.Fatalf("repair time not honored: %+v", e)
		}
	}
}

// TestValidateTopoMatchesValidate pins ValidateTopo on an implicit super-IP
// topology the way TestFaultPlanValidate pins it on a built ring: a valid
// plan passes, and out-of-range nodes, non-links and negative cycles fail.
// A plan PlanTopo draws on the materialized built graph validates there too.
func TestValidateTopoMatchesValidate(t *testing.T) {
	net, imp, _, _ := faultTestNet(t)
	if err := faultyPlanFor(t, imp, 9).ValidateTopo(imp); err != nil {
		t.Fatalf("valid implicit plan rejected: %v", err)
	}
	g, _, err := net.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	built := topo.NewMaterialized(g)
	gplan, err := RandomFaults{MTBF: 20, Horizon: 200, Seed: 4}.PlanTopo(built)
	if err != nil {
		t.Fatal(err)
	}
	if err := gplan.ValidateTopo(built); err != nil {
		t.Fatalf("graph-drawn plan rejected: %v", err)
	}

	if err := (&FaultPlan{}).NodeDown(0, imp.N(), 0).ValidateTopo(imp); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	nbrs := imp.Neighbors(0, nil)
	nonNbr := int64(1)
	for _, v := range nbrs {
		if v == nonNbr {
			nonNbr = v + 1 // neighbors are sorted; walk past collisions
		}
	}
	if err := (&FaultPlan{}).LinkDown(0, 0, nonNbr, 0).ValidateTopo(imp); err == nil {
		t.Fatalf("non-edge 0-%d accepted", nonNbr)
	}
	if err := (&FaultPlan{}).LinkDown(-1, 0, nbrs[0], 0).ValidateTopo(imp); err == nil {
		t.Fatal("negative cycle accepted")
	}
}

// TestPlanTopoAbove2to31 draws a plan on Q33, whose 2^33 node ids do not
// fit in 32 bits: the node faults land above 2^31, and ValidateTopo
// accepts every event.
func TestPlanTopoAbove2to31(t *testing.T) {
	q33 := topo.HypercubeTopo{Dim: 33}
	plan, err := RandomFaults{MTBF: 1, NodeFraction: 0.5, Horizon: 64, Seed: 3}.PlanTopo(q33)
	if err != nil {
		t.Fatal(err)
	}
	high := 0
	for _, e := range plan.Events {
		if e.Kind == NodeFault && e.U >= 1<<31 {
			high++
		}
	}
	if high == 0 {
		t.Fatalf("no node fault above 2^31 in %d events: %+v", plan.Len(), plan.Events)
	}
	if err := plan.ValidateTopo(q33); err != nil {
		t.Fatalf("plan on Q33 rejected: %v", err)
	}
}
