package netsim

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/networks"
	"repro/internal/obs"
	"repro/internal/superip"
	"repro/internal/topo"
)

// TestRunFaultyEmptyPlanMatchesRun: a built-graph run with a nil or empty
// fault plan is not degraded: no liveness checks, no table rebuilds, no
// drops. So it must report exactly the stats of RunImplicit on the same
// configuration, with its table router over no fault set, and no fault
// activity at all, on any topology and load, also when its router reads
// an empty fault set (a spurious drop or a different minimal-route
// tie-break would show here).
func TestRunFaultyEmptyPlanMatchesRun(t *testing.T) {
	q6 := mustBuild(t, networks.Hypercube{Dim: 6}.Build)
	sfn, err := superip.SuperFlip(3, superip.NucleusHypercube(2)).Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		cfg  ImplicitConfig
	}{
		{"Q6/rate0.02", q6, ImplicitConfig{InjectionRate: 0.02, WarmupCycles: 200,
			MeasureCycles: 1500, Seed: 17}},
		{"Q6/rate0.1/flits4", q6, ImplicitConfig{InjectionRate: 0.1, Flits: 4,
			WarmupCycles: 200, MeasureCycles: 1500, Seed: 17}},
		{"SFN(3;Q2)/rate0.01", sfn, ImplicitConfig{InjectionRate: 0.01,
			WarmupCycles: 200, MeasureCycles: 2000, Seed: 7}},
	}
	for _, tc := range cases {
		base, err := RunImplicit(onGraph(tc.g, nil, tc.cfg))
		if err != nil {
			t.Fatal(err)
		}
		if rest := (ImplicitFaultStats{Injected: base.Injected, Delivered: base.Delivered, Expired: base.Expired,
			AvgLatency: base.AvgLatency, MaxLatency: base.MaxLatency, Throughput: base.Throughput}); base != rest {
			t.Fatalf("%s: fault-free run reported fault activity: %+v", tc.name, base)
		}
		nilPlan, err := runGraph(tc.g, tc.cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		empty := topo.NewFaultSet()
		emptyPlan, err := RunImplicitFaulty(onGraph(tc.g, empty, tc.cfg),
			ImplicitFaultConfig{Plan: &FaultPlan{}, Faults: empty})
		if err != nil {
			t.Fatal(err)
		}
		if nilPlan != base || emptyPlan != base {
			t.Fatalf("%s: fault-free runs diverged from RunImplicit:\nnil plan   %+v\nempty plan %+v\nvs         %+v",
				tc.name, nilPlan, emptyPlan, base)
		}
	}
}

func TestLinkFaultsBelowConnectivityDeliverEverything(t *testing.T) {
	// Acceptance criterion: on a kappa-connected network, any kappa-1
	// permanent faults leave the graph connected, so with table repair
	// every measured packet must be delivered.
	net := superip.HSN(2, superip.NucleusHypercube(3))
	g, err := net.Build()
	if err != nil {
		t.Fatal(err)
	}
	kappa, err := faults.VertexConnectivity(g)
	if err != nil {
		t.Fatal(err)
	}
	if kappa < 2 {
		t.Fatalf("HSN(2;Q3) kappa = %d, need >= 2 for the scenario", kappa)
	}
	// kappa-1 random link faults striking inside the measurement window.
	plan, err := RandomFaults{MTBF: 150, Start: 250, Horizon: 2000,
		MaxFaults: kappa - 1, Seed: 99}.PlanTopo(topo.NewMaterialized(g))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != kappa-1 {
		t.Fatalf("plan drew %d faults, want %d", plan.Len(), kappa-1)
	}
	fs, err := runGraph(g, ImplicitConfig{InjectionRate: 0.02,
		WarmupCycles: 200, MeasureCycles: 2000, Seed: 23},
		plan)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Injected == 0 {
		t.Fatal("nothing injected")
	}
	if fs.Delivered != fs.Injected || fs.Lost != 0 {
		t.Fatalf("lost packets below the connectivity bound: delivered %d of %d, lost %d",
			fs.Delivered, fs.Injected, fs.Lost)
	}
	if fs.FaultsInjected != kappa-1 {
		t.Fatalf("FaultsInjected = %d, want %d", fs.FaultsInjected, kappa-1)
	}
	if fs.Router.Reroutes == 0 {
		t.Fatal("faults struck but no routing table was ever repaired")
	}
}

func TestTransientLinkFaultHealsAndRepairs(t *testing.T) {
	// A 2-connected ring survives one link fault; the fault heals mid-run
	// and both the injection and the repair must be counted.
	g := mustBuild(t, networks.Ring{Nodes: 16}.Build)
	plan := (&FaultPlan{}).LinkDown(300, 0, 1, 900)
	fs, err := runGraph(g, ImplicitConfig{InjectionRate: 0.02,
		WarmupCycles: 100, MeasureCycles: 1500, Seed: 5},
		plan)
	if err != nil {
		t.Fatal(err)
	}
	if fs.FaultsInjected != 1 || fs.FaultsRepaired != 1 {
		t.Fatalf("fault accounting: injected %d repaired %d", fs.FaultsInjected, fs.FaultsRepaired)
	}
	if fs.Delivered != fs.Injected || fs.Lost != 0 {
		t.Fatalf("transient fault on a 2-connected ring lost traffic: %+v", fs)
	}
}

func TestNodeFaultLosesOnlyAffectedFlows(t *testing.T) {
	// Killing one node of Q5 mid-run: packets to it that are already in
	// flight never arrive (sources stop addressing a node they know is
	// dead): they are lost or expire at the drain deadline. Everything
	// else reroutes (Q5 minus a node stays connected), and Delivered +
	// Lost + Expired exactly covers the measured injections. Hotspot
	// traffic aimed at the victim guarantees pending packets at kill time.
	g := mustBuild(t, networks.Hypercube{Dim: 5}.Build)
	plan := (&FaultPlan{}).NodeDown(500, 0, 0)
	life := newLifeProbe()
	fs, err := runGraph(g, ImplicitConfig{InjectionRate: 0.1,
		Pattern: mustHotspot(t, 0.5), WarmupCycles: 100, MeasureCycles: 2000, Seed: 31, Probe: life},
		plan)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Delivered+fs.Lost+fs.Expired != fs.Injected {
		t.Fatalf("accounting leak: %d delivered + %d lost + %d expired != %d injected",
			fs.Delivered, fs.Lost, fs.Expired, fs.Injected)
	}
	undelivered := fs.Lost + fs.Expired
	if undelivered == 0 {
		t.Fatal("packets addressed to the dead node should be lost or expire")
	}
	if float64(undelivered) > 0.2*float64(fs.Injected) {
		t.Fatalf("one dead node of 32 left %d of %d packets undelivered", undelivered, fs.Injected)
	}
	// Only the victim's traffic and the packets it held may die: every
	// drop is of a packet to or from node 0, or happens at node 0. A
	// packet in flight toward node 0 finds no hop in its destination's
	// rebuilt table at the next node that routes it and is dropped there
	// as no-route.
	noRoute := 0
	for id, p := range life.pkts {
		if p.dropped && p.src != 0 && p.dst != 0 && p.dropAt != 0 {
			t.Fatalf("packet %d (%d -> %d) dropped at %d (%s), away from the dead node",
				id, p.src, p.dst, p.dropAt, p.reason)
		}
		if p.dropped && p.reason == obs.DropNoRoute {
			if p.dst != 0 || p.dropAt == 0 {
				t.Fatalf("packet %d (%d -> %d) dropped as no-route at %d", id, p.src, p.dst, p.dropAt)
			}
			noRoute++
		}
	}
	if noRoute == 0 {
		t.Fatal("no packet in flight toward the dead node was dropped as no-route")
	}
}

func TestDisconnectionDetectedOnPartitionedRing(t *testing.T) {
	// Two link faults split a ring into the arcs 1..8 and 9..15, 0;
	// cross-partition packets find no route and are counted lost,
	// same-side packets are still delivered.
	g := mustBuild(t, networks.Ring{Nodes: 16}.Build)
	plan := (&FaultPlan{}).LinkDown(150, 0, 1, 0).LinkDown(150, 8, 9, 0)
	life := newLifeProbe()
	fs, err := runGraph(g, ImplicitConfig{InjectionRate: 0.02,
		WarmupCycles: 100, MeasureCycles: 1200, Seed: 41, Probe: life},
		plan)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Lost == 0 {
		t.Fatalf("partitioned ring should lose cross-partition packets: %+v", fs)
	}
	if fs.Delivered == 0 {
		t.Fatal("same-side packets should still be delivered")
	}
	if fs.Delivered+fs.Lost+fs.Expired != fs.Injected {
		t.Fatalf("accounting leak: %+v", fs)
	}
	side := func(u int64) bool { return u >= 1 && u <= 8 }
	for id, p := range life.pkts {
		if p.dropped && side(p.src) == side(p.dst) {
			t.Fatalf("same-side packet %d (%d -> %d) dropped (%s)", id, p.src, p.dst, p.reason)
		}
	}
}

// TestRandomFaultPlanDeterministicAndValid pins PlanTopo on a built Q4;
// TestPlanTopoDeterministic pins it on an implicit super-IP topology.
func TestRandomFaultPlanDeterministicAndValid(t *testing.T) {
	q4 := topo.NewMaterialized(mustBuild(t, networks.Hypercube{Dim: 4}.Build))
	checkPlanTopoDeterministic(t, q4,
		RandomFaults{MTBF: 50, RepairTime: 100, NodeFraction: 0.3, Horizon: 2000, Seed: 7})
}

func TestRandomFaultPlanErrors(t *testing.T) {
	ring := topo.NewMaterialized(mustBuild(t, networks.Ring{Nodes: 8}.Build))
	cube := topo.HypercubeTopo{Dim: 3}
	// NaN fails every comparison: without a check, MTBF NaN strikes on
	// every cycle and NodeFraction NaN silently reads as 0.
	for _, rf := range []RandomFaults{
		{MTBF: 0, Horizon: 100},
		{MTBF: 10, Horizon: 0},
		{MTBF: 10, Horizon: 100, NodeFraction: 2},
		{MTBF: math.NaN(), Horizon: 100},
		{MTBF: 10, Horizon: 100, NodeFraction: math.NaN()},
		// Negative values would read as permanent faults and no cap.
		{MTBF: 10, Horizon: 100, RepairTime: -5},
		{MTBF: 10, Horizon: 100, MaxFaults: -1},
	} {
		for _, tp := range []Topology{ring, cube} {
			if _, err := rf.PlanTopo(tp); err == nil {
				t.Fatalf("PlanTopo(%+v) on %T must fail", rf, tp)
			}
		}
	}
}

// TestFaultPlanValidate pins ValidateTopo's rejections on a built ring:
// out-of-range nodes, non-links and negative cycles fail; a nil plan is a
// valid empty plan. TestValidateTopoMatchesValidate does the same on an
// implicit super-IP topology.
func TestFaultPlanValidate(t *testing.T) {
	ring := topo.NewMaterialized(mustBuild(t, networks.Ring{Nodes: 8}.Build))
	if err := (&FaultPlan{}).LinkDown(10, 0, 4, 0).ValidateTopo(ring); err == nil {
		t.Fatal("0-4 is not a ring link; ValidateTopo must reject it")
	}
	if err := (&FaultPlan{}).NodeDown(10, 99, 0).ValidateTopo(ring); err == nil {
		t.Fatal("node out of range must be rejected")
	}
	if err := (&FaultPlan{}).LinkDown(10, 0, 8, 0).ValidateTopo(ring); err == nil {
		t.Fatal("link endpoint out of range must be rejected")
	}
	if err := (&FaultPlan{}).LinkDown(-1, 0, 1, 0).ValidateTopo(ring); err == nil {
		t.Fatal("negative cycle must be rejected")
	}
	if err := (&FaultPlan{}).LinkDown(10, 0, 1, 0).NodeDown(20, 5, 30).ValidateTopo(ring); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	var nilPlan *FaultPlan
	if err := nilPlan.ValidateTopo(ring); err != nil {
		t.Fatalf("nil plan is a valid empty plan: %v", err)
	}
	if nilPlan.Len() != 0 {
		t.Fatal("nil plan length")
	}

}

// TestFaultConfigErrors: a built-graph run rejects a plan that names a
// non-link of its graph, and a plan without a fault set shared with the
// router.
func TestFaultConfigErrors(t *testing.T) {
	g := mustBuild(t, networks.Ring{Nodes: 8}.Build)
	cfg := ImplicitConfig{InjectionRate: 0.01, WarmupCycles: 10, MeasureCycles: 50}
	bad := (&FaultPlan{}).LinkDown(10, 0, 5, 0)
	if _, err := runGraph(g, cfg, bad); err == nil {
		t.Fatal("plan referencing a non-link must fail")
	}
	good := (&FaultPlan{}).LinkDown(10, 0, 1, 0)
	if _, err := RunImplicitFaulty(onGraph(g, nil, cfg), ImplicitFaultConfig{Plan: good}); err == nil {
		t.Fatal("a plan without a fault set must fail")
	}
}

// TestFaultsInflateLatency: permanent faults on a torus force longer
// routes and queueing, so a degraded run's average latency over that of
// the same run without the plan (the latency inflation cmd/simulate
// prints) must come back >= 1.
func TestFaultsInflateLatency(t *testing.T) {
	g := mustBuild(t, networks.Torus2D{Rows: 6, Cols: 6}.Build)
	plan := (&FaultPlan{}).LinkDown(100, 0, 1, 0).LinkDown(100, 6, 7, 0).NodeDown(400, 21, 0)
	cfg := ImplicitConfig{InjectionRate: 0.03, WarmupCycles: 100, MeasureCycles: 1500, Seed: 71}
	fs, err := runGraph(g, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	base, err := runGraph(g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Delivered == 0 || fs.Delivered == 0 {
		t.Fatalf("baseline %+v / faulty %+v delivered nothing", base, fs)
	}
	if infl := fs.AvgLatency / base.AvgLatency; infl < 1 {
		t.Fatalf("faults should not speed the network up: inflation %v", infl)
	}
}

func mustBuild(t *testing.T, build func() (*graph.Graph, error)) *graph.Graph {
	t.Helper()
	g, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
