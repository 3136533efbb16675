package netsim

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/networks"
	"repro/internal/superip"
)

func TestRunFaultyEmptyPlanMatchesRun(t *testing.T) {
	// Run is RunFaulty with an empty plan, and an empty plan is not
	// degraded: no retransmission timers, no liveness checks, no deadline
	// abandon pass. So RunFaulty with the default FaultConfig must report
	// exactly Run's Stats and no fault activity at all, on any topology
	// and load (a spurious retransmission or a different minimal-route
	// tie-break would show here).
	q6 := mustBuild(t, networks.Hypercube{Dim: 6}.Build)
	sfn, err := superip.SuperFlip(3, superip.NucleusHypercube(2)).Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"Q6/rate0.02", Config{Graph: q6, InjectionRate: 0.02, WarmupCycles: 200,
			MeasureCycles: 1500, Seed: 17}},
		{"Q6/rate0.02/adaptive", Config{Graph: q6, InjectionRate: 0.02, WarmupCycles: 200,
			MeasureCycles: 1500, Seed: 17, Adaptive: true}},
		{"Q6/rate0.1/flits4", Config{Graph: q6, InjectionRate: 0.1, Flits: 4,
			WarmupCycles: 200, MeasureCycles: 1500, Seed: 17}},
		{"SFN(3;Q2)/rate0.01", Config{Graph: sfn, InjectionRate: 0.01,
			WarmupCycles: 200, MeasureCycles: 2000, Seed: 7}},
	}
	for _, tc := range cases {
		base, err := Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := RunFaulty(tc.cfg, FaultConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if fs.Stats != base {
			t.Fatalf("%s: fault-free RunFaulty diverged from Run:\n%+v\nvs %+v", tc.name, fs.Stats, base)
		}
		if rest := (FaultStats{Stats: fs.Stats}); fs != rest {
			t.Fatalf("%s: fault-free run reported fault activity: %+v", tc.name, fs)
		}
	}
}

func TestLinkFaultsBelowConnectivityDeliverEverything(t *testing.T) {
	// Acceptance criterion: on a kappa-connected network, any kappa-1
	// permanent faults leave the graph connected, so with table repair,
	// detours, and retransmission every measured packet must be delivered.
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
		MaxFaults: kappa - 1, Seed: 99}.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != kappa-1 {
		t.Fatalf("plan drew %d faults, want %d", plan.Len(), kappa-1)
	}
	fs, err := RunFaulty(Config{Graph: g, InjectionRate: 0.02,
		WarmupCycles: 200, MeasureCycles: 2000, Seed: 23},
		FaultConfig{Plan: plan, NotifyDelay: 8})
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
	if fs.RerouteEvents == 0 {
		t.Fatal("faults struck but no routing table was ever repaired")
	}
}

func TestTransientLinkFaultHealsAndRepairs(t *testing.T) {
	// A 2-connected ring survives one link fault; the fault heals mid-run
	// and both the injection and the repair must be counted.
	g := mustBuild(t, networks.Ring{Nodes: 16}.Build)
	plan := (&FaultPlan{}).LinkDown(300, 0, 1, 900)
	fs, err := RunFaulty(Config{Graph: g, InjectionRate: 0.02,
		WarmupCycles: 100, MeasureCycles: 1500, Seed: 5},
		FaultConfig{Plan: plan})
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
	// Killing one node of Q5 mid-run: flows to it that are already in
	// flight are lost (sources stop addressing a node they know is dead),
	// everything else reroutes (Q5 minus a node stays connected), and the
	// delivered/lost split exactly covers the measured injections. Hotspot
	// traffic aimed at the victim guarantees pending flows at kill time.
	g := mustBuild(t, networks.Hypercube{Dim: 5}.Build)
	plan := (&FaultPlan{}).NodeDown(500, 0, 0)
	fs, err := RunFaulty(Config{Graph: g, InjectionRate: 0.1,
		Pattern: mustHotspot(t, 0.5), WarmupCycles: 100, MeasureCycles: 2000, Seed: 31},
		FaultConfig{Plan: plan, NotifyDelay: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Delivered+fs.Lost != fs.Injected {
		t.Fatalf("flow accounting leak: %d delivered + %d lost != %d injected",
			fs.Delivered, fs.Lost, fs.Injected)
	}
	if fs.Lost == 0 {
		t.Fatal("flows addressed to the dead node should be lost")
	}
	if fs.DisconnectedPairs != fs.Lost {
		t.Fatalf("every lost flow involves the dead endpoint: lost %d, disconnected %d",
			fs.Lost, fs.DisconnectedPairs)
	}
	if float64(fs.Lost) > 0.2*float64(fs.Injected) {
		t.Fatalf("one dead node of 32 lost %d of %d flows", fs.Lost, fs.Injected)
	}
}

func TestDisconnectionDetectedOnPartitionedRing(t *testing.T) {
	// Two link faults split a ring into two arcs; cross-partition flows
	// must be detected as disconnected and counted lost, same-side flows
	// still delivered.
	g := mustBuild(t, networks.Ring{Nodes: 16}.Build)
	plan := (&FaultPlan{}).LinkDown(150, 0, 1, 0).LinkDown(150, 8, 9, 0)
	fs, err := RunFaulty(Config{Graph: g, InjectionRate: 0.02,
		WarmupCycles: 100, MeasureCycles: 1200, Seed: 41},
		FaultConfig{Plan: plan, MaxRetries: 3, RetransmitTimeout: 32})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Lost == 0 || fs.DisconnectedPairs == 0 {
		t.Fatalf("partitioned ring should lose cross flows: %+v", fs)
	}
	if fs.Delivered == 0 {
		t.Fatal("same-side flows should still be delivered")
	}
	if fs.Delivered+fs.Lost != fs.Injected {
		t.Fatalf("flow accounting leak: %+v", fs)
	}
}

func TestAggressiveTimeoutForcesDuplicates(t *testing.T) {
	// A timeout far below the actual delivery latency triggers spurious
	// retransmissions; the duplicate suppression at the destination must
	// swallow the extra copies while every flow is still delivered once.
	// The one-cycle link fault makes the run degraded: only a degraded run
	// arms retransmission timers. With MaxRetries -1 no retry timer is
	// armed, so a packet that arrives late is still delivered, not
	// abandoned at its first timeout and counted lost.
	g := mustBuild(t, networks.Ring{Nodes: 16}.Build)
	run := func(maxRetries int) FaultStats {
		fs, err := RunFaulty(Config{Graph: g, InjectionRate: 0.01,
			WarmupCycles: 50, MeasureCycles: 1000, Seed: 53, Flits: 4},
			FaultConfig{Plan: (&FaultPlan{}).LinkDown(500, 0, 1, 501), RetransmitTimeout: 2, MaxRetries: maxRetries})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}

	fs := run(0)
	if fs.Retransmitted == 0 {
		t.Fatal("timeout of 2 cycles on a diameter-8 ring must retransmit")
	}
	if fs.Duplicates == 0 {
		t.Fatal("racing copies should produce suppressed duplicates")
	}
	if fs.Delivered != fs.Injected || fs.Lost != 0 {
		t.Fatalf("spurious retransmissions must not lose flows: %+v", fs)
	}

	fs = run(-1)
	if fs.Retransmitted != 0 || fs.Duplicates != 0 {
		t.Fatalf("MaxRetries -1 retransmitted: %+v", fs)
	}
	if fs.Delivered+fs.Lost != fs.Injected {
		t.Fatalf("flow accounting leak: %+v", fs)
	}
	if fs.Delivered < 157 {
		t.Fatalf("delivered %d of %d flows, want >= 157: %+v", fs.Delivered, fs.Injected, fs)
	}
}

func TestDetourKeepsPacketsFlowingBeforeTablesRepair(t *testing.T) {
	// With a long notification delay, stale tables keep pointing at the
	// dead link; packets must detour around it (misrouted hops observed)
	// rather than wait for the rebuild.
	g := mustBuild(t, networks.Torus2D{Rows: 6, Cols: 6}.Build)
	plan := (&FaultPlan{}).LinkDown(200, 0, 1, 0).LinkDown(200, 7, 13, 0)
	fs, err := RunFaulty(Config{Graph: g, InjectionRate: 0.05,
		WarmupCycles: 100, MeasureCycles: 1500, Seed: 61},
		FaultConfig{Plan: plan, NotifyDelay: 400})
	if err != nil {
		t.Fatal(err)
	}
	if fs.MisroutedHops == 0 {
		t.Fatal("stale tables with a 400-cycle notify delay must force detours")
	}
	if fs.Delivered != fs.Injected {
		t.Fatalf("torus stays connected; nothing may be lost: %+v", fs)
	}
	if fs.MeanTimeToReroute < float64(400) {
		t.Fatalf("mean time-to-reroute %v below the notification delay", fs.MeanTimeToReroute)
	}
}

func TestRandomFaultPlanDeterministicAndValid(t *testing.T) {
	g := mustBuild(t, networks.Hypercube{Dim: 4}.Build)
	mk := func(seed int64) *FaultPlan {
		p, err := RandomFaults{MTBF: 50, RepairTime: 100, NodeFraction: 0.3,
			Horizon: 2000, Seed: seed}.Plan(g)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(7), mk(7)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed, different plan sizes: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same seed, event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	if len(a.Events) == 0 {
		t.Fatal("MTBF 50 over 2000 cycles should draw some faults")
	}
	if err := a.Validate(g); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	c := mk(8)
	same := len(a.Events) == len(c.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical plans")
	}
	// Transient faults must carry their repair cycle.
	for _, e := range a.Events {
		if !e.Transient() || e.Repair != e.Cycle+100 {
			t.Fatalf("repair time not honored: %+v", e)
		}
	}
}

func TestRandomFaultPlanErrors(t *testing.T) {
	g := mustBuild(t, networks.Ring{Nodes: 8}.Build)
	if _, err := (RandomFaults{MTBF: 0, Horizon: 100}).Plan(g); err == nil {
		t.Fatal("MTBF 0 must fail")
	}
	if _, err := (RandomFaults{MTBF: 10, Horizon: 0}).Plan(g); err == nil {
		t.Fatal("empty window must fail")
	}
	if _, err := (RandomFaults{MTBF: 10, Horizon: 100, NodeFraction: 2}).Plan(g); err == nil {
		t.Fatal("NodeFraction > 1 must fail")
	}
}

func TestFaultPlanValidate(t *testing.T) {
	g := mustBuild(t, networks.Ring{Nodes: 8}.Build)
	if err := (&FaultPlan{}).LinkDown(10, 0, 4, 0).Validate(g); err == nil {
		t.Fatal("0-4 is not a ring link; Validate must reject it")
	}
	if err := (&FaultPlan{}).NodeDown(10, 99, 0).Validate(g); err == nil {
		t.Fatal("node out of range must be rejected")
	}
	if err := (&FaultPlan{}).LinkDown(-1, 0, 1, 0).Validate(g); err == nil {
		t.Fatal("negative cycle must be rejected")
	}
	var nilPlan *FaultPlan
	if err := nilPlan.Validate(g); err != nil {
		t.Fatalf("nil plan is a valid empty plan: %v", err)
	}
	if nilPlan.Len() != 0 {
		t.Fatal("nil plan length")
	}
}

func TestFaultConfigErrors(t *testing.T) {
	g := mustBuild(t, networks.Ring{Nodes: 8}.Build)
	cfg := Config{Graph: g, InjectionRate: 0.01, WarmupCycles: 10, MeasureCycles: 50}
	if _, err := RunFaulty(cfg, FaultConfig{RetransmitTimeout: -1}); err == nil {
		t.Fatal("negative timeout must fail")
	}
	if _, err := RunFaulty(cfg, FaultConfig{NotifyDelay: -1}); err == nil {
		t.Fatal("negative notify delay must fail")
	}
	bad := (&FaultPlan{}).LinkDown(10, 0, 5, 0)
	if _, err := RunFaulty(cfg, FaultConfig{Plan: bad}); err == nil {
		t.Fatal("plan referencing a non-link must fail")
	}
}

func TestPeriodFuncValidation(t *testing.T) {
	// Satellite: Run must reject a PeriodFunc that returns < 1 instead of
	// silently clamping it.
	g := mustBuild(t, networks.Ring{Nodes: 8}.Build)
	cfg := Config{Graph: g, InjectionRate: 0.01, WarmupCycles: 10,
		MeasureCycles: 100, PeriodFunc: func(u, v int32) int { return 0 }}
	if _, err := Run(cfg); err == nil {
		t.Fatal("PeriodFunc returning 0 must be rejected by Run")
	}
	if _, err := RunFaulty(cfg, FaultConfig{}); err == nil {
		t.Fatal("PeriodFunc returning 0 must be rejected by RunFaulty")
	}
	cfg.PeriodFunc = func(u, v int32) int { return -3 }
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative period must be rejected")
	}
}

func TestRunFaultyWithBaselineInflation(t *testing.T) {
	// Permanent faults on a torus force longer routes and queueing: the
	// latency inflation factor must come back >= 1.
	g := mustBuild(t, networks.Torus2D{Rows: 6, Cols: 6}.Build)
	plan := (&FaultPlan{}).LinkDown(100, 0, 1, 0).LinkDown(100, 6, 7, 0).NodeDown(400, 21, 0)
	fs, base, err := RunFaultyWithBaseline(Config{Graph: g, InjectionRate: 0.03,
		WarmupCycles: 100, MeasureCycles: 1500, Seed: 71},
		FaultConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if base.Delivered == 0 || fs.Delivered == 0 {
		t.Fatalf("baseline %+v / faulty %+v delivered nothing", base, fs)
	}
	if fs.LatencyInflation < 1 {
		t.Fatalf("faults should not speed the network up: inflation %v", fs.LatencyInflation)
	}
}

func TestRunFaultyAdaptiveUnderFaults(t *testing.T) {
	// Adaptive (multi-minimal-hop) routing must also survive faults below
	// the connectivity bound.
	g := mustBuild(t, networks.Hypercube{Dim: 5}.Build)
	plan := (&FaultPlan{}).LinkDown(200, 0, 1, 0).LinkDown(300, 2, 18, 0)
	fs, err := RunFaulty(Config{Graph: g, InjectionRate: 0.03, Adaptive: true,
		WarmupCycles: 100, MeasureCycles: 1500, Seed: 83},
		FaultConfig{Plan: plan, NotifyDelay: 10})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Delivered != fs.Injected || fs.Lost != 0 {
		t.Fatalf("adaptive run lost traffic below connectivity: %+v", fs)
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
