package netsim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/networks"
	"repro/internal/superip"
	"repro/internal/topo"
)

// Golden parity for the unified engine: the four public entry points (Run,
// RunFaulty, RunImplicit, RunImplicitFaulty) are pinned bit for bit to the
// Stats they produced before the four separate event loops were collapsed
// into the shared engine. The fixtures in testdata/engine_golden.json were
// generated by the PRE-refactor loops (REGEN_ENGINE_GOLDEN=1 go test -run
// TestEngineGoldenParity regenerates them — only do that to extend the grid,
// never to paper over a diff), so any drift in RNG draw order, phase order,
// or accounting introduced by the refactor fails this test with an exact
// field diff.
//
// The grid spans the axes the engine parameterizes: materialized vs implicit
// adjacency, table vs algebraic routing, fault-free vs degraded loops,
// uniform/transpose/hotspot patterns, module-partitioned service periods,
// store-and-forward vs cut-through, multi-flit messages, adaptive routing,
// and all three injection-sampler regimes (exact Bernoulli, Poisson,
// normal approximation).

const engineGoldenFile = "testdata/engine_golden.json"

// canonicalJSON marshals v (a struct, or raw JSON bytes) through
// map[string]any so object keys come out sorted regardless of source.
func canonicalJSON(v any) (string, error) {
	raw, ok := v.(json.RawMessage)
	if !ok {
		b, err := json.Marshal(v)
		if err != nil {
			return "", err
		}
		raw = b
	}
	var norm any
	if err := json.Unmarshal(raw, &norm); err != nil {
		return "", err
	}
	b, err := json.Marshal(norm)
	return string(b), err
}

// hotspot64 is the implicit-simulator analogue of Hotspot for the golden
// grid: destination 0 with probability p, else uniform.
func hotspot64(p float64) func(src, n int64, rng *rand.Rand) int64 {
	return func(src, n int64, rng *rand.Rand) int64 {
		if rng.Float64() < p && src != 0 {
			return 0
		}
		d := rng.Int63n(n - 1)
		if d >= src {
			d++
		}
		return d
	}
}

// goldenResults runs the whole grid and returns case-name -> result struct.
// Each case builds its own topology/router state so results are independent
// of execution order.
func goldenResults(t *testing.T) map[string]any {
	t.Helper()
	out := map[string]any{}
	put := func(name string, st any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, dup := out[name]; dup {
			t.Fatalf("duplicate golden case %q", name)
		}
		out[name] = st
	}

	q5, err := networks.Hypercube{Dim: 5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	q5part := metrics.SubcubePartition(q5.N(), 2)
	torus, err := networks.Torus2D{Rows: 8, Cols: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	torusPart, err := metrics.GridPartition(8, 8, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	hotspot, err := Hotspot(0.25)
	if err != nil {
		t.Fatal(err)
	}

	// --- Run: materialized, fault-free ---
	patterns := map[string]PatternFunc{"uniform": nil, "transpose": Transpose, "hotspot": hotspot}
	for pname, pat := range patterns {
		for _, seed := range []int64{1, 2} {
			cfg := Config{Graph: q5, InjectionRate: 0.02, WarmupCycles: 50,
				MeasureCycles: 300, Seed: seed, Pattern: pat}
			st, err := Run(cfg)
			put(fmt.Sprintf("run/q5/%s/seed%d", pname, seed), st, err)
		}
	}
	{
		cfg := Config{Graph: q5, Partition: &q5part, OffModulePeriod: 4,
			InjectionRate: 0.02, WarmupCycles: 50, MeasureCycles: 300, Seed: 3}
		st, err := Run(cfg)
		put("run/q5/modules4/seed3", st, err)
	}
	{
		cfg := Config{Graph: q5, InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: 4, Flits: 3}
		st, err := Run(cfg)
		put("run/q5/flits3/seed4", st, err)
	}
	{
		cfg := Config{Graph: q5, InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: 4, Flits: 3, CutThrough: true}
		st, err := Run(cfg)
		put("run/q5/flits3cut/seed4", st, err)
	}
	{
		cfg := Config{Graph: q5, InjectionRate: 0.05, WarmupCycles: 50,
			MeasureCycles: 300, Seed: 5, Adaptive: true}
		st, err := Run(cfg)
		put("run/q5/adaptive/seed5", st, err)
	}
	{
		cfg := Config{Graph: torus, Partition: &torusPart, OffModulePeriod: 2,
			InjectionRate: 0.02, WarmupCycles: 50, MeasureCycles: 300, Seed: 6,
			PeriodFunc: func(u, v int32) int {
				if torusPart.Of[u] != torusPart.Of[v] {
					return 3
				}
				return 1
			}}
		st, err := Run(cfg)
		put("run/torus/periodfunc/seed6", st, err)
	}

	// --- RunFaulty: materialized, degraded ---
	plan, err := (RandomFaults{MTBF: 60, RepairTime: 120, NodeFraction: 0.3,
		Start: 50, Horizon: 350, MaxFaults: 6, Seed: 1}).Plan(q5)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		cfg := Config{Graph: q5, InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: seed}
		fs, err := RunFaulty(cfg, FaultConfig{Plan: plan})
		put(fmt.Sprintf("runfaulty/q5/seed%d", seed), fs, err)
	}
	{
		cfg := Config{Graph: q5, InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: 3, Adaptive: true}
		fs, err := RunFaulty(cfg, FaultConfig{Plan: plan, NotifyDelay: 25})
		put("runfaulty/q5/adaptive-notify25/seed3", fs, err)
	}
	{
		cfg := Config{Graph: q5, Partition: &q5part, OffModulePeriod: 4,
			InjectionRate: 0.02, WarmupCycles: 50, MeasureCycles: 300, Seed: 4,
			Pattern: hotspot}
		fs, err := RunFaulty(cfg, FaultConfig{Plan: plan, RetransmitTimeout: 48, DetourTTL: 8})
		put("runfaulty/q5/modules4-hotspot/seed4", fs, err)
	}
	{
		faulty, base, err := RunFaultyWithBaseline(
			Config{Graph: q5, InjectionRate: 0.02, WarmupCycles: 50,
				MeasureCycles: 300, Seed: 5},
			FaultConfig{Plan: plan})
		put("runfaulty/q5/withbaseline/seed5", faulty, err)
		put("runfaulty/q5/withbaseline-base/seed5", base, nil)
	}

	// --- RunImplicit: sparse, fault-free ---
	for pname, pat := range map[string]func(int64, int64, *rand.Rand) int64{
		"uniform": nil, "hotspot": hotspot64(0.25)} {
		for _, seed := range []int64{1, 2} {
			cfg := ImplicitConfig{Topo: topo.HypercubeTopo{Dim: 8},
				Router: topo.HypercubeRouter{Dim: 8}, InjectionRate: 0.02,
				WarmupCycles: 50, MeasureCycles: 300, Seed: seed, Pattern: pat}
			st, err := RunImplicit(cfg)
			put(fmt.Sprintf("runimplicit/q8/%s/seed%d", pname, seed), st, err)
		}
	}
	{
		// Poisson regime: n > 2^16, lambda < 30.
		cfg := ImplicitConfig{Topo: topo.HypercubeTopo{Dim: 17},
			Router: topo.HypercubeRouter{Dim: 17}, InjectionRate: 2e-5,
			WarmupCycles: 50, MeasureCycles: 200, Seed: 3}
		st, err := RunImplicit(cfg)
		put("runimplicit/q17/poisson/seed3", st, err)
	}
	{
		// Normal-approximation regime: n > 2^16, lambda >= 30.
		cfg := ImplicitConfig{Topo: topo.HypercubeTopo{Dim: 17},
			Router: topo.HypercubeRouter{Dim: 17}, InjectionRate: 3e-4,
			WarmupCycles: 50, MeasureCycles: 200, Seed: 3}
		st, err := RunImplicit(cfg)
		put("runimplicit/q17/normal/seed3", st, err)
	}
	{
		net := superip.HSN(2, superip.NucleusHypercube(3))
		imp, err := topo.NewImplicit(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		air, err := topo.NewAlgebraic(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		cfg := ImplicitConfig{Topo: imp, Router: air, InjectionRate: 0.02,
			WarmupCycles: 50, MeasureCycles: 300, Seed: 4,
			OffModulePeriod: 4, ModuleOf: imp.Module, Flits: 2, CutThrough: true}
		st, err := RunImplicit(cfg)
		put("runimplicit/hsn2q3/modules4/seed4", st, err)
	}

	// --- RunImplicitFaulty: sparse, degraded ---
	q6plan := (&FaultPlan{}).
		LinkDown(60, 0, 1, 0).
		LinkDown(80, 5, 7, 200).
		NodeDown(100, 9, 220).
		LinkDown(120, 33, 37, 0)
	for _, seed := range []int64{1, 2} {
		ht := topo.HypercubeTopo{Dim: 6}
		fs := topo.NewFaultSet()
		cfg := ImplicitConfig{Topo: ht, InjectionRate: 0.02,
			WarmupCycles: 50, MeasureCycles: 300, Seed: seed,
			Router: topo.NewFaultAware(ht, topo.HypercubeRouter{Dim: 6}, fs)}
		st, err := RunImplicitFaulty(cfg, ImplicitFaultConfig{Plan: q6plan, Faults: fs})
		put(fmt.Sprintf("runimplicitfaulty/q6/seed%d", seed), st, err)
	}
	{
		net := superip.HSN(2, superip.NucleusHypercube(3))
		imp, err := topo.NewImplicit(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		air, err := topo.NewAlgebraic(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		hplan, err := (RandomFaults{MTBF: 60, RepairTime: 150, NodeFraction: 0.25,
			Start: 50, Horizon: 350, MaxFaults: 5, Seed: 2}).PlanTopo(imp)
		if err != nil {
			t.Fatal(err)
		}
		fs := topo.NewFaultSet()
		cfg := ImplicitConfig{Topo: imp, InjectionRate: 0.02,
			WarmupCycles: 50, MeasureCycles: 300, Seed: 3,
			OffModulePeriod: 4, ModuleOf: imp.Module,
			Router: topo.NewFaultAware(imp, air, fs)}
		st, err := RunImplicitFaulty(cfg, ImplicitFaultConfig{Plan: hplan, Faults: fs})
		put("runimplicitfaulty/hsn2q3/seed3", st, err)
	}
	return out
}

func TestEngineGoldenParity(t *testing.T) {
	got := goldenResults(t)
	if os.Getenv("REGEN_ENGINE_GOLDEN") != "" {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		ordered := make(map[string]json.RawMessage, len(got))
		for _, name := range names {
			raw, err := json.Marshal(got[name])
			if err != nil {
				t.Fatal(err)
			}
			ordered[name] = raw
		}
		blob, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(engineGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenFile, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d cases", engineGoldenFile, len(got))
		return
	}
	blob, err := os.ReadFile(engineGoldenFile)
	if err != nil {
		t.Fatalf("missing golden fixtures (REGEN_ENGINE_GOLDEN=1 regenerates): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, grid produced %d", len(want), len(got))
	}
	for name, wantRaw := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: case missing from grid", name)
			continue
		}
		// Canonicalize both sides through map-sorted JSON so struct field
		// order doesn't matter; values still compare bit for bit because
		// Go's float64 formatting round-trips exactly.
		gotCanon, err := canonicalJSON(g)
		if err != nil {
			t.Fatal(err)
		}
		wantCanon, err := canonicalJSON(wantRaw)
		if err != nil {
			t.Fatal(err)
		}
		if gotCanon != wantCanon {
			t.Errorf("%s:\n  golden: %s\n  got:    %s", name, wantCanon, gotCanon)
		}
	}
}
