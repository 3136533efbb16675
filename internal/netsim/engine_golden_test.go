package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/networks"
	"repro/internal/obs"
	"repro/internal/superip"
	"repro/internal/topo"
)

// Golden parity for the engine: every public entry point (Run, RunFaulty,
// RunFaultyWithBaseline, RunImplicit, RunImplicitFaulty; RunSharded is
// pinned against RunImplicit by TestShardedSingleLane) is pinned bit for
// bit to recorded Stats. All of them are runs of the one lane runner, so
// any drift in RNG draw order, phase order, or accounting fails this test
// with an exact field diff. REGEN_ENGINE_GOLDEN=1 go test -run
// TestEngineGoldenParity regenerates testdata/engine_golden.json — only do
// that to extend the grid or for a deliberate semantic change, never to
// paper over a diff.
//
// The fixtures were first recorded from the four event loops the engine
// replaced. They were re-recorded once, on purpose, when the built-graph
// entry points became single-lane runs of the lane runner: the one drain
// rule (stop only past the plan's last event) raised FaultsRepaired from 3
// to 6 in the five degraded runfaulty/* cases, every other field
// unchanged; and the one injection sampler (one Bernoulli draw per node,
// in order, up to 2^16 nodes a lane, instead of a binomial count with
// sources drawn with replacement) moved the eight exact-regime implicit
// cases (q8 ×4, hsn2q3 ×2, q6 ×2). The run/*, q17 and withbaseline-base
// cases did not move. They were re-recorded a second time, on purpose,
// when built graphs moved from a dense per-edge link store to the one
// sparse link store: the advance phase now visits a built graph's links in
// activation order instead of (node, slot) order, which moves the lane RNG
// draws of adaptive spread, so only run/q5/adaptive/seed5 and
// runfaulty/q5/adaptive-notify25/seed3 changed. The three probe-stream
// digests of TestEngineProbeGolden moved with the within-cycle event order.
// They were re-recorded a third time, on purpose, when the injection
// sampler's per-node coin walk (and, above 2^16 nodes a lane, its
// Poisson/normal count with sources drawn with replacement) gave way to
// geometric gaps between injecting nodes: the same per-node Bernoulli
// process, drawn with one RNG draw per injection, so every case, all three
// probe digests and TestNilProbeGoldenParity moved, and a 20-seed mean ±
// s.d. of Injected, AvgLatency and Throughput per case showed no shift
// beyond 3 standard errors. The two q17 cases, named after the regimes
// that were deleted (poisson, normal), took the names of their rates.
//
// The grid spans the axes the engine parameterizes: built vs implicit
// adjacency, table vs algebraic routing, fault-free vs degraded runs,
// uniform/transpose/hotspot patterns, module-partitioned service periods,
// store-and-forward vs cut-through, multi-flit messages, adaptive routing,
// and lanes below and above 2^16 nodes. TestEngineProbeGolden pins three
// built-graph probe streams as well.

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
	// The grid's only lanes above 2^16 nodes: ~2.6 and ~39 injections a
	// cycle, long gaps between injecting nodes.
	for _, rate := range []float64{2e-5, 3e-4} {
		cfg := ImplicitConfig{Topo: topo.HypercubeTopo{Dim: 17},
			Router: topo.HypercubeRouter{Dim: 17}, InjectionRate: rate,
			WarmupCycles: 50, MeasureCycles: 200, Seed: 3}
		st, err := RunImplicit(cfg)
		put(fmt.Sprintf("runimplicit/q17/rate%g/seed3", rate), st, err)
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

// hashProbe folds every replayed probe event into a sha256 digest, one
// formatted line per event.
type hashProbe struct{ recProbe }

func (h *hashProbe) sum() string {
	d := sha256.New()
	for _, line := range h.lines {
		d.Write([]byte(line))
		d.Write([]byte{'\n'})
	}
	return hex.EncodeToString(d.Sum(nil))
}

// TestEngineProbeGolden pins the probe event stream, not just the Stats, of
// built-graph runs: two grid cases, adaptive spread (per-hop RNG draws) and
// a PeriodFunc override on a partitioned torus (per-link periods and the
// ring size they imply), and a harsh degraded ring whose stream carries
// every drop reason of the flow layer (TTL, dead router, queue kill,
// duplicate, abandoned) plus retransmissions and reroutes. The run records
// into an obs.EventLog, which is replayed cycle by cycle into a
// line-per-event sha256.
func TestEngineProbeGolden(t *testing.T) {
	q5, err := networks.Hypercube{Dim: 5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	torus, err := networks.Torus2D{Rows: 8, Cols: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	torusPart, err := metrics.GridPartition(8, 8, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := networks.Ring{Nodes: 16}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ringPlan := (&FaultPlan{}).LinkDown(40, 0, 1, 0).LinkDown(60, 8, 9, 200).
		NodeDown(80, 4, 150).NodeDown(90, 4, 300).LinkDown(100, 12, 13, 140)
	cases := []struct {
		name string
		cfg  Config
		fc   FaultConfig
		want string
	}{
		{"run/q5/adaptive/seed5", Config{Graph: q5, InjectionRate: 0.05, WarmupCycles: 50,
			MeasureCycles: 300, Seed: 5, Adaptive: true}, FaultConfig{},
			"3e82decafa338e47f153779477a67520fec4300f22882ee49a0afd554803d75f"},
		{"run/torus/periodfunc/seed6", Config{Graph: torus, Partition: &torusPart, OffModulePeriod: 2,
			InjectionRate: 0.02, WarmupCycles: 50, MeasureCycles: 300, Seed: 6,
			PeriodFunc: func(u, v int32) int {
				if torusPart.Of[u] != torusPart.Of[v] {
					return 3
				}
				return 1
			}}, FaultConfig{},
			"4c3ef42bef92cb52e8203beef398dc95d5197c6d519cfa20569f8646fe1033d4"},
		{"runfaulty/ring16/harsh/seed2", Config{Graph: ring, InjectionRate: 0.3, WarmupCycles: 30,
			MeasureCycles: 250, Seed: 2}, FaultConfig{Plan: ringPlan, RetransmitTimeout: 20,
			MaxRetries: 2, DetourTTL: 3, NotifyDelay: 10},
			"e14fd1684d9f89b89751feaac58fb1d490f40be834ad1d799a6450d18f9bf8fb"},
	}
	for _, tc := range cases {
		log := &obs.EventLog{}
		tc.cfg.Probe = log
		if _, err := RunFaulty(tc.cfg, tc.fc); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := &hashProbe{}
		end := tc.cfg.WarmupCycles + tc.cfg.MeasureCycles
		end += 10 * end // the default drain
		for c := 0; c <= end; c++ {
			log.ReplayCycle(c, h)
		}
		if len(h.lines) != log.Len() {
			t.Fatalf("%s: replayed %d of %d events", tc.name, len(h.lines), log.Len())
		}
		if got := h.sum(); got != tc.want {
			t.Errorf("%s: probe stream sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
