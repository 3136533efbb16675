package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
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
// The torus case, once run through a per-link period hook that charged 3
// cycles to exactly the links crossing its Partition, is the same
// configuration written as Partition plus OffModulePeriod 3; it took the
// name run/torus/modules3/seed6 and its values and digest did not move.
// They were re-recorded a fourth time, on purpose, when PlanTopo over
// topo.NewMaterialized became the only fault-plan generator: the shared
// q5 plan is now drawn node-first (a uniform node, then a uniform
// neighbor) instead of from the edge list, so exactly the five cases that
// run it moved (runfaulty/q5/{seed1, seed2, adaptive-notify25/seed3,
// modules4-hotspot/seed4, withbaseline/seed5}); TestGoldenSeedSweep showed
// no mean of theirs shifted by more than 3 standard errors. Then
// Config.Adaptive (spread over every minimal hop) was deleted, so built
// graphs route only by route.BFSNextHops tables: run/q5/adaptive/seed5 and
// its probe digest went away, and runfaulty/q5/adaptive-notify25/seed3
// became runfaulty/q5/notify25/seed3, the same run on tables, whose probe
// stream is now the third digest. No other case moved. They were
// re-recorded a fifth time, on purpose, when the built-graph retransmission
// layer was deleted and a degraded RunFaulty came to count every dropped
// packet in Lost, as every other run does: the Retransmitted, Duplicates
// and DisconnectedPairs fields went from every case, and only
// runfaulty/q5/seed1 changed value (183 of 183 delivered, max latency 196,
// 2 retransmissions; now 180 of 181, 1 lost, max 5); of the three probe
// digests only runfaulty/ring16/harsh/seed2's moved.
//
// The grid spans the axes the engine parameterizes: built vs implicit
// adjacency, table vs algebraic routing, fault-free vs degraded runs,
// uniform/transpose/hotspot patterns, module-partitioned service periods,
// store-and-forward vs cut-through, multi-flit messages, stale tables
// (NotifyDelay), and lanes below and above 2^16 nodes. TestEngineProbeGolden pins three
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

// goldenQ5Plan draws the fault plan the runfaulty/q5 cases share.
func goldenQ5Plan(t *testing.T, q5 *graph.Graph, seed int64) *FaultPlan {
	t.Helper()
	plan, err := (RandomFaults{MTBF: 60, RepairTime: 120, NodeFraction: 0.3,
		Start: 50, Horizon: 350, MaxFaults: 6, Seed: seed}).PlanTopo(topo.NewMaterialized(q5))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// goldenResults runs the whole grid and returns case-name -> result struct.
// Each case builds its own topology/router state so results are independent
// of execution order. Every run seed and fault-plan seed x of the grid is
// seedOf(x): the identity for the fixtures, a constant for the seed sweep.
func goldenResults(t *testing.T, seedOf func(int64) int64) map[string]any {
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
				MeasureCycles: 300, Seed: seedOf(seed), Pattern: pat}
			st, err := Run(cfg)
			put(fmt.Sprintf("run/q5/%s/seed%d", pname, seed), st, err)
		}
	}
	{
		cfg := Config{Graph: q5, Partition: &q5part, OffModulePeriod: 4,
			InjectionRate: 0.02, WarmupCycles: 50, MeasureCycles: 300, Seed: seedOf(3)}
		st, err := Run(cfg)
		put("run/q5/modules4/seed3", st, err)
	}
	{
		cfg := Config{Graph: q5, InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: seedOf(4), Flits: 3}
		st, err := Run(cfg)
		put("run/q5/flits3/seed4", st, err)
	}
	{
		cfg := Config{Graph: q5, InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: seedOf(4), Flits: 3, CutThrough: true}
		st, err := Run(cfg)
		put("run/q5/flits3cut/seed4", st, err)
	}
	{
		cfg := Config{Graph: torus, Partition: &torusPart, OffModulePeriod: 3,
			InjectionRate: 0.02, WarmupCycles: 50, MeasureCycles: 300, Seed: seedOf(6)}
		st, err := Run(cfg)
		put("run/torus/modules3/seed6", st, err)
	}

	// --- RunFaulty: materialized, degraded ---
	plan := goldenQ5Plan(t, q5, seedOf(1))
	for _, seed := range []int64{1, 2} {
		cfg := Config{Graph: q5, InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: seedOf(seed)}
		fs, err := RunFaulty(cfg, FaultConfig{Plan: plan})
		put(fmt.Sprintf("runfaulty/q5/seed%d", seed), fs, err)
	}
	{
		cfg := Config{Graph: q5, InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: seedOf(3)}
		fs, err := RunFaulty(cfg, FaultConfig{Plan: plan, NotifyDelay: 25})
		put("runfaulty/q5/notify25/seed3", fs, err)
	}
	{
		cfg := Config{Graph: q5, Partition: &q5part, OffModulePeriod: 4,
			InjectionRate: 0.02, WarmupCycles: 50, MeasureCycles: 300, Seed: seedOf(4),
			Pattern: hotspot}
		fs, err := RunFaulty(cfg, FaultConfig{Plan: plan, DetourTTL: 8})
		put("runfaulty/q5/modules4-hotspot/seed4", fs, err)
	}
	{
		faulty, base, err := RunFaultyWithBaseline(
			Config{Graph: q5, InjectionRate: 0.02, WarmupCycles: 50,
				MeasureCycles: 300, Seed: seedOf(5)},
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
				WarmupCycles: 50, MeasureCycles: 300, Seed: seedOf(seed), Pattern: pat}
			st, err := RunImplicit(cfg)
			put(fmt.Sprintf("runimplicit/q8/%s/seed%d", pname, seed), st, err)
		}
	}
	// The grid's only lanes above 2^16 nodes: ~2.6 and ~39 injections a
	// cycle, long gaps between injecting nodes.
	for _, rate := range []float64{2e-5, 3e-4} {
		cfg := ImplicitConfig{Topo: topo.HypercubeTopo{Dim: 17},
			Router: topo.HypercubeRouter{Dim: 17}, InjectionRate: rate,
			WarmupCycles: 50, MeasureCycles: 200, Seed: seedOf(3)}
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
			WarmupCycles: 50, MeasureCycles: 300, Seed: seedOf(4),
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
			WarmupCycles: 50, MeasureCycles: 300, Seed: seedOf(seed),
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
			Start: 50, Horizon: 350, MaxFaults: 5, Seed: seedOf(2)}).PlanTopo(imp)
		if err != nil {
			t.Fatal(err)
		}
		fs := topo.NewFaultSet()
		cfg := ImplicitConfig{Topo: imp, InjectionRate: 0.02,
			WarmupCycles: 50, MeasureCycles: 300, Seed: seedOf(3),
			OffModulePeriod: 4, ModuleOf: imp.Module,
			Router: topo.NewFaultAware(imp, air, fs)}
		st, err := RunImplicitFaulty(cfg, ImplicitFaultConfig{Plan: hplan, Faults: fs})
		put("runimplicitfaulty/hsn2q3/seed3", st, err)
	}
	return out
}

func TestEngineGoldenParity(t *testing.T) {
	got := goldenResults(t, func(seed int64) int64 { return seed })
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
		var c struct{ Injected, Delivered, Lost, Expired int }
		if err := json.Unmarshal([]byte(gotCanon), &c); err != nil {
			t.Fatal(err)
		}
		if c.Injected != c.Delivered+c.Lost+c.Expired {
			t.Errorf("%s: Injected %d != Delivered %d + Lost %d + Expired %d",
				name, c.Injected, c.Delivered, c.Lost, c.Expired)
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

// TestGoldenSeedSweep runs every golden-grid case at run seeds 1-20, with
// the fault-plan seeds moved to the run seed, and prints one Markdown table
// of per-case mean ± sample s.d.: Injected, AvgLatency and Throughput for
// every case, Lost, RerouteEvents and MisroutedHops for the degraded ones.
// A deliberate re-record compares this table before and after the change,
// so that a shift of the moved fixtures shows as a shift of the means. It
// only runs on request:
//
//	GOLDEN_SEED_SWEEP=1 go test -v -run TestGoldenSeedSweep ./internal/netsim
func TestGoldenSeedSweep(t *testing.T) {
	if os.Getenv("GOLDEN_SEED_SWEEP") != "1" {
		t.Skip("set GOLDEN_SEED_SWEEP=1 to sweep the golden grid over seeds 1-20")
	}
	const seeds = 20
	// The last three columns are read on the degraded cases only.
	cols := []string{"Injected", "AvgLatency", "Throughput", "Lost", "RerouteEvents", "MisroutedHops"}
	samples := map[string]map[string][]float64{} // case -> column -> one value a seed
	for s := int64(1); s <= seeds; s++ {
		for name, st := range goldenResults(t, func(int64) int64 { return s }) {
			raw, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]any
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatal(err)
			}
			if samples[name] == nil {
				samples[name] = map[string][]float64{}
			}
			for _, f := range cols {
				if v, ok := fields[f].(float64); ok {
					samples[name][f] = append(samples[name][f], v)
				}
			}
		}
	}
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "| case | %s |\n|---%s|\n", strings.Join(cols, " | "), strings.Repeat("|---", len(cols)))
	for _, name := range names {
		fmt.Fprintf(&b, "| %s |", name)
		degraded := strings.Contains(name, "faulty/") && !strings.Contains(name, "-base/")
		for i, f := range cols {
			xs := samples[name][f]
			if len(xs) == 0 || i >= 3 && !degraded {
				b.WriteString(" — |")
				continue
			}
			mean, sd := meanSD(xs)
			fmt.Fprintf(&b, " %.5g ± %.3g |", mean, sd)
		}
		b.WriteByte('\n')
	}
	fmt.Print(b.String())
}

// meanSD returns the mean and the sample standard deviation of xs (at
// least two values).
func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
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

// harshRing is the runfaulty/ring16/harsh/seed2 run: a 16-node ring at
// rate 0.3 under five link and node faults, with a short detour TTL and
// stale tables.
func harshRing(t *testing.T) (Config, FaultConfig) {
	t.Helper()
	ring, err := networks.Ring{Nodes: 16}.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := (&FaultPlan{}).LinkDown(40, 0, 1, 0).LinkDown(60, 8, 9, 200).
		NodeDown(80, 4, 150).NodeDown(90, 4, 300).LinkDown(100, 12, 13, 140)
	return Config{Graph: ring, InjectionRate: 0.3, WarmupCycles: 30, MeasureCycles: 250, Seed: 2},
		FaultConfig{Plan: plan, DetourTTL: 3, NotifyDelay: 10}
}

// TestEngineProbeGolden pins the probe event stream, not just the Stats, of
// three built-graph runs: a partitioned torus whose off-module links cost 3
// (per-link periods and the ring size they imply), a harsh degraded ring
// whose stream carries the drop reasons of a built graph (TTL, dead
// router, queue kill) plus reroutes, and the grid's
// runfaulty/q5/notify25/seed3, whose tables go
// stale for 25 cycles after each change of its drawn fault plan. The run records
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
	harsh, harshFC := harshRing(t)
	cases := []struct {
		name string
		cfg  Config
		fc   FaultConfig
		want string
	}{
		{"run/torus/modules3/seed6", Config{Graph: torus, Partition: &torusPart, OffModulePeriod: 3,
			InjectionRate: 0.02, WarmupCycles: 50, MeasureCycles: 300, Seed: 6}, FaultConfig{},
			"4c3ef42bef92cb52e8203beef398dc95d5197c6d519cfa20569f8646fe1033d4"},
		{"runfaulty/ring16/harsh/seed2", harsh, harshFC,
			"52d08428bfd9a1eec8f7c711e712b38e6a68a0b7b54dfbf6c295495324eb78db"},
		{"runfaulty/q5/notify25/seed3", Config{Graph: q5, InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: 3}, FaultConfig{Plan: goldenQ5Plan(t, q5, 1), NotifyDelay: 25},
			"49cf30af9e30cad7455a488db79a1f481b97126929b6391ac55897d1121d0c5a"},
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
