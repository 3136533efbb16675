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

// Golden parity for the engine: every public entry point (RunImplicit and
// RunImplicitFaulty on built graphs and implicit topologies; RunSharded is
// pinned against RunImplicit by TestShardedSingleLane) is pinned bit for
// bit to its recorded result, the flat ImplicitFaultStats. The run/* and
// runfaulty/* cases are built-graph runs (runGraph: the table router and
// an 8·N hop watchdog). All of them are runs of the one lane runner, so any drift in RNG draw order, phase order, or accounting fails
// this test with an exact field diff. REGEN_ENGINE_GOLDEN=1 go test -run
// TestEngineGoldenParity regenerates testdata/engine_golden.json — only do
// that to extend the grid or for a deliberate semantic change, never to
// paper over a diff. A re-record has one cause: CHANGES.md names it, lists
// the moved values, and gives the TestGoldenSeedSweep table at the parent
// and at the change.
//
// The grid spans the axes the engine parameterizes: built vs implicit
// adjacency, table vs algebraic routing, fault-free vs degraded runs,
// uniform/transpose/hotspot patterns, module-partitioned service periods,
// store-and-forward vs cut-through, multi-flit messages, and lanes below
// and above 2^16 nodes. TestEngineProbeGolden pins three built-graph probe
// streams as well.

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
func goldenResults(t *testing.T, seedOf func(int64) int64) map[string]ImplicitFaultStats {
	t.Helper()
	out := map[string]ImplicitFaultStats{}
	put := func(name string, st ImplicitFaultStats, err error) {
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

	// --- built graph, fault-free ---
	patterns := map[string]func(int64, int64, *rand.Rand) int64{"uniform": nil, "transpose": Transpose, "hotspot": hotspot}
	for pname, pat := range patterns {
		for _, seed := range []int64{1, 2} {
			cfg := ImplicitConfig{InjectionRate: 0.02, WarmupCycles: 50,
				MeasureCycles: 300, Seed: seedOf(seed), Pattern: pat}
			st, err := runGraph(q5, cfg, nil)
			put(fmt.Sprintf("run/q5/%s/seed%d", pname, seed), st, err)
		}
	}
	{
		cfg := ImplicitConfig{ModuleOf: q5part.Module, OffModulePeriod: 4,
			InjectionRate: 0.02, WarmupCycles: 50, MeasureCycles: 300, Seed: seedOf(3)}
		st, err := runGraph(q5, cfg, nil)
		put("run/q5/modules4/seed3", st, err)
	}
	{
		cfg := ImplicitConfig{InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: seedOf(4), Flits: 3}
		st, err := runGraph(q5, cfg, nil)
		put("run/q5/flits3/seed4", st, err)
	}
	{
		cfg := ImplicitConfig{InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: seedOf(4), Flits: 3, CutThrough: true}
		st, err := runGraph(q5, cfg, nil)
		put("run/q5/flits3cut/seed4", st, err)
	}
	{
		cfg := ImplicitConfig{ModuleOf: torusPart.Module, OffModulePeriod: 3,
			InjectionRate: 0.02, WarmupCycles: 50, MeasureCycles: 300, Seed: seedOf(6)}
		st, err := runGraph(torus, cfg, nil)
		put("run/torus/modules3/seed6", st, err)
	}

	// --- built graph, degraded ---
	plan := goldenQ5Plan(t, q5, seedOf(1))
	for _, seed := range []int64{1, 2, 3} {
		cfg := ImplicitConfig{InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: seedOf(seed)}
		fs, err := runGraph(q5, cfg, plan)
		put(fmt.Sprintf("runfaulty/q5/seed%d", seed), fs, err)
	}
	{
		cfg := ImplicitConfig{ModuleOf: q5part.Module, OffModulePeriod: 4,
			InjectionRate: 0.02, WarmupCycles: 50, MeasureCycles: 300, Seed: seedOf(4),
			Pattern: hotspot}
		fs, err := runGraph(q5, cfg, plan)
		put("runfaulty/q5/modules4-hotspot/seed4", fs, err)
	}
	{
		// A degraded run and its baseline: the same run without the plan.
		cfg := ImplicitConfig{InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: seedOf(5)}
		faulty, err := runGraph(q5, cfg, plan)
		put("runfaulty/q5/withbaseline/seed5", faulty, err)
		base, err := runGraph(q5, cfg, nil)
		put("runfaulty/q5/withbaseline-base/seed5", base, err)
	}

	// --- RunImplicit: sparse, fault-free ---
	for pname, pat := range map[string]func(int64, int64, *rand.Rand) int64{
		"uniform": nil, "hotspot": hotspot} {
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
// every case, Lost, Router.Reroutes and Router.DetourHops for the degraded
// ones.
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
	cols := []string{"Injected", "AvgLatency", "Throughput", "Lost", "Router.Reroutes", "Router.DetourHops"}
	samples := map[string][][]float64{} // case -> column -> one value a seed
	for s := int64(1); s <= seeds; s++ {
		for name, st := range goldenResults(t, func(int64) int64 { return s }) {
			if samples[name] == nil {
				samples[name] = make([][]float64, len(cols))
			}
			for i, v := range []float64{float64(st.Injected), st.AvgLatency, st.Throughput,
				float64(st.Lost), float64(st.Router.Reroutes), float64(st.Router.DetourHops)} {
				samples[name][i] = append(samples[name][i], v)
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
		for i, xs := range samples[name] {
			if i >= 3 && !degraded {
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
// rate 0.3 under five link and node faults, two of them cutting it in two.
func harshRing(t *testing.T) (*graph.Graph, ImplicitConfig, *FaultPlan) {
	t.Helper()
	ring, err := networks.Ring{Nodes: 16}.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := (&FaultPlan{}).LinkDown(40, 0, 1, 0).LinkDown(60, 8, 9, 200).
		NodeDown(80, 4, 150).NodeDown(90, 4, 300).LinkDown(100, 12, 13, 140)
	return ring, ImplicitConfig{InjectionRate: 0.3, WarmupCycles: 30, MeasureCycles: 250, Seed: 2}, plan
}

// TestEngineProbeGolden pins the probe event stream, not just the Stats, of
// three built-graph runs: a partitioned torus whose off-module links cost 3
// (per-link periods and the ring size they imply), a harsh degraded ring
// whose stream carries the drop reasons of a built graph (no route, dead
// router, queue kill), and the grid's runfaulty/q5/seed3, whose tables are
// rebuilt after each change of its drawn fault plan. The run records into
// an obs.EventLog, which is replayed cycle by cycle into a line-per-event
// sha256.
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
	ring, harsh, harshPlan := harshRing(t)
	cases := []struct {
		name string
		g    *graph.Graph
		cfg  ImplicitConfig
		plan *FaultPlan
		want string
	}{
		{"run/torus/modules3/seed6", torus, ImplicitConfig{ModuleOf: torusPart.Module, OffModulePeriod: 3,
			InjectionRate: 0.02, WarmupCycles: 50, MeasureCycles: 300, Seed: 6}, nil,
			"e66779933dcb6da8f6e3aeb5560018c5cb0010356b05680fb595b2db85eda7e8"},
		{"runfaulty/ring16/harsh/seed2", ring, harsh, harshPlan,
			"c8861efb2a02d71256311a8b48550717c31643421ad7dd9026259951d2d026dd"},
		{"runfaulty/q5/seed3", q5, ImplicitConfig{InjectionRate: 0.02, WarmupCycles: 50,
			MeasureCycles: 300, Seed: 3}, goldenQ5Plan(t, q5, 1),
			"786dc4a2d7d62bfd0f08d5c270b7a7d07dcd26b9b3febe220919aad90cce247e"},
	}
	for _, tc := range cases {
		log := &obs.EventLog{}
		tc.cfg.Probe = log
		if _, err := runGraph(tc.g, tc.cfg, tc.plan); err != nil {
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
