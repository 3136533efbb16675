package netsim

// Tests for observability on the implicit stack: the nil-probe fast path,
// a NopProbe, and a full collector set must produce bit-for-bit identical
// simulator statistics (probes observe, never steer); the router telemetry
// must surface in the result's Router field; and the
// module-aggregated collector must agree with the per-link one.

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/topo"
)

// implicitObsConfig builds the fixed implicit run the parity tests pin,
// with a fresh algebraic router per call so no suffix-cache state leaks
// between runs.
func implicitObsConfig(t *testing.T) (ImplicitConfig, *topo.Implicit) {
	t.Helper()
	net, imp, _, _ := faultTestNet(t)
	r, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	return ImplicitConfig{Topo: imp, Router: r, InjectionRate: 0.02,
		WarmupCycles: 50, MeasureCycles: 500, Seed: 7}, imp
}

// stripQuantiles zeroes the fields only a latency-summary probe fills, so
// probed and unprobed runs compare with plain ==.
func stripQuantiles(st *Stats) {
	st.P50Latency, st.P95Latency, st.P99Latency = 0, 0, 0
}

// TestImplicitProbeGoldenParity is the zero-overhead-when-disabled
// contract, checked semantically: RunImplicit with a nil probe, a NopProbe,
// and the full collector stack must produce identical ImplicitFaultStats —
// packet ids are assigned off the RNG path and every hook sits behind one
// nil check, so observation cannot perturb the run.
func TestImplicitProbeGoldenParity(t *testing.T) {
	base, _ := implicitObsConfig(t)
	want, err := RunImplicit(base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Injected == 0 || want.Router.CacheMisses == 0 {
		t.Fatalf("baseline run too quiet to be a useful pin: %+v", want)
	}

	nop, _ := implicitObsConfig(t)
	nop.Probe = obs.NopProbe{}
	got, err := RunImplicit(nop)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("NopProbe diverged from nil probe:\nnil %+v\nnop %+v", want, got)
	}

	probed, imp := implicitObsConfig(t)
	hist := &obs.LatencyHist{}
	ts := obs.NewTimeSeries(imp.Module, 50)
	ms := obs.NewModuleSeries(imp.Module, 50)
	tr := &obs.Trace{SampleEvery: 4}
	probed.Probe = obs.Multi(hist, ts, ms, tr, &obs.Progress{Every: 200, W: io.Discard})
	full, err := RunImplicit(probed)
	if err != nil {
		t.Fatal(err)
	}
	if full.P50Latency <= 0 || full.P99Latency > float64(full.MaxLatency) {
		t.Fatalf("histogram did not surface quantiles: %+v", full)
	}
	stripQuantiles(&full.Stats)
	if full != want {
		t.Fatalf("collectors perturbed the run:\nnil    %+v\nprobed %+v", want, full)
	}
	if hist.Count() != int64(want.Delivered) {
		t.Fatalf("histogram saw %d deliveries, simulator %d", hist.Count(), want.Delivered)
	}
	if diff := hist.Mean() - want.AvgLatency; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("histogram mean %v != AvgLatency %v", hist.Mean(), want.AvgLatency)
	}
	if tr.Len() == 0 {
		t.Fatal("sampled tracer recorded nothing on the implicit run")
	}
}

// TestImplicitFaultyProbeGoldenParity is the degraded-mode counterpart:
// the full collector stack on RunImplicitFaulty must leave every field of
// ImplicitFaultStats untouched, including the fault and router counters.
func TestImplicitFaultyProbeGoldenParity(t *testing.T) {
	run := func(probe obs.Probe) ImplicitFaultStats {
		_, imp, fs, fa := faultTestNet(t)
		plan := faultyPlanFor(t, imp, 3)
		st, err := RunImplicitFaulty(ImplicitConfig{Topo: imp, Router: fa,
			InjectionRate: 0.05, WarmupCycles: 50, MeasureCycles: 400, Seed: 13,
			Probe: probe},
			ImplicitFaultConfig{Plan: plan, Faults: fs})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	want := run(nil)
	if want.FaultsInjected == 0 || want.RerouteEvents == 0 {
		t.Fatalf("baseline faulty run saw no faults: %+v", want)
	}
	if got := run(obs.NopProbe{}); got != want {
		t.Fatalf("NopProbe diverged on faulty run:\nnil %+v\nnop %+v", want, got)
	}
	hist := &obs.LatencyHist{}
	full := run(obs.Multi(hist, obs.NewTimeSeries(nil, 64), obs.NewModuleSeries(nil, 64), &obs.Trace{}))
	stripQuantiles(&full.Stats)
	if full != want {
		t.Fatalf("collectors perturbed the faulty run:\nnil    %+v\nprobed %+v", want, full)
	}
	if hist.Count() != int64(want.Delivered) {
		t.Fatalf("histogram saw %d deliveries, simulator %d", hist.Count(), want.Delivered)
	}
}

// TestImplicitRouterStatsSurfaced checks the router telemetry plumbing: the
// result's Router field carries the run's delta, and on a faulty run the
// router's reroute counters agree with the simulator's own accounting.
func TestImplicitRouterStatsSurfaced(t *testing.T) {
	cfg, _ := implicitObsConfig(t)
	cfg.Probe = &obs.LatencyHist{}
	st, err := RunImplicit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Router.CacheMisses == 0 || st.Router.CacheHits == 0 {
		t.Fatalf("suffix-cache telemetry empty: %+v", st.Router)
	}
	// Every injected packet re-sources at least once, and carried hops
	// score hits; a fault-free run never trips the safety valve.
	if st.Router.CacheEvicted != 0 || st.Router.CacheClears != 0 ||
		st.Router.EpochPurges != 0 || st.Router.Reroutes != 0 {
		t.Fatalf("fault-free run shows fault-path telemetry: %+v", st.Router)
	}

	// Degraded mode: the RouterStats split must agree with the FaultStats
	// counters (both are deltas of the same underlying counters).
	_, imp, fs, fa := faultTestNet(t)
	plan := faultyPlanFor(t, imp, 5)
	fst, err := RunImplicitFaulty(ImplicitConfig{Topo: imp, Router: fa,
		InjectionRate: 0.05, WarmupCycles: 50, MeasureCycles: 400, Seed: 17},
		ImplicitFaultConfig{Plan: plan, Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	if fst.Router.Reroutes != uint64(fst.RerouteEvents) {
		t.Fatalf("Router.Reroutes %d != RerouteEvents %d", fst.Router.Reroutes, fst.RerouteEvents)
	}
	if fst.Router.DetourHops != uint64(fst.MisroutedHops) {
		t.Fatalf("Router.DetourHops %d != MisroutedHops %d", fst.Router.DetourHops, fst.MisroutedHops)
	}
	if fst.Router.ConjugateReroutes+fst.Router.LocalDetourReroutes != fst.Router.Reroutes {
		t.Fatalf("repair split does not partition the reroutes: %+v", fst.Router)
	}
	var depth uint64
	for _, c := range fst.Router.DetourDepth {
		depth += c
	}
	if depth != fst.Router.Reroutes {
		t.Fatalf("depth histogram accounts %d repairs, want %d: %+v",
			depth, fst.Router.Reroutes, fst.Router)
	}
	if fst.Router.EpochPurges == 0 {
		t.Fatalf("live fault plan should purge the cache at least once: %+v", fst.Router)
	}
}

// TestImplicitModuleSeriesMatchesTimeSeries runs both aggregation
// granularities side by side: total busy cycles must agree, and the
// module collector's inter-module busy total must equal the link
// collector's off-module busy total (same classification, different
// grouping). The module collector's state stays bounded by module count.
func TestImplicitModuleSeriesMatchesTimeSeries(t *testing.T) {
	cfg, imp := implicitObsConfig(t)
	cfg.OffModulePeriod = 4
	cfg.ModuleOf = imp.Module
	ts := obs.NewTimeSeries(imp.Module, 50)
	ms := obs.NewModuleSeries(imp.Module, 50)
	st, err := RunImplicit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, _ := implicitObsConfig(t)
	cfg2.OffModulePeriod = 4
	cfg2.ModuleOf = imp.Module
	cfg2.Probe = obs.Multi(ts, ms)
	if _, err := RunImplicit(cfg2); err != nil {
		t.Fatal(err)
	}
	ts.Flush()
	ms.Flush()
	if st.Injected == 0 {
		t.Fatal("no traffic")
	}
	var offBusy int64
	for _, l := range ts.TopLinks(0) {
		if l.OffModule {
			offBusy += l.Busy
		}
	}
	var interBusy, intraBusy int64
	for _, m := range ms.TopModules(0) {
		interBusy += m.InterBusy
		intraBusy += m.IntraBusy
	}
	if ts.TotalBusy() != intraBusy+interBusy {
		t.Fatalf("TimeSeries busy %d != ModuleSeries busy %d", ts.TotalBusy(), intraBusy+interBusy)
	}
	if interBusy != offBusy {
		t.Fatalf("inter-module busy %d != off-module link busy %d", interBusy, offBusy)
	}
	if got, max := int64(ms.ActiveModules()), imp.Modules(); got > max {
		t.Fatalf("ModuleSeries tracks %d modules, topology has %d", got, max)
	}
	if ms.ActiveModules() == 0 || len(ts.TopLinks(0)) == 0 {
		t.Fatal("collectors saw no activity")
	}
}

// queueKills counts DropQueueKilled events.
type queueKills struct {
	obs.NopProbe
	n int
}

func (k *queueKills) Drop(_ int, _ int64, _ int64, reason obs.DropReason) {
	if reason == obs.DropQueueKilled {
		k.n++
	}
}

// queuedPerWindow sums a JSONL series' queue column per window-end cycle,
// over the rows of one kind.
func queuedPerWindow(t *testing.T, write func(io.Writer) error, kind, column string) map[int]int {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[int]int{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var row map[string]any
		if err := dec.Decode(&row); err != nil {
			t.Fatal(err)
		}
		if row["kind"] == kind {
			out[int(row["cycle"].(float64))] += int(row[column].(float64))
		}
	}
	return out
}

// TestTimeSeriesClearsKilledQueues pins the per-link queue gauge across
// node faults: packets killed in a dead node's queues must leave the link
// depths, so in every window the summed TimeSeries link queues equal the
// ModuleSeries queued gauge (enqueues minus transmissions minus kills).
func TestTimeSeriesClearsKilledQueues(t *testing.T) {
	_, imp, fs, fa := faultTestNet(t)
	plan := &FaultPlan{}
	for i := 0; i < 6; i++ {
		plan.NodeDown(120+10*i, int64(7*i), 0) // permanent
	}
	ts := obs.NewTimeSeries(imp.Module, 50)
	ms := obs.NewModuleSeries(imp.Module, 50)
	kills := &queueKills{}
	if _, err := RunImplicitFaulty(ImplicitConfig{Topo: imp, Router: fa,
		InjectionRate: 0.3, WarmupCycles: 50, MeasureCycles: 300, Seed: 17,
		Probe: obs.Multi(ts, ms, kills)},
		ImplicitFaultConfig{Plan: plan, Faults: fs}); err != nil {
		t.Fatal(err)
	}
	ts.Flush()
	ms.Flush()
	if kills.n == 0 {
		t.Fatal("no queue was killed; the scenario does not exercise the fix")
	}
	links := queuedPerWindow(t, ts.WriteJSONL, "link", "queue")
	mods := queuedPerWindow(t, ms.WriteJSONL, "moduleagg", "queued")
	for c := range links {
		if _, ok := mods[c]; !ok {
			mods[c] = 0
		}
	}
	cycles := make([]int, 0, len(mods))
	for c := range mods {
		cycles = append(cycles, c)
	}
	sort.Ints(cycles)
	for _, c := range cycles {
		if links[c] != mods[c] {
			t.Errorf("window ending %d: TimeSeries holds %d queued packets, ModuleSeries %d", c, links[c], mods[c])
		}
	}
}
