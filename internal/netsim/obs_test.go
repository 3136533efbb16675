package netsim

// Tests for the observability layer wired through built-graph runs: the
// nil-probe fast path must reproduce the pre-instrumentation statistics bit
// for bit, probes must be pure observers (attaching them changes nothing),
// and the built-in collectors must agree with the simulator's own
// accounting (per-link utilization vs. hop counts, histogram mean vs.
// AvgLatency, trace lifecycles balancing).

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/networks"
	"repro/internal/obs"
	"repro/internal/superip"
	"repro/internal/topo"
)

// goldenHSNConfig is the fixed run the bit-for-bit regression tests pin:
// HSN(2;Q3) built, with its nucleus partition.
func goldenHSNConfig(t *testing.T) (*graph.Graph, metrics.Partition, ImplicitConfig) {
	t.Helper()
	net := superip.HSN(2, superip.NucleusHypercube(3))
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	p := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())
	return g, p, ImplicitConfig{ModuleOf: p.Module, OffModulePeriod: 4,
		InjectionRate: 0.02, WarmupCycles: 200, MeasureCycles: 1500, Seed: 17}
}

// TestNilProbeGoldenParity pins built-graph runs with a nil probe to the
// exact statistics the simulator produced before the observability layer
// existed (values captured from the pre-instrumentation build; the two
// runs that draw routing randomness were re-recorded once, see below, and
// all three a second time when the injection sampler moved to geometric
// gaps, which changes every run's RNG stream; the torus run, once
// adaptive, was re-recorded a third time when built graphs came to route
// only by BFS tables; all three again when built graphs lost their own
// uniform destination draw for the nil default). Any drift — an extra RNG
// draw, a reordered event, a changed counter — fails here.
func TestNilProbeGoldenParity(t *testing.T) {
	hsn, _, cfg := goldenHSNConfig(t)
	st, err := runGraph(hsn, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Before the geometric sampler: 1901 injected, latency
	// 7.077327722251447, max 17; before the one uniform draw: latency
	// 7.071318624935865, max 21.
	if st.Injected != 1949 || st.Delivered != 1949 || st.Expired != 0 ||
		st.AvgLatency != 6.961518727552591 || st.MaxLatency != 19 ||
		st.Throughput != 0.02030208333333333 {
		t.Fatalf("fault-free run diverged from pre-instrumentation golden stats: %+v", st)
	}

	tg, err := networks.Torus2D{Rows: 8, Cols: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := runGraph(tg, ImplicitConfig{InjectionRate: 0.05, WarmupCycles: 100,
		MeasureCycles: 1200, Seed: 29, Flits: 4, CutThrough: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Re-recorded once, when built graphs moved to the one link store:
	// links are visited in activation order, which moved the then adaptive
	// spread's RNG draws (was 3839 injected, latency 5.5595207085178435,
	// max 24), again for the geometric sampler (was 3819 injected, latency
	// 5.617177271537051, max 25), and a third time when adaptive spread
	// was deleted and the run went over BFS tables (was 3831 injected,
	// latency 5.743931088488646, max 26; without the per-hop spread draws
	// the injection sampler reads a different stretch of the lane RNG), and
	// a fourth time for the one uniform draw (was latency
	// 7.057697283311772, max 58).
	if st2.Injected != 3865 || st2.Delivered != 3865 ||
		st2.AvgLatency != 6.467270375161708 || st2.MaxLatency != 47 ||
		st2.Throughput != 0.05032552083333333 {
		t.Fatalf("cut-through torus run diverged from golden stats: %+v", st2)
	}

	qg, err := networks.Hypercube{Dim: 5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := (&FaultPlan{}).LinkDown(200, 0, 1, 800).LinkDown(350, 2, 18, 0).NodeDown(500, 7, 1100)
	fs, err := runGraph(qg, ImplicitConfig{InjectionRate: 0.05, WarmupCycles: 100,
		MeasureCycles: 1500, Seed: 31}, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Re-recorded with the torus case above, then adaptive: TTL detours
	// draw from the same RNG (was 2412 injected, latency 2.631011608623549, max 18, 0
	// retransmitted, 25 misrouted hops, 158 reroutes, 37.0253164556962
	// cycles to reroute). Re-recorded again for the geometric sampler (was
	// 2404 injected, latency 3.0424292845257903, max 964, 4 retransmitted,
	// 107 misrouted hops, 160 reroutes, 34.425 cycles to reroute; the 964
	// was a flow towards node 7, which dies at 500, delivered after its
	// repair at 1100). Re-recorded again when the retransmission layer was
	// deleted (was 2342 delivered, latency 2.671221178479932, max 67, 0
	// lost, 1 retransmitted: the 67 was a packet 23 -> 4 injected at cycle
	// 499 and delivered at 566 by its one retransmission; that packet is
	// now the one lost, dropped at node 7 as it died). Re-recorded again
	// when the 16-cycle notification delay and the TTL detours went and
	// tables came to be rebuilt on the first packet after each fault (was
	// 2342 injected, 2341 delivered, latency 2.6437419906023067, max 16, 1
	// lost, 26 misrouted hops, 158 reroutes, 37.70253164556962 cycles to
	// reroute): no packet detours, so the lane RNG feeds injection alone.
	// Re-recorded again for the one uniform draw (was 2357 injected and
	// delivered, latency 2.6215528213831143, throughput
	// 0.049104166666666664, 157 reroutes).
	if fs.Injected != 2348 || fs.Delivered != 2348 || fs.Expired != 0 ||
		fs.AvgLatency != 2.5954003407155026 || fs.MaxLatency != 6 ||
		fs.Throughput != 0.048916666666666664 || fs.Lost != 0 ||
		fs.Router.DetourHops != 0 || fs.Router.Reroutes != 158 ||
		fs.FaultsInjected != 3 || fs.FaultsRepaired != 2 {
		t.Fatalf("degraded run diverged from pre-instrumentation golden stats: %+v", fs)
	}
}

// TestProbeDoesNotPerturbRun attaches the full collector stack and checks
// that the result is identical to the nil-probe run — probes watch, they
// never steer.
func TestProbeDoesNotPerturbRun(t *testing.T) {
	g, part, cfg := goldenHSNConfig(t)
	base, err := runGraph(g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := &obs.LatencyHist{}
	ts := obs.NewTimeSeries(part.Module, 50)
	trace := &obs.Trace{SampleEvery: 4}
	cfg.Probe = obs.Multi(hist, ts, trace, &obs.Progress{Every: 500, W: io.Discard})
	probed, err := runGraph(g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if probed != base {
		t.Fatalf("probes perturbed the run:\nnil   %+v\nprobe %+v", base, probed)
	}
	// The histogram is the exact measured-latency population: its mean and
	// count must agree with the simulator's own accounting, and its
	// quantiles must be ordered and bounded by the max.
	if hist.Count() != int64(base.Delivered) {
		t.Fatalf("histogram saw %d deliveries, simulator %d", hist.Count(), base.Delivered)
	}
	if diff := hist.Mean() - base.AvgLatency; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("histogram mean %v != AvgLatency %v", hist.Mean(), base.AvgLatency)
	}
	if _, _, _, max := hist.Summary(); max != base.MaxLatency {
		t.Fatalf("histogram max %d != MaxLatency %d", max, base.MaxLatency)
	}
	if p50, p95, p99, max := hist.Summary(); p50 <= 0 || p50 > p95 || p95 > p99 || p99 > float64(max) {
		t.Fatalf("quantiles out of order: p50=%v p95=%v p99=%v max=%d", p50, p95, p99, max)
	}
	if trace.Len() == 0 {
		t.Fatal("sampled tracer recorded nothing")
	}
}

// TestProbeDoesNotPerturbRunFaulty is the degraded-mode counterpart: the
// full collector stack on a faulty run must leave every field of the result
// untouched.
func TestProbeDoesNotPerturbRunFaulty(t *testing.T) {
	g := mustBuild(t, networks.Hypercube{Dim: 5}.Build)
	plan := (&FaultPlan{}).LinkDown(200, 0, 1, 800).LinkDown(350, 2, 18, 0).NodeDown(500, 7, 1100)
	cfg := ImplicitConfig{InjectionRate: 0.05, WarmupCycles: 100,
		MeasureCycles: 1500, Seed: 31}
	base, err := runGraph(g, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	hist := &obs.LatencyHist{}
	trace := &obs.Trace{}
	cfg.Probe = obs.Multi(hist, obs.NewTimeSeries(nil, 100), trace)
	probed, err := runGraph(g, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if probed != base {
		t.Fatalf("probes perturbed the faulty run:\nnil   %+v\nprobe %+v", base, probed)
	}
	if hist.Count() != int64(base.Delivered) {
		t.Fatalf("histogram saw %d deliveries, simulator %d", hist.Count(), base.Delivered)
	}
}

// TestTimeSeriesUtilizationMatchesHopCounts checks the acceptance
// invariant: on a deterministic period-1 single-flit run that drains
// completely, the summed per-link busy cycles (total and per exported CSV
// window) equal the total hops taken, which for minimal deterministic
// routing is the sum of shortest-path distances of the injected packets.
func TestTimeSeriesUtilizationMatchesHopCounts(t *testing.T) {
	g := mustBuild(t, networks.Torus2D{Rows: 4, Cols: 4}.Build)
	ts := obs.NewTimeSeries(nil, 64)
	rec := &injectRecorder{}
	st, err := runGraph(g, ImplicitConfig{InjectionRate: 0.05, WarmupCycles: 0,
		MeasureCycles: 400, Seed: 9, Probe: obs.Multi(ts, rec)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Expired != 0 || st.Delivered != st.Injected {
		t.Fatalf("run did not drain: %+v", st)
	}
	// Expected occupancy: every packet (warmup 0 means all are measured and
	// recorded) takes exactly dist(src,dst) hops of one busy cycle each.
	var want int64
	for _, p := range rec.pairs {
		want += int64(g.BFS(int32(p[0]))[p[1]])
	}
	if got := ts.TotalBusy(); got != want {
		t.Fatalf("summed link busy cycles %d != summed shortest distances %d", got, want)
	}
	// The exported windows must account for every busy cycle too.
	ts.Flush()
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "cycle,width,src,dst,offmodule,queue,busy,util" {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	var csvBusy int64
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 8 {
			t.Fatalf("CSV row %q has %d fields", line, len(f))
		}
		b, err := strconv.ParseInt(f[6], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		csvBusy += b
	}
	if csvBusy != want {
		t.Fatalf("CSV busy column sums to %d, want %d", csvBusy, want)
	}
}

// injectRecorder captures (src, dst) of every injection.
type injectRecorder struct {
	obs.NopProbe
	pairs [][2]int64
}

func (r *injectRecorder) Inject(_ int, _ int64, src, dst int64, _ bool) {
	r.pairs = append(r.pairs, [2]int64{src, dst})
}

// TestExpiredCountsUndrainedPackets starves the drain window so measured
// packets are still in flight at the deadline; they must show up in Expired
// instead of silently vanishing into the Injected-Delivered gap.
func TestExpiredCountsUndrainedPackets(t *testing.T) {
	g := mustBuild(t, networks.Ring{Nodes: 16}.Build)
	st, err := runGraph(g, ImplicitConfig{InjectionRate: 0.2, WarmupCycles: 0,
		MeasureCycles: 200, DrainCycles: 1, Seed: 3, Flits: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Expired == 0 {
		t.Fatal("a 1-cycle drain of 8-flit messages on a loaded ring must expire packets")
	}
	if st.Delivered+st.Expired != st.Injected {
		t.Fatalf("accounting leak: %d delivered + %d expired != %d injected",
			st.Delivered, st.Expired, st.Injected)
	}
}

// TestExpiredFaultyDeadlineLosses: packets still in flight at the drain
// deadline count in Expired and dropped ones in Lost, never both, so
// Injected = Delivered + Lost + Expired as on every run. On a partitioned
// ring a cross-partition packet has no table hop and is dropped at once, so
// none of them waits for the deadline; the harsh ring, drained for only 5
// cycles, has both lost and expired packets.
func TestExpiredFaultyDeadlineLosses(t *testing.T) {
	g := mustBuild(t, networks.Ring{Nodes: 16}.Build)
	plan := (&FaultPlan{}).LinkDown(50, 0, 1, 0).LinkDown(50, 8, 9, 0)
	fs, err := runGraph(g, ImplicitConfig{InjectionRate: 0.02, WarmupCycles: 20,
		MeasureCycles: 600, DrainCycles: 200, Seed: 41},
		plan)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Lost == 0 || fs.Expired != 0 {
		t.Fatalf("cross-partition packets should be lost, not expire at the drain deadline: %+v", fs)
	}
	if fs.Delivered+fs.Lost+fs.Expired != fs.Injected {
		t.Fatalf("accounting leak: %+v", fs)
	}

	ring, cfg, harshPlan := harshRing(t)
	cfg.DrainCycles = 5
	if fs, err = runGraph(ring, cfg, harshPlan); err != nil {
		t.Fatal(err)
	}
	got := [4]int{fs.Injected, fs.Delivered, fs.Lost, fs.Expired}
	// Re-recorded when the harsh ring lost its 3-hop detour TTL and its
	// 10-cycle notification delay (was 1078, 469, 602, 7), and for the one
	// uniform draw (was 1045, 526, 518, 1).
	if want := [4]int{1047, 504, 537, 6}; got != want {
		t.Fatalf("harsh ring, 5-cycle drain: Injected, Delivered, Lost, Expired = %v, want %v",
			got, want)
	}
}

// TestTraceLifecyclesBalance runs a faulty scenario with an exhaustive
// tracer and validates the emitted Chrome trace JSON: it parses, every
// event carries the mandatory fields, every async track opened at injection
// is closed exactly once (delivery or drop), and the fault timeline
// carries the scheduled fault events.
func TestTraceLifecyclesBalance(t *testing.T) {
	g := mustBuild(t, networks.Torus2D{Rows: 6, Cols: 6}.Build)
	plan := (&FaultPlan{}).LinkDown(100, 0, 1, 500).LinkDown(150, 6, 7, 0)
	trace := &obs.Trace{}
	fs, err := runGraph(g, ImplicitConfig{InjectionRate: 0.03, WarmupCycles: 50,
		MeasureCycles: 800, Seed: 61, Probe: trace},
		plan)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	faultEvents := 0
	for _, ev := range parsed.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok {
			t.Fatalf("event without ph: %v", ev)
		}
		if ph != "M" {
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("event without ts: %v", ev)
			}
		}
		counts[ph]++
		if ev["cat"] == "fault" {
			faultEvents++
		}
	}
	if counts["b"] == 0 {
		t.Fatal("no packet lifecycles traced")
	}
	if counts["b"] != counts["e"] {
		t.Fatalf("unbalanced lifecycles: %d begins, %d ends (delivered %d, lost %d)",
			counts["b"], counts["e"], fs.Delivered, fs.Lost)
	}
	// 2 faults struck, 1 repaired: 3 timeline instants.
	if faultEvents != 3 {
		t.Fatalf("fault timeline has %d events, want 3", faultEvents)
	}
	if counts["X"] == 0 {
		t.Fatal("no link-occupancy slices traced")
	}
}

// TestRerouteProbeMatchesRouterReroutes cross-checks Router.Reroutes
// against the probe stream: a built graph's router rebuilds a
// destination's table on the first routing decision toward it (an Enqueue,
// or a no-route Drop) after a fault event moved the fault set's epoch, so
// replaying the stream with one epoch per Fault event must count the same
// rebuilds.
func TestRerouteProbeMatchesRouterReroutes(t *testing.T) {
	g := mustBuild(t, networks.Hypercube{Dim: 5}.Build)
	plan := (&FaultPlan{}).LinkDown(200, 0, 1, 0).LinkDown(300, 2, 18, 0).NodeDown(400, 9, 600)
	rec := &rerouteRecorder{dst: map[int64]int64{}, builtAt: map[int64]int{}}
	fs, err := runGraph(g, ImplicitConfig{InjectionRate: 0.03, WarmupCycles: 100,
		MeasureCycles: 1200, Seed: 83, Probe: rec}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Router.Reroutes == 0 || uint64(rec.rebuilds) != fs.Router.Reroutes {
		t.Fatalf("probe stream implies %d table rebuilds, Router.Reroutes = %d", rec.rebuilds, fs.Router.Reroutes)
	}
}

// rerouteRecorder counts the table rebuilds a probe stream implies: the
// first routing decision toward a destination after a Fault event, for a
// destination whose table was built before it.
type rerouteRecorder struct {
	obs.NopProbe
	epoch    int
	dst      map[int64]int64 // packet id -> destination
	builtAt  map[int64]int   // destination -> epoch its table was built at
	rebuilds int
}

func (r *rerouteRecorder) Inject(_ int, id int64, _, dst int64, _ bool) { r.dst[id] = dst }
func (r *rerouteRecorder) Fault(int, int64, int64, bool, bool)          { r.epoch++ }
func (r *rerouteRecorder) Enqueue(_ int, id int64, _, _ int64, _ int)   { r.routed(id) }
func (r *rerouteRecorder) Drop(_ int, id int64, _ int64, reason obs.DropReason) {
	if reason == obs.DropNoRoute {
		r.routed(id)
	}
}

func (r *rerouteRecorder) routed(id int64) {
	d := r.dst[id]
	if e, ok := r.builtAt[d]; ok && e != r.epoch {
		r.rebuilds++
	}
	r.builtAt[d] = r.epoch
}

// lifeProbe records every packet's lifecycle by id: its endpoints, how
// many Inject, Deliver and Drop events it got, and where and why it was
// dropped. Events for an id that was never injected count in stray.
type lifeProbe struct {
	obs.NopProbe
	pkts  map[int64]*pktLife
	stray int
}

type pktLife struct {
	src, dst           int64
	measured           bool
	injects, terminals int
	dropped            bool
	dropAt             int64
	reason             obs.DropReason
}

func newLifeProbe() *lifeProbe { return &lifeProbe{pkts: map[int64]*pktLife{}} }

func (p *lifeProbe) Inject(_ int, id int64, src, dst int64, measured bool) {
	l := p.pkts[id]
	if l == nil {
		l = &pktLife{src: src, dst: dst, measured: measured}
		p.pkts[id] = l
	}
	l.injects++
}

func (p *lifeProbe) end(id int64) *pktLife {
	l := p.pkts[id]
	if l == nil {
		p.stray++
		return &pktLife{}
	}
	l.terminals++
	return l
}

func (p *lifeProbe) Deliver(_ int, id int64, _ int64, _ int, _ bool) { p.end(id) }

func (p *lifeProbe) Drop(_ int, id int64, at int64, reason obs.DropReason) {
	l := p.end(id)
	l.dropped, l.dropAt, l.reason = true, at, reason
}

// TestOneTerminalEventPerPacket checks the one loss rule on every run
// kind: a fault-free and a degraded built-graph run (the harsh ring,
// drained for only 5 cycles so that packets expire too), an implicit
// RunImplicitFaulty, and a 2-shard RunSharded. Every injected id gets exactly one Inject and at
// most one Deliver or Drop; the measured ids that got neither are exactly
// Expired, and the measured Delivers and Drops are Delivered and Lost.
func TestOneTerminalEventPerPacket(t *testing.T) {
	runs := map[string]func(*lifeProbe) (ImplicitFaultStats, error){
		"run/hsn2q3": func(pb *lifeProbe) (ImplicitFaultStats, error) {
			g, _, cfg := goldenHSNConfig(t)
			cfg.Probe = pb
			return runGraph(g, cfg, nil)
		},
		"runfaulty/ring16/harsh/drain5": func(pb *lifeProbe) (ImplicitFaultStats, error) {
			g, cfg, plan := harshRing(t)
			cfg.DrainCycles, cfg.Probe = 5, pb
			return runGraph(g, cfg, plan)
		},
		"runimplicitfaulty/q6": func(pb *lifeProbe) (ImplicitFaultStats, error) {
			ht := topo.HypercubeTopo{Dim: 6}
			fs := topo.NewFaultSet()
			plan := (&FaultPlan{}).LinkDown(40, 0, 1, 0).NodeDown(60, 9, 150).
				NodeDown(70, 3, 0).LinkDown(70, 5, 7, 120)
			return RunImplicitFaulty(ImplicitConfig{Topo: ht, InjectionRate: 0.05,
				WarmupCycles: 30, MeasureCycles: 300, Seed: 5, Probe: pb,
				Router: topo.NewFaultAware(ht, topo.HypercubeRouter{Dim: 6}, fs)},
				ImplicitFaultConfig{Plan: plan, Faults: fs})
		},
		"runsharded/q6/faulty/shards2": func(pb *lifeProbe) (ImplicitFaultStats, error) {
			for _, sc := range shardScenarios(t) {
				if sc.name == "q6/faulty" {
					cfg := sc.cfg
					cfg.Seed, cfg.Shards, cfg.Probe = 3, 2, pb
					return RunSharded(cfg)
				}
			}
			t.Fatal("no q6/faulty sharded scenario")
			return ImplicitFaultStats{}, nil
		},
	}
	for name, run := range runs {
		life := newLifeProbe()
		st, err := run(life)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if life.stray != 0 {
			t.Errorf("%s: %d terminal events for ids never injected", name, life.stray)
		}
		var delivered, lost, pending int
		for id, p := range life.pkts {
			if p.injects != 1 || p.terminals > 1 {
				t.Errorf("%s: packet %d has %d Inject and %d terminal events", name, id, p.injects, p.terminals)
			}
			if !p.measured {
				continue
			}
			switch {
			case p.terminals == 0:
				pending++
			case p.dropped:
				lost++
			default:
				delivered++
			}
		}
		if got, want := [3]int{delivered, lost, pending}, [3]int{st.Delivered, st.Lost, st.Expired}; got != want {
			t.Errorf("%s: probe counts Delivered, Lost, Expired = %v, stats say %v", name, got, want)
		}
		if st.Lost+st.Expired == 0 && name != "run/hsn2q3" {
			t.Errorf("%s: a degraded case that loses nothing tests nothing: %+v", name, st)
		}
	}
}
