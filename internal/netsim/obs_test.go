package netsim

// Tests for the observability layer wired through Run and RunFaulty: the
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

	"repro/internal/metrics"
	"repro/internal/networks"
	"repro/internal/obs"
	"repro/internal/superip"
	"repro/internal/topo"
)

// goldenHSNConfig is the fixed run the bit-for-bit regression tests pin.
func goldenHSNConfig(t *testing.T) Config {
	t.Helper()
	net := superip.HSN(2, superip.NucleusHypercube(3))
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	p := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())
	return Config{Graph: g, Partition: &p, OffModulePeriod: 4,
		InjectionRate: 0.02, WarmupCycles: 200, MeasureCycles: 1500, Seed: 17}
}

// TestNilProbeGoldenParity pins Run and RunFaulty with a nil probe to the
// exact statistics the simulator produced before the observability layer
// existed (values captured from the pre-instrumentation build; the two
// runs that draw routing randomness were re-recorded once, see below, and
// all three a second time when the injection sampler moved to geometric
// gaps, which changes every run's RNG stream; the torus run, once
// adaptive, was re-recorded a third time when built graphs came to route
// only by BFS tables). Any drift — an extra RNG
// draw, a reordered event, a changed counter — fails here.
func TestNilProbeGoldenParity(t *testing.T) {
	st, err := Run(goldenHSNConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// Before the geometric sampler: 1901 injected, latency
	// 7.077327722251447, max 17.
	if st.Injected != 1949 || st.Delivered != 1949 || st.Expired != 0 ||
		st.AvgLatency != 7.071318624935865 || st.MaxLatency != 21 ||
		st.Throughput != 0.02030208333333333 {
		t.Fatalf("Run diverged from pre-instrumentation golden stats: %+v", st)
	}

	tg, err := networks.Torus2D{Rows: 8, Cols: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Run(Config{Graph: tg, InjectionRate: 0.05, WarmupCycles: 100,
		MeasureCycles: 1200, Seed: 29, Flits: 4, CutThrough: true})
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
	// the injection sampler reads a different stretch of the lane RNG).
	if st2.Injected != 3865 || st2.Delivered != 3865 ||
		st2.AvgLatency != 7.057697283311772 || st2.MaxLatency != 58 ||
		st2.Throughput != 0.05032552083333333 {
		t.Fatalf("cut-through torus Run diverged from golden stats: %+v", st2)
	}

	qg, err := networks.Hypercube{Dim: 5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := (&FaultPlan{}).LinkDown(200, 0, 1, 800).LinkDown(350, 2, 18, 0).NodeDown(500, 7, 1100)
	fs, err := RunFaulty(Config{Graph: qg, InjectionRate: 0.05, WarmupCycles: 100,
		MeasureCycles: 1500, Seed: 31}, FaultConfig{Plan: plan, NotifyDelay: 16})
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
	// now the one lost, dropped at node 7 as it died). The misroute and
	// reroute counters did not move.
	if fs.Injected != 2342 || fs.Delivered != 2341 || fs.Expired != 0 ||
		fs.AvgLatency != 2.6437419906023067 || fs.MaxLatency != 16 ||
		fs.Throughput != 0.04877083333333333 || fs.Lost != 1 ||
		fs.MisroutedHops != 26 || fs.RerouteEvents != 158 ||
		fs.MeanTimeToReroute != 37.70253164556962 ||
		fs.FaultsInjected != 3 || fs.FaultsRepaired != 2 {
		t.Fatalf("RunFaulty diverged from pre-instrumentation golden stats: %+v", fs)
	}
}

// TestProbeDoesNotPerturbRun attaches the full collector stack and checks
// that every statistic the simulator computes itself is identical to the
// nil-probe run — probes watch, they never steer.
func TestProbeDoesNotPerturbRun(t *testing.T) {
	cfg := goldenHSNConfig(t)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hist := &obs.LatencyHist{}
	part := cfg.Partition
	ts := obs.NewTimeSeries(func(u int64) int64 { return int64(part.Of[u]) }, 50)
	trace := &obs.Trace{SampleEvery: 4}
	cfg.Probe = obs.Multi(hist, ts, trace, &obs.Progress{Every: 500, W: io.Discard})
	probed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if probed.Injected != base.Injected || probed.Delivered != base.Delivered ||
		probed.Expired != base.Expired || probed.AvgLatency != base.AvgLatency ||
		probed.MaxLatency != base.MaxLatency || probed.Throughput != base.Throughput {
		t.Fatalf("probes perturbed the run:\nnil   %+v\nprobe %+v", base, probed)
	}
	// The histogram is the exact measured-latency population: its mean and
	// count must agree with the simulator's own accounting, and the
	// surfaced quantiles must be ordered and bounded by the max.
	if hist.Count() != int64(base.Delivered) {
		t.Fatalf("histogram saw %d deliveries, simulator %d", hist.Count(), base.Delivered)
	}
	if diff := hist.Mean() - base.AvgLatency; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("histogram mean %v != AvgLatency %v", hist.Mean(), base.AvgLatency)
	}
	if _, _, _, max := hist.Summary(); max != base.MaxLatency {
		t.Fatalf("histogram max %d != MaxLatency %d", max, base.MaxLatency)
	}
	if probed.P50Latency <= 0 || probed.P50Latency > probed.P95Latency ||
		probed.P95Latency > probed.P99Latency ||
		probed.P99Latency > float64(probed.MaxLatency) {
		t.Fatalf("quantiles not surfaced or out of order: p50=%v p95=%v p99=%v max=%d",
			probed.P50Latency, probed.P95Latency, probed.P99Latency, probed.MaxLatency)
	}
	if trace.Len() == 0 {
		t.Fatal("sampled tracer recorded nothing")
	}
}

// TestProbeDoesNotPerturbRunFaulty is the degraded-mode counterpart: the
// full collector stack on a faulty run must leave every FaultStats field
// untouched.
func TestProbeDoesNotPerturbRunFaulty(t *testing.T) {
	g := mustBuild(t, networks.Hypercube{Dim: 5}.Build)
	plan := (&FaultPlan{}).LinkDown(200, 0, 1, 800).LinkDown(350, 2, 18, 0).NodeDown(500, 7, 1100)
	cfg := Config{Graph: g, InjectionRate: 0.05, WarmupCycles: 100,
		MeasureCycles: 1500, Seed: 31}
	fc := FaultConfig{Plan: plan, NotifyDelay: 16}
	base, err := RunFaulty(cfg, fc)
	if err != nil {
		t.Fatal(err)
	}
	hist := &obs.LatencyHist{}
	trace := &obs.Trace{}
	cfg.Probe = obs.Multi(hist, obs.NewTimeSeries(nil, 100), trace)
	probed, err := RunFaulty(cfg, fc)
	if err != nil {
		t.Fatal(err)
	}
	probed.P50Latency, probed.P95Latency, probed.P99Latency = 0, 0, 0
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
	st, err := Run(Config{Graph: g, InjectionRate: 0.05, WarmupCycles: 0,
		MeasureCycles: 400, Seed: 9, Probe: obs.Multi(ts, rec)})
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
	st, err := Run(Config{Graph: g, InjectionRate: 0.2, WarmupCycles: 0,
		MeasureCycles: 200, DrainCycles: 1, Seed: 3, Flits: 8})
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
// ring a cross-partition packet is dropped once its detour TTL runs out, so
// none of them waits for the deadline; the harsh ring, drained for only 5
// cycles, has both lost and expired packets.
func TestExpiredFaultyDeadlineLosses(t *testing.T) {
	g := mustBuild(t, networks.Ring{Nodes: 16}.Build)
	plan := (&FaultPlan{}).LinkDown(50, 0, 1, 0).LinkDown(50, 8, 9, 0)
	fs, err := RunFaulty(Config{Graph: g, InjectionRate: 0.02, WarmupCycles: 20,
		MeasureCycles: 600, DrainCycles: 200, Seed: 41},
		FaultConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Lost == 0 || fs.Expired != 0 {
		t.Fatalf("cross-partition packets should be lost, not expire at the drain deadline: %+v", fs)
	}
	if fs.Delivered+fs.Lost+fs.Expired != fs.Injected {
		t.Fatalf("accounting leak: %+v", fs)
	}

	cfg, fc := harshRing(t)
	cfg.DrainCycles = 5
	if fs, err = RunFaulty(cfg, fc); err != nil {
		t.Fatal(err)
	}
	got := [4]int{fs.Injected, fs.Delivered, fs.Lost, fs.Expired}
	if want := [4]int{1078, 469, 602, 7}; got != want {
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
	fs, err := RunFaulty(Config{Graph: g, InjectionRate: 0.03, WarmupCycles: 50,
		MeasureCycles: 800, Seed: 61, Probe: trace},
		FaultConfig{Plan: plan, NotifyDelay: 100})
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

// TestRerouteProbeMatchesRerouteEvents cross-checks the Reroute hook
// against the simulator's own RerouteEvents counter.
func TestRerouteProbeMatchesRerouteEvents(t *testing.T) {
	g := mustBuild(t, networks.Hypercube{Dim: 5}.Build)
	plan := (&FaultPlan{}).LinkDown(200, 0, 1, 0).LinkDown(300, 2, 18, 0)
	rec := &rerouteRecorder{}
	fs, err := RunFaulty(Config{Graph: g, InjectionRate: 0.03, WarmupCycles: 100,
		MeasureCycles: 1200, Seed: 83, Probe: rec},
		FaultConfig{Plan: plan, NotifyDelay: 10})
	if err != nil {
		t.Fatal(err)
	}
	if fs.RerouteEvents == 0 || rec.events != fs.RerouteEvents {
		t.Fatalf("Reroute hook fired %d times, RerouteEvents = %d", rec.events, fs.RerouteEvents)
	}
	if rec.lagSum != int64(fs.MeanTimeToReroute*float64(fs.RerouteEvents)+0.5) {
		t.Fatalf("hook lag sum %d inconsistent with MeanTimeToReroute %v over %d events",
			rec.lagSum, fs.MeanTimeToReroute, fs.RerouteEvents)
	}
}

type rerouteRecorder struct {
	obs.NopProbe
	events int
	lagSum int64
}

func (r *rerouteRecorder) Reroute(_ int, _ int64, lag int) {
	r.events++
	r.lagSum += int64(lag)
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
// kind: a fault-free Run, a degraded RunFaulty (the harsh ring, drained
// for only 5 cycles so that packets expire too), RunImplicitFaulty, and a
// 2-shard RunSharded. Every injected id gets exactly one Inject and at
// most one Deliver or Drop; the measured ids that got neither are exactly
// Expired, and the measured Delivers and Drops are Delivered and Lost.
func TestOneTerminalEventPerPacket(t *testing.T) {
	runs := map[string]func(*lifeProbe) (FaultStats, error){
		"run/hsn2q3": func(pb *lifeProbe) (FaultStats, error) {
			cfg := goldenHSNConfig(t)
			cfg.Probe = pb
			st, err := Run(cfg)
			return FaultStats{Stats: st}, err
		},
		"runfaulty/ring16/harsh/drain5": func(pb *lifeProbe) (FaultStats, error) {
			cfg, fc := harshRing(t)
			cfg.DrainCycles, cfg.Probe = 5, pb
			return RunFaulty(cfg, fc)
		},
		"runimplicitfaulty/q6": func(pb *lifeProbe) (FaultStats, error) {
			ht := topo.HypercubeTopo{Dim: 6}
			fs := topo.NewFaultSet()
			plan := (&FaultPlan{}).LinkDown(40, 0, 1, 0).NodeDown(60, 9, 150).
				NodeDown(70, 3, 0).LinkDown(70, 5, 7, 120)
			st, err := RunImplicitFaulty(ImplicitConfig{Topo: ht, InjectionRate: 0.05,
				WarmupCycles: 30, MeasureCycles: 300, Seed: 5, Probe: pb,
				Router: topo.NewFaultAware(ht, topo.HypercubeRouter{Dim: 6}, fs)},
				ImplicitFaultConfig{Plan: plan, Faults: fs})
			return st.FaultStats, err
		},
		"runsharded/q6/faulty/shards2": func(pb *lifeProbe) (FaultStats, error) {
			for _, sc := range shardScenarios(t) {
				if sc.name == "q6/faulty" {
					cfg := sc.cfg
					cfg.Seed, cfg.Shards, cfg.Probe = 3, 2, pb
					st, err := RunSharded(cfg)
					return st.FaultStats, err
				}
			}
			t.Fatal("no q6/faulty sharded scenario")
			return FaultStats{}, nil
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
