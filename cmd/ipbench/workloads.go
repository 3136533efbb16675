package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/superip"
	"repro/internal/topo"
)

// A workload draws its inputs from a seed and returns the round that runs
// over them. Every round does the same fixed amount of work on the same
// inputs, so rounds repeat their outputs exactly and their timings are
// samples of one distribution.
type workload interface {
	prepare(seed int64) (roundFunc, error)
	profile() profile
}

// profile names a workload's own values in the detail line: its throughput
// and the measured quality of its outputs, if any.
type profile struct {
	rate, rateUnit       string
	quality, qualityUnit string
	workers              int // goroutines the timed calls keep busy
}

// roundFunc runs one round. A nil origin runs it untraced; otherwise the
// round wraps the layer interfaces it calls and fills outcome.layers, with
// span timestamps taken from origin.
type roundFunc func(origin *time.Time) (outcome, error)

// outcome is what one round reports. An error returned beside it means an
// output failed its check or a call failed.
//
// attempted counts routes, injected measured packets, or builds, and failed
// those that failed: route errors, packets lost or expired, or a build that
// returned an error or failed its check.
type outcome struct {
	setup             time.Duration // constructing the round's specification, topology and router
	work              time.Duration // the timed calls
	host              hostSpeed     // the probes' times around the round
	peakMem           uint64        // the runtime's peak memory footprint during the timed calls
	ops               int64         // routes, delivered measured packets, or built nodes
	attempted, failed int64
	res               resources // runtime counters over the timed calls
	digest            string    // fingerprint of the exact outputs
	quality           float64   // mean route hops or mean packet latency in cycles
	routeNs           []int64   // route workload: the duration of every Path call
	layers            map[string]float64
	spans             []span
}

// workloads is the benchmark's workload set, keyed by the names BENCHMARK.json
// uses. The sizes make one round take 0.15 to 0.7 s on a 2-vCPU host, so a
// run collects tens of rounds.
var workloads = map[string]workload{
	"route-symhsn45": routeWorkload{L: 4, NucleusDim: 5, Pairs: 4000},
	"build-symhsn35": buildWorkload{L: 3, NucleusDim: 5, Workers: 2},
	"sim-hsn25-uniform": simWorkload{
		L: 2, NucleusDim: 5, Rate: 0.02, OffModulePeriod: 4, Warmup: 100, Measure: 400,
	},
	"sim-q14-ecube": simWorkload{
		CubeDim: 14, SubcubeLow: 4, Rate: 0.02, OffModulePeriod: 2, Warmup: 50, Measure: 100,
	},
	"sim-hsn25-faults-sharded": shardedWorkload{
		L: 2, NucleusDim: 5, Lanes: 8, Shards: 2, Rate: 0.02, OffModulePeriod: 4,
		Warmup: 100, Measure: 1000, MTBF: 100, RepairTime: 300, MaxFaults: 200,
	},
}

// resources are the runtime counters read around the timed calls.
type resources struct {
	mallocs, allocBytes      uint64
	gcCPU, idleCPU, totalCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readResources() resources {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return resources{
		mallocs:    s[0].Value.Uint64() + s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		idleCPU:    s[4].Value.Float64(),
		totalCPU:   s[5].Value.Float64(),
	}
}

func (r resources) sub(base resources) resources {
	return resources{
		mallocs:    r.mallocs - base.mallocs,
		allocBytes: r.allocBytes - base.allocBytes,
		gcCPU:      r.gcCPU - base.gcCPU,
		idleCPU:    r.idleCPU - base.idleCPU,
		totalCPU:   r.totalCPU - base.totalCPU,
	}
}

func (r resources) add(o resources) resources {
	return resources{
		mallocs:    r.mallocs + o.mallocs,
		allocBytes: r.allocBytes + o.allocBytes,
		gcCPU:      r.gcCPU + o.gcCPU,
		idleCPU:    r.idleCPU + o.idleCPU,
		totalCPU:   r.totalCPU + o.totalCPU,
	}
}

// meter times one stretch of work and counts the allocations in it and
// its peak memory footprint.
type meter struct {
	res   resources
	mem   *memSampler
	start time.Time
}

func startMeter() meter {
	m := meter{res: readResources(), mem: startSampler()}
	m.start = time.Now()
	return m
}

func (m meter) stop(o *outcome) {
	o.work = time.Since(m.start)
	o.peakMem = m.mem.end()
	o.res = readResources().sub(m.res)
}

func digestOf(v any) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(h[:8])
}

// ---------------------------------------------------------------------------
// route: closed loop, one caller, topo.Algebraic.Path on seeded pairs.

type routeWorkload struct {
	L, NucleusDim int // sym-HSN(L;Q_NucleusDim)
	Pairs         int // routes per round
}

func (routeWorkload) profile() profile {
	return profile{"routes_per_s", "routes/s", "route_hops_mean", "hops", 1}
}

func (w routeWorkload) net() *superip.Net {
	return superip.HSN(w.L, superip.NucleusHypercube(w.NucleusDim)).SymmetricVariant()
}

func (w routeWorkload) prepare(seed int64) (roundFunc, error) {
	net := w.net()
	n := int64(net.N())
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int64, w.Pairs)
	for i := range pairs {
		src := rng.Int63n(n)
		dst := rng.Int63n(n - 1)
		if dst >= src {
			dst++
		}
		pairs[i] = [2]int64{src, dst}
	}
	chk, err := topo.NewImplicit(net.Super())
	if err != nil {
		return nil, err
	}
	bounds := routeBounds{maxHops: net.Diameter(), maxOffModule: net.IDiameter()}
	paths := make([][]int64, w.Pairs)
	return func(origin *time.Time) (outcome, error) {
		var o outcome
		var tr *tracer
		if origin != nil {
			tr = newTracer(0, *origin)
		}
		t0 := time.Now()
		a, err := newAlgebraic(w.net().Super(), tr)
		if err != nil {
			return o, err
		}
		var r topo.PathRouter = a
		if tr != nil {
			r = tracedPath{a, tr}
		}
		o.setup = time.Since(t0)

		o.routeNs = make([]int64, len(pairs))
		m := startMeter()
		for i, pr := range pairs {
			c := time.Now()
			p, err := r.Path(pr[0], pr[1])
			o.routeNs[i] = int64(time.Since(c))
			if err != nil {
				o.failed++
			}
			paths[i] = p
		}
		m.stop(&o)

		o.ops = int64(len(pairs))
		o.attempted = o.ops
		h := sha256.New()
		var buf []byte
		var hops int64
		var firstErr error
		for i, p := range paths {
			if err := bounds.check(chk, pairs[i][0], pairs[i][1], p, i%64 == 0); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			hops += int64(len(p) - 1)
			buf = buf[:0]
			for _, v := range p {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
			h.Write(buf)
		}
		o.digest = hex.EncodeToString(h.Sum(nil)[:8])
		o.quality = float64(hops) / float64(len(pairs))
		if tr != nil {
			o.layers = stackLayers(tr, o.work, o.ops, false)
			o.layers["core.router.hops_per_route"] = o.quality
			o.spans = tr.spans
		}
		return o, firstErr
	}, nil
}

// routeBounds are the Theorem 4.3 guarantees every route is checked against.
type routeBounds struct {
	maxHops      int // l*D_G + t_S: the diameter
	maxOffModule int // t_S: the inter-cluster diameter
}

// check verifies one route: its endpoints, its length against the diameter
// and its off-module hops against the inter-cluster diameter, and, when walk
// is set, that every hop follows an edge of the implicit topology.
func (b routeBounds) check(imp *topo.Implicit, src, dst int64, p []int64, walk bool) error {
	if len(p) < 2 || p[0] != src || p[len(p)-1] != dst {
		return fmt.Errorf("route %d -> %d: endpoints of %v", src, dst, p)
	}
	if hops := len(p) - 1; hops > b.maxHops {
		return fmt.Errorf("route %d -> %d: %d hops exceed the diameter %d", src, dst, hops, b.maxHops)
	}
	off := 0
	var nbrs []int64
	for i := 0; i+1 < len(p); i++ {
		if imp.Module(p[i]) != imp.Module(p[i+1]) {
			off++
		}
		if walk {
			nbrs = imp.Neighbors(p[i], nbrs)
			if !contains(nbrs, p[i+1]) {
				return fmt.Errorf("route %d -> %d: hop %d -> %d is not an edge", src, dst, p[i], p[i+1])
			}
		}
	}
	if off > b.maxOffModule {
		return fmt.Errorf("route %d -> %d: %d off-module hops exceed the I-diameter %d", src, dst, off, b.maxOffModule)
	}
	return nil
}

func contains(s []int64, v int64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// build: the ipgen build of a symmetric super-IP network.

type buildWorkload struct {
	L, NucleusDim int // sym-HSN(L;Q_NucleusDim)
	Workers       int
}

func (w buildWorkload) profile() profile {
	return profile{rate: "build_nodes_per_s", rateUnit: "nodes/s", workers: w.Workers}
}

func (w buildWorkload) prepare(int64) (roundFunc, error) {
	return func(origin *time.Time) (outcome, error) {
		var o outcome
		t0 := time.Now()
		net := superip.HSN(w.L, superip.NucleusHypercube(w.NucleusDim)).SymmetricVariant()
		s := net.Super()
		want, err := s.ExpectedSize()
		if err != nil {
			return o, err
		}
		opt := core.BuildOptions{Workers: w.Workers}
		var levels []core.LevelStats
		if origin != nil {
			opt.Observe = func(ls core.LevelStats) { levels = append(levels, ls) }
		}
		o.setup = time.Since(t0)

		m := startMeter()
		g, _, err := s.Build(opt)
		m.stop(&o)
		o.attempted = 1
		if err != nil {
			o.failed = 1
			return o, err
		}
		o.ops = int64(g.N())
		if g.N() != want || g.M() != want*net.Degree() {
			o.failed = 1
			return o, fmt.Errorf("%s: built %d nodes and %d arcs, want %d and %d",
				net.Name(), g.N(), g.M(), want, want*net.Degree())
		}
		h := sha256.New()
		var buf []byte
		for u := 0; u < g.N(); u++ {
			buf = buf[:0]
			for _, v := range g.Neighbors(int32(u)) {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
			h.Write(buf)
		}
		o.digest = hex.EncodeToString(h.Sum(nil)[:8])
		if origin != nil {
			o.layers = buildLayers(levels, o.work)
		}
		return o, nil
	}, nil
}

// ---------------------------------------------------------------------------
// sim: netsim.RunImplicit, uniform traffic, open loop in simulated time.

type simWorkload struct {
	// L and NucleusDim select HSN(L;Q_NucleusDim) with topo.Algebraic
	// routing and nucleus-per-module packing. CubeDim > 0 selects Q_CubeDim
	// with e-cube routing and 2^SubcubeLow-node subcube modules instead.
	L, NucleusDim       int
	CubeDim, SubcubeLow int

	Rate            float64
	OffModulePeriod int
	Warmup, Measure int
}

func (simWorkload) profile() profile {
	return profile{"sim_pkts_per_s", "pkts/s", "sim_latency_cycles", "cycles", 1}
}

func (w simWorkload) prepare(seed int64) (roundFunc, error) {
	simSeed := rand.New(rand.NewSource(seed)).Int63()
	return func(origin *time.Time) (outcome, error) {
		var o outcome
		var tr *tracer
		if origin != nil {
			tr = newTracer(0, *origin)
		}
		t0 := time.Now()
		cfg := netsim.ImplicitConfig{
			InjectionRate: w.Rate, WarmupCycles: w.Warmup, MeasureCycles: w.Measure,
			Seed: simSeed, OffModulePeriod: w.OffModulePeriod,
		}
		if w.CubeDim > 0 {
			cfg.Topo = topo.HypercubeTopo{Dim: w.CubeDim}
			cfg.Router = topo.HypercubeRouter{Dim: w.CubeDim}
			cfg.ModuleOf = topo.SubcubeSpace{Dim: w.CubeDim, Low: w.SubcubeLow}.Module
		} else {
			s := superip.HSN(w.L, superip.NucleusHypercube(w.NucleusDim)).Super()
			imp, err := topo.NewImplicit(s)
			if err != nil {
				return o, err
			}
			a, err := newAlgebraic(s, tr)
			if err != nil {
				return o, err
			}
			cfg.Topo, cfg.ModuleOf, cfg.Router = imp, imp.Module, a
		}
		if tr != nil {
			cfg.Topo = tracedTopo{cfg.Topo, tr}
			cfg.Router = tracedRouter{cfg.Router, tr}
		}
		o.setup = time.Since(t0)

		m := startMeter()
		st, err := netsim.RunImplicit(cfg)
		m.stop(&o)
		if err != nil {
			return o, err
		}
		o.ops = int64(st.Delivered)
		o.attempted, o.failed = int64(st.Injected), int64(st.Expired)
		o.digest = digestOf(st)
		o.quality = st.AvgLatency
		if tr != nil {
			o.layers = stackLayers(tr, o.work, o.ops, true)
			addRouterStats(o.layers, st.Router, o.ops)
			o.spans = tr.spans
		}
		if st.Injected != st.Delivered+st.Expired || st.Expired != 0 {
			return o, fmt.Errorf("packet conservation: injected %d, delivered %d, expired %d",
				st.Injected, st.Delivered, st.Expired)
		}
		return o, nil
	}, nil
}

// newAlgebraic builds the Theorem 4.1/4.3 router of s. With a tracer, its
// codec is a separate implicit topology wrapped to time the ranker calls;
// topo.NewAlgebraic builds the same router around an unwrapped one.
func newAlgebraic(s *core.SuperIP, tr *tracer) (*topo.Algebraic, error) {
	if tr == nil {
		return topo.NewAlgebraic(s)
	}
	imp, err := topo.NewImplicit(s)
	if err != nil {
		return nil, err
	}
	return topo.NewAlgebraicWith(s, tracedCodec{imp, tr})
}

// ---------------------------------------------------------------------------
// sharded: netsim.RunSharded under a random fault plan.

type shardedWorkload struct {
	L, NucleusDim   int // HSN(L;Q_NucleusDim), one Implicit + FaultAware(Algebraic) + FaultSet per lane
	Lanes, Shards   int
	Rate            float64
	OffModulePeriod int
	Warmup, Measure int
	// The fault process netsim.RandomFaults draws over the measured window.
	MTBF                  float64
	RepairTime, MaxFaults int
}

func (w shardedWorkload) profile() profile {
	return profile{"sim_pkts_per_s", "pkts/s", "sim_latency_cycles", "cycles", w.Shards}
}

func (w shardedWorkload) spec() *core.SuperIP {
	return superip.HSN(w.L, superip.NucleusHypercube(w.NucleusDim)).Super()
}

func (w shardedWorkload) prepare(seed int64) (roundFunc, error) {
	rng := rand.New(rand.NewSource(seed))
	simSeed, planSeed := rng.Int63(), rng.Int63()
	imp, err := topo.NewImplicit(w.spec())
	if err != nil {
		return nil, err
	}
	plan, err := netsim.RandomFaults{
		MTBF: w.MTBF, RepairTime: w.RepairTime, MaxFaults: w.MaxFaults, Seed: planSeed,
		Start: w.Warmup, Horizon: w.Warmup + w.Measure,
	}.PlanTopo(imp)
	if err != nil {
		return nil, err
	}
	return func(origin *time.Time) (outcome, error) {
		var o outcome
		var tracers []*tracer
		if origin != nil {
			tracers = w.tracers(*origin)
		}
		t0 := time.Now()
		cfg, err := w.config(simSeed, plan, w.Shards, tracers)
		if err != nil {
			return o, err
		}
		o.setup = time.Since(t0)

		m := startMeter()
		st, err := netsim.RunSharded(cfg)
		m.stop(&o)
		if err != nil {
			return o, err
		}
		if err := conserved(st); err != nil {
			return o, err
		}
		o.ops = int64(st.Delivered)
		o.attempted, o.failed = int64(st.Injected), int64(st.Lost+st.Expired)
		o.digest = digestOf(st)
		o.quality = st.AvgLatency
		if origin != nil {
			o.layers, o.spans, err = w.traceLayers(*origin, simSeed, plan, st, tracers)
		}
		return o, err
	}, nil
}

func (w shardedWorkload) tracers(origin time.Time) []*tracer {
	ts := make([]*tracer, w.Lanes)
	for i := range ts {
		ts[i] = newTracer(i, origin)
	}
	return ts
}

// config builds a sharded run whose lanes are constructed up front, so that
// set-up is timed apart from the run. With tracers non-nil, lane i is traced
// by tracers[i].
func (w shardedWorkload) config(simSeed int64, plan *netsim.FaultPlan, shards int, tracers []*tracer) (netsim.ShardedConfig, error) {
	type lane struct {
		t  netsim.Topology
		r  netsim.Router
		fs netsim.FaultSink
	}
	s := w.spec()
	space, err := topo.NewImplicit(s)
	if err != nil {
		return netsim.ShardedConfig{}, err
	}
	lanes := make([]lane, w.Lanes)
	for i := range lanes {
		var tr *tracer
		if tracers != nil {
			tr = tracers[i]
		}
		t, r, fs, err := faultAwareLane(s, tr)
		if err != nil {
			return netsim.ShardedConfig{}, err
		}
		lanes[i] = lane{t, r, fs}
	}
	next := 0
	return netsim.ShardedConfig{
		NewLane: func() (netsim.Topology, netsim.Router, netsim.FaultSink, error) {
			if next == len(lanes) {
				return nil, nil, nil, fmt.Errorf("more than %d lanes requested", len(lanes))
			}
			ln := lanes[next]
			next++
			return ln.t, ln.r, ln.fs, nil
		},
		Space:         space,
		InjectionRate: w.Rate, WarmupCycles: w.Warmup, MeasureCycles: w.Measure,
		Seed: simSeed, OffModulePeriod: w.OffModulePeriod,
		Lanes: w.Lanes, Shards: shards, Plan: plan,
	}, nil
}

// faultAwareLane builds one lane's private oracles: an implicit topology, a
// fault-aware algebraic router over it, and the fault set they share. With
// a tracer, the topology, the inner route computation, the ranker and the
// router the engine calls are all wrapped.
func faultAwareLane(s *core.SuperIP, tr *tracer) (netsim.Topology, netsim.Router, *topo.FaultSet, error) {
	imp, err := topo.NewImplicit(s)
	if err != nil {
		return nil, nil, nil, err
	}
	a, err := newAlgebraic(s, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	fs := topo.NewFaultSet()
	if tr == nil {
		return imp, topo.NewFaultAware(imp, a, fs), fs, nil
	}
	t := tracedTopo{imp, tr}
	return t, tracedRouter{topo.NewFaultAware(t, tracedPath{a, tr}, fs), tr}, fs, nil
}

// conserved checks packet conservation under faults: every measured packet
// is delivered, lost or still in flight at the drain deadline.
func conserved(st netsim.ImplicitFaultStats) error {
	if st.Injected != st.Delivered+st.Lost+st.Expired {
		return fmt.Errorf("packet conservation: injected %d, delivered %d, lost %d, expired %d",
			st.Injected, st.Delivered, st.Lost, st.Expired)
	}
	return nil
}

// traceLayers completes a traced sharded round whose lanes were traced by
// lanes and whose stats were st. It reruns the round untraced at the
// workload's shard count and at Shards 1 (the speed-up), traced at Shards 1
// (layer attribution on one goroutine, so self times add up to its wall
// time), and runs the sequential RunImplicitFaulty reference on the same
// topology, plan and seed. Every sharded rerun must reproduce st exactly.
func (w shardedWorkload) traceLayers(origin time.Time, simSeed int64, plan *netsim.FaultPlan,
	st netsim.ImplicitFaultStats, lanes []*tracer) (map[string]float64, []span, error) {
	want := digestOf(st)
	run := func(shards int, tracers []*tracer) (time.Duration, error) {
		cfg, err := w.config(simSeed, plan, shards, tracers)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		got, err := netsim.RunSharded(cfg)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if g := digestOf(got); g != want {
			return 0, fmt.Errorf("sharded rerun at %d shards (traced %v) gave stats %s, want %s",
				shards, tracers != nil, g, want)
		}
		return d, nil
	}
	many, err := run(w.Shards, nil)
	if err != nil {
		return nil, nil, err
	}
	one, err := run(1, nil)
	if err != nil {
		return nil, nil, err
	}
	oneLanes := w.tracers(origin)
	oneTraced, err := run(1, oneLanes)
	if err != nil {
		return nil, nil, err
	}
	tr1 := merge(oneLanes)

	s := w.spec()
	ref := newTracer(0, origin)
	t, r, fs, err := faultAwareLane(s, ref)
	if err != nil {
		return nil, nil, err
	}
	space, err := topo.NewImplicit(s)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	seq, err := netsim.RunImplicitFaulty(netsim.ImplicitConfig{
		Topo: t, Router: r, ModuleOf: space.Module,
		InjectionRate: w.Rate, WarmupCycles: w.Warmup, MeasureCycles: w.Measure,
		Seed: simSeed, OffModulePeriod: w.OffModulePeriod,
	}, netsim.ImplicitFaultConfig{Plan: plan, Faults: fs})
	seqWall := time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	if err := conserved(seq); err != nil {
		return nil, nil, fmt.Errorf("sequential reference: %w", err)
	}

	layers := stackLayers(tr1, oneTraced, int64(st.Delivered), true)
	addRouterStats(layers, st.Router, int64(st.Delivered))
	layers["netsim.sharded.speedup_2v1"] = one.Seconds() / many.Seconds()
	layers["netsim.sharded.engine_cost_1v_seq"] = engineNsPerHop(tr1, oneTraced) / engineNsPerHop(ref, seqWall)
	var maxBusy, sumBusy float64
	for _, ln := range lanes {
		b := float64(ln.busyNs())
		sumBusy += b
		if b > maxBusy {
			maxBusy = b
		}
	}
	layers["netsim.sharded.lane_busy_imbalance"] = maxBusy / (sumBusy / float64(len(lanes)))
	return layers, merge(append(append(lanes, oneLanes...), ref)).spans, nil
}
