package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/networks"
	"repro/internal/obs"
	"repro/internal/superip"
	"repro/internal/topo"
)

// drain runs one sampler cycle and returns the owned indices it yielded.
func drain(s *injectionSampler) []int64 {
	var out []int64
	for s.start(); ; {
		i := s.next()
		if i < 0 {
			return out
		}
		out = append(out, i)
	}
}

// TestInjectionSamplerExactRegime pins the exact regime (n <= 2^16): one
// Bernoulli draw per owned node, in order, so rate 0 injects nothing, rate
// 1 injects from every node exactly once, the draw count is exactly n
// whatever the outcomes, and the empirical mean tracks n*rate.
func TestInjectionSamplerExactRegime(t *testing.T) {
	for _, n := range []int64{1, 100, 1 << 16} {
		cs := &countingSource{src: rand.NewSource(1)}
		s := &injectionSampler{n: n, rate: 0, rng: rand.New(cs)}
		if got := drain(s); len(got) != 0 {
			t.Fatalf("n=%d rate=0: %d injections", n, len(got))
		}
		if cs.draws != int(n) {
			t.Fatalf("n=%d rate=0: %d draws, want %d", n, cs.draws, n)
		}
		s.rate = 1
		got := drain(s)
		if int64(len(got)) != n {
			t.Fatalf("n=%d rate=1: %d injections, want %d", n, len(got), n)
		}
		for i, src := range got {
			if src != int64(i) {
				t.Fatalf("n=%d rate=1: injection %d from node %d, want %d", n, i, src, i)
			}
		}
		if cs.draws != 2*int(n) {
			t.Fatalf("n=%d: %d draws over two cycles, want %d", n, cs.draws, 2*n)
		}
	}
	// Empirical mean over repeated cycles.
	const n, rate, rounds = 4096, 0.01, 400
	s := &injectionSampler{n: n, rate: rate, rng: rand.New(rand.NewSource(1))}
	sum := 0
	for i := 0; i < rounds; i++ {
		sum += len(drain(s))
	}
	mean := float64(sum) / rounds
	want := float64(n) * rate
	if math.Abs(mean-want) > 0.15*want {
		t.Fatalf("exact regime mean %.2f, want ~%.2f", mean, want)
	}
}

// TestInjectionCountPoissonRegime pins the small-lambda approximation branch
// (n > 2^16, n*rate < 30): Knuth's multiplicative sampler, nonnegative, with
// the right mean.
func TestInjectionCountPoissonRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = int64(1<<16) + 1 // smallest n on the approximate side of the boundary
	rate := 29.0 / float64(n)  // lambda just under the 30 cutoff
	const rounds = 2000
	sum := int64(0)
	for i := 0; i < rounds; i++ {
		k := injectionCount(n, rate, rng)
		if k < 0 {
			t.Fatalf("negative count %d", k)
		}
		sum += k
	}
	mean := float64(sum) / rounds
	if math.Abs(mean-29.0) > 0.1*29.0 {
		t.Fatalf("poisson regime mean %.2f, want ~29", mean)
	}
	if k := injectionCount(n, 0, rng); k != 0 {
		t.Fatalf("lambda=0 must return 0, got %d", k)
	}
}

// TestInjectionCountNormalRegime pins the large-lambda branch (n > 2^16,
// n*rate >= 30): normal approximation, clamped into [0, n].
func TestInjectionCountNormalRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = int64(1 << 20)
	const rate = 0.001 // lambda = 1048.576
	lambda := float64(n) * rate
	const rounds = 2000
	sum := int64(0)
	for i := 0; i < rounds; i++ {
		k := injectionCount(n, rate, rng)
		if k < 0 || k > n {
			t.Fatalf("count %d outside [0,%d]", k, n)
		}
		sum += k
	}
	mean := float64(sum) / rounds
	if math.Abs(mean-lambda) > 0.05*lambda {
		t.Fatalf("normal regime mean %.2f, want ~%.2f", mean, lambda)
	}
	// The upper clamp: rate 1 makes the normal draw hug n; every sample
	// must stay within the population.
	for i := 0; i < 50; i++ {
		if k := injectionCount(n, 1, rng); k > n {
			t.Fatalf("clamp failed: %d > %d", k, n)
		}
	}
}

// countingSource wraps a rand.Source and counts the raw Int63 draws pulled
// through it — one per Float64, so it measures exactly how many per-node
// draws a sampler consumed.
type countingSource struct {
	src   rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }
func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

// TestInjectionSamplerRegimeBoundary checks the exact/approximate switch at
// n = 2^16: at the boundary the sampler walks every node (one draw each),
// one node beyond it the aggregate samplers run (O(lambda) or O(1) draws).
func TestInjectionSamplerRegimeBoundary(t *testing.T) {
	drawsUsed := func(n int64, rate float64) int {
		cs := &countingSource{src: rand.NewSource(42)}
		drain(&injectionSampler{n: n, rate: rate, rng: rand.New(cs)})
		return cs.draws
	}
	if got := drawsUsed(1<<16, 0.0001); got != 1<<16 {
		t.Fatalf("n=2^16 used %d draws, want %d (exact regime)", got, 1<<16)
	}
	if got := drawsUsed(1<<16+1, 0.0001); got >= 1<<10 {
		t.Fatalf("n=2^16+1 used %d draws, want O(lambda) (approximate regime)", got)
	}
}

// TestUniformDst64 checks the shifted-draw destination sampler: never the
// source, covers every other node, uniform to statistical tolerance.
func TestUniformDst64(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 8
	const src = 3
	counts := map[int64]int{}
	const rounds = 14000
	for i := 0; i < rounds; i++ {
		d := uniformDst64(src, n, rng)
		if d == src || d < 0 || d >= n {
			t.Fatalf("dst %d invalid for src %d, n %d", d, src, n)
		}
		counts[d]++
	}
	want := float64(rounds) / (n - 1)
	for d := int64(0); d < n; d++ {
		if d == src {
			continue
		}
		if c := counts[d]; math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("dst %d drawn %d times, want ~%.0f", d, c, want)
		}
	}
}

// injectCounter counts Inject events per (cycle, source).
type injectCounter struct {
	obs.NopProbe
	seen    map[[2]int64]int
	repeats int
}

func (c *injectCounter) Inject(cycle int, _ int64, src, _ int64, _ bool) {
	k := [2]int64{int64(cycle), src}
	c.seen[k]++
	if c.seen[k] > 1 {
		c.repeats++
	}
}

// TestInjectionOncePerCycle pins the exact regime end to end: while a lane
// owns at most 2^16 nodes, no node injects twice in one cycle, sequential
// or sharded.
func TestInjectionOncePerCycle(t *testing.T) {
	const dim = 10
	ht := topo.HypercubeTopo{Dim: dim}
	newCounter := func() *injectCounter { return &injectCounter{seen: map[[2]int64]int{}} }

	seq := newCounter()
	if _, err := RunImplicit(ImplicitConfig{Topo: ht, Router: topo.HypercubeRouter{Dim: dim},
		InjectionRate: 0.05, WarmupCycles: 50, MeasureCycles: 300, Seed: 1, Probe: seq}); err != nil {
		t.Fatal(err)
	}
	sharded := newCounter()
	if _, err := RunSharded(ShardedConfig{
		NewLane: func() (Topology, Router, FaultSink, error) {
			return ht, topo.HypercubeRouter{Dim: dim}, nil, nil
		},
		Space:         topo.SubcubeSpace{Dim: dim, Low: 4},
		InjectionRate: 0.05, WarmupCycles: 50, MeasureCycles: 300, Seed: 1,
		OffModulePeriod: 2, Lanes: 4, Probe: sharded}); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*injectCounter{"RunImplicit": seq, "RunSharded/4 lanes": sharded} {
		if len(c.seen) == 0 {
			t.Fatalf("%s: no injections", name)
		}
		if c.repeats != 0 {
			t.Errorf("%s: %d (cycle, node) pairs injected more than once", name, c.repeats)
		}
	}
}

// recyclingPlan schedules a link fault every 5 cycles from cycle 20 (every
// other one transient) and a transient node fault every 10, on arcs and
// nodes drawn from seed.
func recyclingPlan(tp Topology, seed int64) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	plan := &FaultPlan{}
	var buf []int64
	for i := 0; i < 24; i++ {
		at, repair := 20+5*i, 0
		if i%2 == 0 {
			repair = at + 40
		}
		u := rng.Int63n(tp.N())
		buf = tp.Neighbors(u, buf)
		plan.LinkDown(at, int32(u), int32(buf[rng.Intn(len(buf))]), repair)
		if i%2 == 1 {
			plan.NodeDown(at, int32(rng.Int63n(tp.N())), at+30)
		}
	}
	return plan
}

// checkLinkStore checks the link store between cycles: every active link is
// the table's entry for its arc (lk.u, lk.v), which is an arc of the
// topology, the table holds exactly the active links, and every link on the
// free list is inactive, has an empty queue and is free (freeAt <= now), so
// a link reused in a later cycle starts empty and free. It returns the
// active links.
func checkLinkStore(t *testing.T, s *sparseLinks, now int) map[*elink]bool {
	t.Helper()
	if s.links.n != len(s.active) {
		t.Fatalf("cycle %d: %d links, %d active", now, s.links.n, len(s.active))
	}
	active := make(map[*elink]bool, len(s.active))
	for _, lk := range s.active {
		if got := s.links.get(lk.u, lk.v); got != lk {
			t.Fatalf("cycle %d: active link %d->%d is not the entry of its arc", now, lk.u, lk.v)
		}
		if !s.adj.Adjacent(lk.u, lk.v) {
			t.Fatalf("cycle %d: the table holds the link %d->%d, which is not an arc", now, lk.u, lk.v)
		}
		if active[lk] {
			t.Fatalf("cycle %d: link %d->%d is active twice", now, lk.u, lk.v)
		}
		active[lk] = true
	}
	for _, lk := range s.free {
		if active[lk] {
			t.Fatalf("cycle %d: link %d->%d is both free and active", now, lk.u, lk.v)
		}
		if len(lk.queue) != 0 || lk.freeAt > now {
			t.Fatalf("cycle %d: free link %d->%d holds %d packets, busy until %d",
				now, lk.u, lk.v, len(lk.queue), lk.freeAt)
		}
	}
	return active
}

// stepChecked runs a single-lane run cycle by cycle as loop does, checking
// the link store after every cycle. It returns the run's stats, the number
// of links reused, and how often a fault event reached a reused link
// through eachFrom (node faults) or peek (link faults).
func stepChecked(t *testing.T, r *laneRun, ln *simLane) (st ImplicitFaultStats, reused, nodeHits, linkHits int) {
	t.Helper()
	s := ln.store
	recycled := map[*elink]bool{}
	now := 0
	for ; now < ln.deadline; now++ {
		for _, c := range r.changesAt[now] {
			switch {
			case !c.down:
			case c.kind == NodeFault:
				s.eachFrom(c.u, func(lk *elink) {
					if recycled[lk] {
						nodeHits++
					}
				})
			default:
				for _, lk := range []*elink{s.peek(c.u, c.v), s.peek(c.v, c.u)} {
					if lk != nil && recycled[lk] {
						linkHits++
					}
				}
			}
		}
		free := append([]*elink(nil), s.free...)
		stop, err := ln.step(now)
		if err != nil {
			t.Fatal(err)
		}
		active := checkLinkStore(t, s, now)
		for _, lk := range free {
			if active[lk] {
				recycled[lk] = true
			}
		}
		if stop {
			break
		}
	}
	return r.stats([]*simLane{ln}, now), len(recycled), nodeHits, linkHits
}

// TestLinkRecycling drives high-rate faulty runs on a built graph and on an
// implicit topology cycle by cycle. Idle links go onto the store's free
// list and are reused; the node and link faults must reach reused links
// through eachFrom and peek. Every cycle the store must be consistent and
// every free link empty and free, and each run must conserve packets and
// match its public entry point's stats.
func TestLinkRecycling(t *testing.T) {
	check := func(t *testing.T, r *laneRun, lanes []*simLane, want ImplicitFaultStats, builtGraph bool) {
		t.Helper()
		st, reused, nodeHits, linkHits := stepChecked(t, r, lanes[0])
		if reused == 0 || nodeHits == 0 || linkHits == 0 {
			t.Fatalf("links reused %d, node faults on reused links %d, link faults on reused links %d: want all > 0",
				reused, nodeHits, linkHits)
		}
		fs := st.FaultStats
		lost := fs.Lost
		if !builtGraph {
			lost += fs.Expired // on built graphs Expired is a subset of Lost
		}
		if fs.Injected == 0 || fs.Injected != fs.Delivered+lost {
			t.Fatalf("packet conservation: %+v", fs)
		}
		if st != want {
			t.Fatalf("stepped run diverged from its entry point:\n%+v\nvs %+v", st, want)
		}
	}

	t.Run("built", func(t *testing.T) {
		g := mustBuild(t, networks.Hypercube{Dim: 6}.Build)
		cfg := Config{Graph: g, InjectionRate: 0.3, WarmupCycles: 30, MeasureCycles: 100, Seed: 3}
		fc := FaultConfig{Plan: recyclingPlan(topo.NewMaterialized(g), 5)}
		want, err := RunFaulty(cfg, fc)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		if err := fc.normalize(); err != nil {
			t.Fatal(err)
		}
		r, lanes, err := newLanes(builtRun(cfg, fc))
		if err != nil {
			t.Fatal(err)
		}
		check(t, r, lanes, ImplicitFaultStats{FaultStats: want}, true)
	})

	t.Run("implicit", func(t *testing.T) {
		const dim = 8
		ht, space := topo.HypercubeTopo{Dim: dim}, topo.SubcubeSpace{Dim: dim, Low: 4}
		plan := recyclingPlan(ht, 6)
		sharded := func(lanes int) ShardedConfig {
			return ShardedConfig{
				NewLane: func() (Topology, Router, FaultSink, error) {
					fs := topo.NewFaultSet()
					return ht, topo.NewFaultAware(ht, topo.HypercubeRouter{Dim: dim}, fs), fs, nil
				},
				Space:         space,
				InjectionRate: 0.3, WarmupCycles: 30, MeasureCycles: 100, Seed: 5,
				OffModulePeriod: 2, Lanes: lanes, Plan: plan,
			}
		}
		cfg := sharded(1)
		want, err := RunSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, lanes, err := newLanes(cfg, runOpts{moduleOf: space.Module})
		if err != nil {
			t.Fatal(err)
		}
		check(t, r, lanes, want, false)

		// Every lane recycles into its own free list: a multi-lane run
		// must not depend on how many lanes run at once.
		cfg = sharded(4)
		one, err := RunSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = 4
		four, err := RunSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if one != four {
			t.Fatalf("4 lanes diverge between 1 and 4 shards:\n%+v\nvs %+v", one, four)
		}
		if one.Injected != one.Delivered+one.Lost+one.Expired {
			t.Fatalf("packet conservation: %+v", one.FaultStats)
		}
	})
}

// directRouter sends every packet straight to its destination, neighbor or
// not: a broken router.
type directRouter struct{}

func (directRouter) NextHop(_, dst int64) (int64, error) { return dst, nil }

// noAdjacency hides a topology's adjacency test, so the link store falls
// back to searching Neighbors.
type noAdjacency struct{ Topology }

// TestNonNeighborNextHop: a next hop that is not a neighbor stops every run
// with the store's error, on each topology kind and on the fallback for a
// topology without topo.Adjacency. Node 0 sends to a non-neighbor w on its
// first hop, and again right after a packet to its neighbor x has activated
// the arc 0->x. Both RunImplicit and a degraded RunImplicitFaulty must fail:
// a router that breaks the topology is a bug, not a fault to absorb.
func TestNonNeighborNextHop(t *testing.T) {
	net := superip.HSN(2, superip.NucleusHypercube(3))
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		tp       Topology
		fallback bool
	}{
		{"hypercube", topo.HypercubeTopo{Dim: 4}, false},
		{"implicit", imp, false},
		{"materialized", topo.NewMaterialized(rankOrdered(t, net)), false},
		{"fallback", noAdjacency{imp}, true},
	} {
		if _, ok := c.tp.(topo.Adjacency); ok == c.fallback {
			t.Fatalf("%s: %T implements topo.Adjacency: %v", c.name, c.tp, ok)
		}
		n := c.tp.N()
		nbrs := c.tp.Neighbors(0, nil)
		x, w := nbrs[0], int64(1)
		for slices.Contains(nbrs, w) {
			w++
		}
		last := c.tp.Neighbors(n-1, nil)
		plan := (&FaultPlan{}).LinkDown(5, int32(n-1), int32(last[0]), 0)
		want := fmt.Sprintf("next hop %d from 0 is not a neighbor", w)
		for _, script := range [][]Injection{
			{{At: 0, Src: 0, Dst: w}},
			{{At: 0, Src: 0, Dst: x}, {At: 0, Src: 0, Dst: w}},
		} {
			cfg := ImplicitConfig{Topo: c.tp, Router: directRouter{}, WarmupCycles: 1, MeasureCycles: 10, Script: script}
			if _, err := RunImplicit(cfg); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: RunImplicit with %d sends: err = %v, want %q", c.name, len(script), err, want)
			}
			fc := ImplicitFaultConfig{Plan: plan, Faults: topo.NewFaultSet()}
			if _, err := RunImplicitFaulty(cfg, fc); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: RunImplicitFaulty with %d sends: err = %v, want %q", c.name, len(script), err, want)
			}
		}
	}
}

// TestTypedNilFaultSink: a lane whose fault sink is a nil *topo.FaultSet
// has no fault sink, so a run with a fault plan must refuse it with the
// documented error instead of dereferencing nil mid-run.
func TestTypedNilFaultSink(t *testing.T) {
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("panic: %v", p)
		}
	}()
	_, imp, _, fa := faultTestNet(t)
	plan := recyclingPlan(imp, 1)
	var nilSet *topo.FaultSet
	_, err := RunSharded(ShardedConfig{
		NewLane: func() (Topology, Router, FaultSink, error) {
			return imp, fa, nilSet, nil
		},
		InjectionRate: 0.05, WarmupCycles: 10, MeasureCycles: 200, Seed: 1, Lanes: 1, Plan: plan,
	})
	if err == nil || !strings.Contains(err.Error(), "a fault plan needs a FaultSink") {
		t.Fatalf("RunSharded: err = %v, want the missing-FaultSink error", err)
	}
	_, err = RunImplicitFaulty(ImplicitConfig{Topo: imp, Router: fa, InjectionRate: 0.05,
		WarmupCycles: 10, MeasureCycles: 200, Seed: 1}, ImplicitFaultConfig{Plan: plan, Faults: nilSet})
	if err == nil || !strings.Contains(err.Error(), "a fault plan needs a FaultSink") {
		t.Fatalf("RunImplicitFaulty: err = %v, want the missing-FaultSink error", err)
	}
}
