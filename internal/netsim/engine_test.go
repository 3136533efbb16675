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

// TestInjectionSamplerExactRegime pins the geometric-gap sampler's edges:
// rate 0 injects nothing and draws nothing, rate 1 injects from every node
// exactly once, in order, a cycle's indices increase strictly, and a gap
// far beyond n (or beyond the int64 range) ends the cycle.
func TestInjectionSamplerExactRegime(t *testing.T) {
	for _, n := range []int64{1, 100, 1<<16 + 1} {
		cs := &countingSource{src: rand.NewSource(1)}
		s := newInjectionSampler(n, 0, rand.New(cs))
		if got := drain(&s); len(got) != 0 || cs.draws != 0 {
			t.Fatalf("n=%d rate=0: %d injections, %d draws", n, len(got), cs.draws)
		}
		s = newInjectionSampler(n, 1, rand.New(cs))
		got := drain(&s)
		if int64(len(got)) != n {
			t.Fatalf("n=%d rate=1: %d injections, want %d", n, len(got), n)
		}
		for i, src := range got {
			if src != int64(i) {
				t.Fatalf("n=%d rate=1: injection %d from node %d, want %d", n, i, src, i)
			}
		}
	}
	for _, rate := range []float64{0.001, 0.3, 0.9} {
		s := newInjectionSampler(5000, rate, rand.New(rand.NewSource(2)))
		for c := 0; c < 50; c++ {
			got := drain(&s)
			for i, src := range got {
				if src < 0 || src >= 5000 || (i > 0 && src <= got[i-1]) {
					t.Fatalf("rate %v cycle %d: indices %v not strictly increasing in [0,5000)", rate, c, got)
				}
			}
		}
	}
	s := newInjectionSampler(1<<62, 1e-300, rand.New(rand.NewSource(3)))
	for c := 0; c < 100; c++ {
		if got := drain(&s); len(got) != 0 {
			t.Fatalf("rate 1e-300: injected from %v", got)
		}
	}
}

// TestInjectionSamplerBinomial checks the sampler against the process it
// stands for: over C cycles each node's injection count is
// Binomial(C, rate), independently of the other nodes, so the histogram of
// per-node counts passes a χ² test against n·Binomial(C, rate) at the
// 0.001 level. One n lies below 2^16 and one above, where the engine once
// switched to an approximate count.
func TestInjectionSamplerBinomial(t *testing.T) {
	for _, tc := range []struct {
		n, cycles int
		rate      float64
	}{{4096, 400, 0.02}, {1<<16 + 4464, 100, 0.2}} {
		s := newInjectionSampler(int64(tc.n), tc.rate, rand.New(rand.NewSource(5)))
		counts := make([]int, tc.n)
		for c := 0; c < tc.cycles; c++ {
			for _, i := range drain(&s) {
				counts[i]++
			}
		}
		hist := make([]int, tc.cycles+1)
		for _, k := range counts {
			hist[k]++
		}
		// Pool adjacent counts until each bin expects at least 5 nodes.
		var binObs, binExp []float64
		var obs, exp float64
		lnC := lgamma(tc.cycles + 1)
		for k := 0; k <= tc.cycles; k++ {
			pmf := math.Exp(lnC - lgamma(k+1) - lgamma(tc.cycles-k+1) +
				float64(k)*math.Log(tc.rate) + float64(tc.cycles-k)*math.Log1p(-tc.rate))
			obs += float64(hist[k])
			exp += float64(tc.n) * pmf
			if exp >= 5 {
				binObs, binExp = append(binObs, obs), append(binExp, exp)
				obs, exp = 0, 0
			}
		}
		// The upper tail, expecting fewer than 5, joins the last bin.
		bins := len(binObs)
		binObs[bins-1] += obs
		binExp[bins-1] += exp
		var chi2 float64
		for i := range binObs {
			chi2 += (binObs[i] - binExp[i]) * (binObs[i] - binExp[i]) / binExp[i]
		}
		// Wilson–Hilferty approximation of the 0.999 quantile of χ²(df).
		df := float64(bins - 1)
		h := 2 / (9 * df)
		crit := df * math.Pow(1-h+3.09*math.Sqrt(h), 3)
		if chi2 > crit {
			t.Errorf("n=%d, %d cycles, rate %v: χ² = %.1f over %d bins, 0.999 quantile %.1f",
				tc.n, tc.cycles, tc.rate, chi2, bins, crit)
		}
	}
}

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}

// countingSource wraps a rand.Source and counts the raw Int63 draws pulled
// through it — one per Float64, so it measures exactly how many draws a
// sampler consumed.
type countingSource struct {
	src   rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }
func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

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

// TestInjectionOncePerCycle pins the sampler end to end: no node injects
// twice in one cycle, sequential or sharded.
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
		plan.LinkDown(at, u, buf[rng.Intn(len(buf))], repair)
		if i%2 == 1 {
			plan.NodeDown(at, rng.Int63n(tp.N()), at+30)
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
	check := func(t *testing.T, r *laneRun, lanes []*simLane, want ImplicitFaultStats) {
		t.Helper()
		st, reused, nodeHits, linkHits := stepChecked(t, r, lanes[0])
		if reused == 0 || nodeHits == 0 || linkHits == 0 {
			t.Fatalf("links reused %d, node faults on reused links %d, link faults on reused links %d: want all > 0",
				reused, nodeHits, linkHits)
		}
		fs := st.FaultStats
		if fs.Injected == 0 || fs.Injected != fs.Delivered+fs.Lost+fs.Expired {
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
		check(t, r, lanes, ImplicitFaultStats{FaultStats: want})
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
		check(t, r, lanes, want)

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
		plan := (&FaultPlan{}).LinkDown(5, n-1, last[0], 0)
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
