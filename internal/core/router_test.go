package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/symbols"
)

// validateAllRoutes routes every ordered node pair of s and checks that each
// route follows real edges, ends at the destination, respects the Theorem
// 4.1/4.3 hop bound, and uses at most tBound super-generator steps.
func validateAllRoutes(t *testing.T, s *SuperIP) {
	t.Helper()
	g, ix, err := s.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(s)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := s.TheoreticalDiameter()
	if err != nil {
		t.Fatal(err)
	}
	var tBound int
	if s.Symmetric {
		tBound, err = s.TSym()
	} else {
		var sched *Schedule
		sched, err = s.MinCoverSchedule()
		if err == nil {
			tBound = sched.T()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	numNuc := len(s.Nucleus.Gens)
	worstHops := 0
	for u := 0; u < ix.N(); u++ {
		for v := 0; v < ix.N(); v++ {
			src, dst := ix.Label(int32(u)), ix.Label(int32(v))
			path, err := r.Route(src, dst)
			if err != nil {
				t.Fatalf("%s: route %v -> %v: %v", s.Name, src, dst, err)
			}
			if !path.Labels[len(path.Labels)-1].Equal(dst) {
				t.Fatalf("%s: route %v -> %v ends at %v", s.Name, src, dst,
					path.Labels[len(path.Labels)-1])
			}
			if path.Hops() > bound {
				t.Fatalf("%s: route %v -> %v takes %d hops, bound %d",
					s.Name, src, dst, path.Hops(), bound)
			}
			if ss := superSteps(path, numNuc); ss > tBound {
				t.Fatalf("%s: route %v -> %v uses %d super-steps, bound %d",
					s.Name, src, dst, ss, tBound)
			}
			// Every consecutive label pair must be an edge of the graph.
			for i := 0; i+1 < len(path.Labels); i++ {
				a, b := ix.ID(path.Labels[i]), ix.ID(path.Labels[i+1])
				if a < 0 || b < 0 || !g.HasEdge(a, b) {
					t.Fatalf("%s: route step %d (%v -> %v) is not an edge",
						s.Name, i, path.Labels[i], path.Labels[i+1])
				}
			}
			if path.Hops() > worstHops {
				worstHops = path.Hops()
			}
		}
	}
	// The routing algorithm is worst-case optimal: some pair must need
	// exactly the diameter.
	if worstHops != bound {
		t.Fatalf("%s: worst route = %d hops, want the full bound %d (routing should be tight)",
			s.Name, worstHops, bound)
	}
}

func TestRouterHSN(t *testing.T) {
	validateAllRoutes(t, hsn(2, nucleusQ(2), false))
	validateAllRoutes(t, hsn(3, nucleusQ(2), false))
}

func TestRouterRingCN(t *testing.T) {
	validateAllRoutes(t, ringCN(3, nucleusQ(2), false))
	validateAllRoutes(t, ringCN(4, nucleusQ(2), false))
}

func TestRouterSuperFlip(t *testing.T) {
	validateAllRoutes(t, superFlip(3, nucleusQ(2), false))
}

func TestRouterSymmetric(t *testing.T) {
	validateAllRoutes(t, hsn(2, nucleusQ(2), true))
	validateAllRoutes(t, ringCN(3, nucleusQ(2), true))
}

func TestRouterRejectsForeignLabels(t *testing.T) {
	s := hsn(2, nucleusQ(2), false)
	r, err := NewRouter(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Route(symbols.Label{1, 2}, symbols.Label{2, 1}); err == nil {
		t.Fatal("wrong-length labels must fail")
	}
	// Different symbol multisets cannot be in the same IP graph.
	src := s.SeedLabel()
	dst := src.Clone()
	dst[0] = 9
	if _, err := r.Route(src, dst); err == nil {
		t.Fatal("foreign multiset must fail")
	}
}

func TestRouterMatchesBFSOnWorstPair(t *testing.T) {
	// For the extremal pair A...A -> B...B (contents at nucleus diameter),
	// the route length must equal the BFS distance l*D_G + t exactly.
	s := hsn(3, nucleusQ(2), false)
	g, ix, err := s.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(s)
	if err != nil {
		t.Fatal(err)
	}
	// Nucleus Q2 pair at distance 2: "1212" and "2121".
	a := symbols.RepeatedSeed(3, symbols.Label{1, 2, 1, 2})
	b := symbols.RepeatedSeed(3, symbols.Label{2, 1, 2, 1})
	path, err := r.Route(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dist := g.BFS(ix.ID(a))
	if int(dist[ix.ID(b)]) != path.Hops() {
		t.Fatalf("route %d hops, BFS distance %d", path.Hops(), dist[ix.ID(b)])
	}
	want, _ := s.TheoreticalDiameter()
	if path.Hops() != want {
		t.Fatalf("extremal pair routed in %d hops, want diameter %d", path.Hops(), want)
	}
}

func TestRepresentTheorem21(t *testing.T) {
	// Theorem 2.1 (constructive demonstration): arbitrary connected graphs
	// have IP-graph representations.
	petersen := buildPetersen()
	ip, mapping, err := Represent("petersen", petersen)
	if err != nil {
		t.Fatal(err)
	}
	built, _, err := ip.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.VerifyIsomorphism(petersen, built, mapping); err != nil {
		t.Fatalf("Petersen representation: %v", err)
	}

	// Random connected graphs.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(20)
		b := graph.NewBuilder(n, false)
		// Random spanning tree for connectivity plus random extra edges.
		for v := 1; v < n; v++ {
			b.AddEdge(int32(rng.Intn(v)), int32(v))
		}
		for e := 0; e < n; e++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		ip, mapping, err := Represent("rand", g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		built, _, err := ip.Build(BuildOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := graph.VerifyIsomorphism(g, built, mapping); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The representation must genuinely use repeated symbols (it is an
		// IP graph that is not a Cayley graph for n > 2).
		if n > 2 && ip.IsCayley() {
			t.Fatalf("trial %d: representation unexpectedly Cayley", trial)
		}
	}
}

func TestRepresentErrors(t *testing.T) {
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1) // leaves 2,3 isolated
	if _, _, err := Represent("x", b.Build()); err == nil {
		t.Fatal("disconnected graph must fail")
	}
	d := graph.NewBuilder(2, true)
	d.AddEdge(0, 1)
	if _, _, err := Represent("x", d.Build()); err == nil {
		t.Fatal("directed graph must fail")
	}
}

// buildPetersen constructs the Petersen graph: outer 5-cycle 0-4, inner
// pentagram 5-9, spokes i -> i+5.
func buildPetersen() *graph.Graph {
	b := graph.NewBuilder(10, false)
	for i := 0; i < 5; i++ {
		b.AddEdge(int32(i), int32((i+1)%5))
		b.AddEdge(int32(i+5), int32((i+2)%5+5))
		b.AddEdge(int32(i), int32(i+5))
	}
	return b.Build()
}

func TestRouterOnLargerInstanceSampled(t *testing.T) {
	// HSN(2;Q4) has 256 nodes; validate a random sample of routes.
	s := hsn(2, nucleusQ(4), false)
	g, ix, err := s.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(s)
	if err != nil {
		t.Fatal(err)
	}
	bound, _ := s.TheoreticalDiameter()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		u := int32(rng.Intn(ix.N()))
		v := int32(rng.Intn(ix.N()))
		path, err := r.Route(ix.Label(u), ix.Label(v))
		if err != nil {
			t.Fatal(err)
		}
		if path.Hops() > bound {
			t.Fatalf("route exceeds bound: %d > %d", path.Hops(), bound)
		}
		for i := 0; i+1 < len(path.Labels); i++ {
			a, b := ix.ID(path.Labels[i]), ix.ID(path.Labels[i+1])
			if !g.HasEdge(a, b) {
				t.Fatalf("non-edge on route at step %d", i)
			}
		}
		if !path.Labels[len(path.Labels)-1].Equal(ix.Label(v)) {
			t.Fatal("route does not reach destination")
		}
	}
}

// TestCoverTableMatchesSearch checks that a symmetric router builds its
// schedule table on the first route, not before, and that the table holds,
// for every reachable arrangement, exactly the schedule a fresh cover search
// reconstructs for it.
func TestCoverTableMatchesSearch(t *testing.T) {
	grid := rankerGrid()
	grid["sym-HSN(4;Q2)"] = hsn(4, nucleusQ(2), true)
	for name, s := range grid {
		if !s.Symmetric {
			continue
		}
		r, err := NewRouter(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.cover != nil {
			t.Fatalf("%s: schedule table built before the first route", name)
		}
		seed := s.SeedLabel()
		if _, err := r.Word(seed, seed, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.cover == nil {
			t.Fatalf("%s: schedule table not built by the first route", name)
		}
		_, parent, err := s.coverSearch()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bps, err := s.BlockPerms()
		if err != nil {
			t.Fatal(err)
		}
		arrs, err := perm.GroupClosure(bps, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.cover.plans) != len(arrs) {
			t.Fatalf("%s: table has %d schedules, want one per arrangement (%d)", name, len(r.cover.plans), len(arrs))
		}
		full := uint32(1)<<uint(s.L) - 1
		tS := 0
		for _, arr := range arrs {
			i, ok := r.cover.index[arrKey(arr)]
			if !ok {
				t.Fatalf("%s: arrangement %v missing from the table", name, arr)
			}
			got := r.cover.plans[i]
			want := s.reconstruct(coverState{arr: arrKey(arr), mask: full}, parent)
			if !reflect.DeepEqual(got.sched, want) {
				t.Fatalf("%s: arrangement %v: table schedule %+v, search %+v", name, arr, got.sched, want)
			}
			if !slices.Equal(got.final, want.FinalPositions()) || !slices.Equal(got.first, want.FirstLeftmost()) {
				t.Fatalf("%s: arrangement %v: stale final/first positions", name, arr)
			}
			tS = max(tS, want.T())
		}
		if r.cover.tS != tS {
			t.Fatalf("%s: table t_S = %d, want %d", name, r.cover.tS, tS)
		}
	}
}

// TestWordMatchesRoute checks on seeded pairs of every grid instance that
// Word appends exactly Route's generators, whatever the caller's buffer
// holds and whatever routes the router computed before.
func TestWordMatchesRoute(t *testing.T) {
	for name, s := range rankerGrid() {
		_, ix, err := s.Build(BuildOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		r, err := NewRouter(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rng := rand.New(rand.NewSource(3))
		buf := []int{-1}
		for trial := 0; trial < 300; trial++ {
			src, dst := ix.Label(int32(rng.Intn(ix.N()))), ix.Label(int32(rng.Intn(ix.N())))
			p, err := r.Route(src, dst)
			if err != nil {
				t.Fatalf("%s: route %v -> %v: %v", name, src, dst, err)
			}
			word, err := r.Word(src, dst, nil)
			if err != nil || !slices.Equal(word, p.Gens) {
				t.Fatalf("%s: Word(%v, %v) = %v (%v), Route gens %v", name, src, dst, word, err, p.Gens)
			}
			buf, err = r.Word(src, dst, buf[:1])
			if err != nil || buf[0] != -1 || !slices.Equal(buf[1:], p.Gens) {
				t.Fatalf("%s: Word(%v, %v) onto [-1] = %v (%v), want [-1] + %v", name, src, dst, buf, err, p.Gens)
			}
		}
	}
}

// TestWordAllocs checks that a route, on labels or on ids, allocates
// nothing once the router's tables exist and the caller's buffer is large
// enough.
func TestWordAllocs(t *testing.T) {
	for name, s := range map[string]*SuperIP{
		"HSN(2;Q5)":     hsn(2, nucleusQ(5), false),
		"sym-HSN(3;Q4)": hsn(3, nucleusQ(4), true),
	} {
		rk, err := s.Ranker()
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRouter(s)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		buf := make([]int, 0, 64)
		for trial := 0; trial < 20; trial++ {
			src := rk.Unrank(rng.Int63n(rk.N()), nil)
			dst := rk.Unrank(rng.Int63n(rk.N()), nil)
			var err error
			if buf, err = r.Word(src, dst, buf[:0]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if n := testing.AllocsPerRun(10, func() { buf, _ = r.Word(src, dst, buf[:0]) }); n != 0 {
				t.Fatalf("%s: Word(%v, %v) makes %.1f allocations, want 0", name, src, dst, n)
			}
			u, v := rng.Int63n(rk.N()), rng.Int63n(rk.N())
			if buf, err = r.WordID(u, v, buf[:0]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if n := testing.AllocsPerRun(10, func() { buf, _ = r.WordID(u, v, buf[:0]) }); n != 0 {
				t.Fatalf("%s: WordID(%d, %d) makes %.1f allocations, want 0", name, u, v, n)
			}
		}
	}
}

func BenchmarkRouteHSN3Q2(b *testing.B) {
	s := hsn(3, nucleusQ(2), false)
	_, ix, err := s.Build(BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRouter(s)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := int32(rng.Intn(ix.N()))
		v := int32(rng.Intn(ix.N()))
		if _, err := r.Route(ix.Label(u), ix.Label(v)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildHSN2Q4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := hsn(2, nucleusQ(4), false)
		if _, _, err := s.Build(BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRouterBeyondRankSpace checks that label routing does not depend on the
// id space: ring-CN(11;Q6) has 2^66 nodes, so no Ranker exists, yet the
// Theorem 4.1 router builds and routes between labels reached by random
// walks.
func TestRouterBeyondRankSpace(t *testing.T) {
	s := ringCN(11, nucleusQ(6), false)
	if _, err := s.Ranker(); err == nil {
		t.Fatal("Ranker of a 2^65-node graph succeeded")
	}
	r, err := NewRouter(s)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	bound, err := s.TheoreticalDiameter()
	if err != nil {
		t.Fatal(err)
	}
	gens := s.IPGraph().Gens
	rng := rand.New(rand.NewSource(3))
	walk := func() symbols.Label {
		x := s.SeedLabel().Clone()
		next := make(symbols.Label, len(x))
		for i := 0; i < 200; i++ {
			gens[rng.Intn(len(gens))].Apply(next, x)
			x, next = next, x
		}
		return x
	}
	for trial := 0; trial < 20; trial++ {
		src, dst := walk(), walk()
		path, err := r.Route(src, dst)
		if err != nil {
			t.Fatalf("route %v -> %v: %v", src, dst, err)
		}
		if !path.Labels[len(path.Labels)-1].Equal(dst) || path.Hops() > bound {
			t.Fatalf("route %v -> %v ends at %v after %d hops (bound %d)",
				src, dst, path.Labels[len(path.Labels)-1], path.Hops(), bound)
		}
	}
	if word, err := r.WordID(0, 1, nil); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("WordID beyond rank space = %v, %v; want an overflow error", word, err)
	}
}

// TestWordIDConcurrent builds four routers of one fresh symmetric
// specification concurrently and routes on ids from each in parallel. Every
// router takes the specification's shared rank tables on its first id
// route, and builds its own cover and plan tables, so under -race the test
// pins that the shared tables are only read. Every word must match the
// label route of a router of a separate, equal specification.
func TestWordIDConcurrent(t *testing.T) {
	s := hsn(3, nucleusQ(2), true)
	ref := hsn(3, nucleusQ(2), true)
	refRouter, err := NewRouter(ref)
	if err != nil {
		t.Fatal(err)
	}
	refRanker, err := ref.Ranker()
	if err != nil {
		t.Fatal(err)
	}
	// Seeded pairs, and the label word of each.
	const pairs = 10000
	n := refRanker.N()
	rng := rand.New(rand.NewSource(20))
	src, dst := make([]int64, pairs), make([]int64, pairs)
	want := make([][]int, pairs)
	for i := range want {
		src[i], dst[i] = rng.Int63n(n), rng.Int63n(n)
		if want[i], err = refRouter.Word(refRanker.Unrank(src[i], nil), refRanker.Unrank(dst[i], nil), nil); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	routers := make([]*Router, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range routers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if routers[w], err = NewRouter(s); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	for w, r := range routers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var word []int
			for i := range pairs {
				k := (i + w*pairs/workers) % pairs
				var err error
				if word, err = r.WordID(src[k], dst[k], word[:0]); err != nil {
					errs <- err
					return
				}
				if !slices.Equal(word, want[k]) {
					errs <- fmt.Errorf("router %d: WordID(%d, %d) = %v, label word %v", w, src[k], dst[k], word, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// superSteps returns the number of super-generator applications on p — the
// number of off-module (inter-cluster) transmissions when each nucleus is
// packed into one module.
func superSteps(p *Path, numNucleusGens int) int {
	n := 0
	for _, g := range p.Gens {
		if g >= numNucleusGens {
			n++
		}
	}
	return n
}
