package core

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
	"repro/internal/symbols"
)

// checkOptimalSearch verifies that ShortestPath returns valid, optimal
// paths for every ordered pair of the (small) IP graph.
func checkOptimalSearch(t *testing.T, ip *IPGraph) {
	t.Helper()
	g, ix, err := ip.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < ix.N(); u++ {
		dist := g.BFS(int32(u))
		for v := 0; v < ix.N(); v++ {
			src, dst := ix.Label(int32(u)), ix.Label(int32(v))
			moves, err := ip.ShortestPath(src, dst, 0)
			if err != nil {
				t.Fatalf("%s: %v -> %v: %v", ip.Name, src, dst, err)
			}
			states, err := ip.ApplyMoves(src, moves)
			if err != nil {
				t.Fatal(err)
			}
			if !states[len(states)-1].Equal(dst) {
				t.Fatalf("%s: path %v -> %v ends at %v", ip.Name, src, dst, states[len(states)-1])
			}
			// Count only real hops (generators may fix a label).
			hops := 0
			for i := 0; i+1 < len(states); i++ {
				if !states[i].Equal(states[i+1]) {
					hops++
				}
			}
			if hops != int(dist[v]) {
				t.Fatalf("%s: %v -> %v: search %d hops, BFS %d", ip.Name, src, dst, hops, dist[v])
			}
		}
	}
}

func TestShortestPathHSN(t *testing.T) {
	checkOptimalSearch(t, hsn(2, nucleusQ(2), false).IPGraph())
}

func TestShortestPathRingCN(t *testing.T) {
	checkOptimalSearch(t, ringCN(3, nucleusQ(2), false).IPGraph())
}

func TestShortestPathStar(t *testing.T) {
	var gens []perm.Perm
	for i := 1; i < 5; i++ {
		gens = append(gens, perm.Transposition(5, 0, i))
	}
	checkOptimalSearch(t, Cayley("S5-search", gens, nil))
}

func TestGameSolveOnStar(t *testing.T) {
	// The ball-arrangement game on the 4-star: 1234 -> 2143 takes exactly 4
	// star moves (two 2-cycles, neither containing position 1).
	var gens []perm.Perm
	for i := 1; i < 4; i++ {
		gens = append(gens, perm.Transposition(4, 0, i))
	}
	ip := Cayley("S4", gens, nil)
	start := symbols.Label{1, 2, 3, 4}
	target := symbols.Label{2, 1, 4, 3}
	moves, err := ip.ShortestPath(start, target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 4 {
		t.Fatalf("solution length = %d, want 4", len(moves))
	}
	states, err := ip.ApplyMoves(start, moves)
	if err != nil || !states[len(states)-1].Equal(target) {
		t.Fatalf("solution %v does not reach target: %v", moves, err)
	}
}

func TestShortestPathRepeatedSeed(t *testing.T) {
	// A ball-arrangement game with repeated balls: 123123 under two
	// transpositions and a block swap.
	checkOptimalSearch(t, &IPGraph{
		Name: "repeated-seed-search",
		Seed: symbols.Label{1, 2, 3, 1, 2, 3},
		Gens: []perm.Perm{
			perm.Transposition(6, 0, 1),
			perm.Transposition(6, 0, 2),
			perm.BlockLeftShift(2, 3, 1),
		},
	})
}

func TestShortestPathDirected(t *testing.T) {
	// De Bruijn generators are not inverse-closed; the bidirectional
	// search must still find shortest directed paths.
	n := 5
	rot := perm.BlockLeftShift(n, 2, 1)
	swapLast := perm.Transposition(2*n, 2*n-2, 2*n-1)
	ip := &IPGraph{
		Name: "deBruijn-search",
		Seed: symbols.RepeatedSeed(n, symbols.Label{1, 2}),
		Gens: []perm.Perm{rot, perm.Compose(rot, swapLast)},
	}
	g, ix, err := ip.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		u := int32(rng.Intn(ix.N()))
		v := int32(rng.Intn(ix.N()))
		moves, err := ip.ShortestPath(ix.Label(u), ix.Label(v), 0)
		if err != nil {
			t.Fatal(err)
		}
		states, err := ip.ApplyMoves(ix.Label(u), moves)
		if err != nil {
			t.Fatal(err)
		}
		if !states[len(states)-1].Equal(ix.Label(v)) {
			t.Fatal("directed search misses destination")
		}
		hops := 0
		for i := 0; i+1 < len(states); i++ {
			if !states[i].Equal(states[i+1]) {
				hops++
			}
		}
		dist := g.BFS(u)
		if hops != int(dist[v]) {
			t.Fatalf("directed: search %d hops, BFS %d (pair %d -> %d)", hops, dist[v], u, v)
		}
	}
}

func TestShortestPathOnUnbuildableScale(t *testing.T) {
	// HSN(3;Q4) has 4096 nodes; the point of the bidirectional search is
	// that a single query touches only a tiny fraction of them.
	s := hsn(3, nucleusQ(4), false)
	ip := s.IPGraph()
	src := s.SeedLabel()
	// A distant destination: all blocks at nucleus-diameter content.
	dst := symbols.RepeatedSeed(3, symbols.Label{2, 1, 2, 1, 2, 1, 2, 1})
	moves, err := ip.ShortestPath(src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.TheoreticalDiameter()
	if err != nil {
		t.Fatal(err)
	}
	hops := 0
	states, _ := ip.ApplyMoves(src, moves)
	for i := 0; i+1 < len(states); i++ {
		if !states[i].Equal(states[i+1]) {
			hops++
		}
	}
	if hops != want {
		t.Fatalf("extremal pair distance %d, Theorem 4.1 diameter %d", hops, want)
	}
}

func TestShortestPathErrors(t *testing.T) {
	s := hsn(2, nucleusQ(2), false)
	ip := s.IPGraph()
	if _, err := ip.ShortestPath(symbols.Label{1}, s.SeedLabel(), 0); err == nil {
		t.Fatal("wrong length must fail")
	}
	foreign := s.SeedLabel()
	foreign[0] = 9
	if _, err := ip.ShortestPath(s.SeedLabel(), foreign, 0); err == nil {
		t.Fatal("foreign multiset must fail")
	}
	// Limit exceeded.
	far := symbols.RepeatedSeed(2, symbols.Label{2, 1, 2, 1})
	if _, err := ip.ShortestPath(s.SeedLabel(), far, 2); err == nil {
		t.Fatal("tiny limit must fail")
	}
	// Unreachable within same multiset: rotation-only game.
	rotOnly := &IPGraph{
		Name: "rot",
		Seed: symbols.Label{1, 1, 2, 2},
		Gens: []perm.Perm{perm.Rotation(4, 1), perm.Rotation(4, 3)},
	}
	if _, err := rotOnly.ShortestPath(symbols.Label{1, 1, 2, 2}, symbols.Label{1, 2, 1, 2}, 0); err == nil {
		t.Fatal("unreachable label must fail")
	}
	// Identity query.
	moves, err := ip.ShortestPath(s.SeedLabel(), s.SeedLabel(), 0)
	if err != nil || len(moves) != 0 {
		t.Fatalf("identity query: %v, %v", moves, err)
	}
	if _, err := ip.ApplyMoves(s.SeedLabel(), []int{99}); err == nil {
		t.Fatal("bad move index must fail")
	}
}
