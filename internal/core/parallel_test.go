package core

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/symbols"
)

// parityCases is the family grid the golden parity suite runs over. It mixes
// undirected and directed instances, repeated- and distinct-symbol seeds,
// and every super-generator family of Section 3.
func parityCases() map[string]*IPGraph {
	cases := map[string]*IPGraph{}

	cases["paper-example"] = &IPGraph{
		Name: "paper-example",
		Seed: symbols.Label{1, 2, 3, 1, 2, 3},
		Gens: []perm.Perm{
			perm.Transposition(6, 0, 1),
			perm.Transposition(6, 0, 2),
			perm.BlockLeftShift(2, 3, 1),
		},
	}

	cases["HSN(3;Q2)"] = hsn(3, nucleusQ(2), false).IPGraph()
	cases["sym-HSN(3;Q2)"] = hsn(3, nucleusQ(2), true).IPGraph()
	cases["sym-HSN(4;Q2)"] = hsn(4, nucleusQ(2), true).IPGraph()
	cases["sym-ringCN(3;Q2)"] = ringCN(3, nucleusQ(2), true).IPGraph()
	cases["sym-SFN(3;Q2)"] = superFlip(3, nucleusQ(2), true).IPGraph()

	// Directed: single cyclic shift over 3 blocks is not inverse-closed.
	nq2 := nucleusQ(2)
	cases["dirCN(3;Q2)"] = &IPGraph{
		Name: "dirCN(3;Q2)",
		Seed: symbols.RepeatedSeed(3, nq2.Seed),
		Gens: append(nucleusLift(nq2, 3), perm.BlockLeftShift(3, nq2.M(), 1)),
	}

	// Directed de Bruijn-style generators (rotate / rotate+complement).
	rot := perm.BlockLeftShift(5, 2, 1)
	cases["deBruijn-5"] = &IPGraph{
		Name: "deBruijn-5",
		Seed: symbols.RepeatedSeed(5, symbols.Label{1, 2}),
		Gens: []perm.Perm{rot, perm.Compose(rot, perm.Transposition(10, 8, 9))},
	}

	// A plain Cayley graph: the 6-star.
	var starGens []perm.Perm
	for i := 1; i < 6; i++ {
		starGens = append(starGens, perm.Transposition(6, 0, i))
	}
	cases["star-6"] = Cayley("S6", starGens, nil)

	return cases
}

// nucleusLift lifts a nucleus's generators to act on the leftmost of l blocks.
func nucleusLift(nuc Nucleus, l int) []perm.Perm {
	out := make([]perm.Perm, len(nuc.Gens))
	for i, g := range nuc.Gens {
		out[i] = perm.Lift(g, l*nuc.M())
	}
	return out
}

// assertIdentical fails unless the two (graph, index) pairs are bit-for-bit
// identical: same node count, same labels in the same id order, same
// directedness, and the same edge list.
func assertIdentical(t *testing.T, name string, gWant *graph.Graph, ixWant *Index, gGot *graph.Graph, ixGot *Index) {
	t.Helper()
	if ixGot.N() != ixWant.N() {
		t.Fatalf("%s: N = %d, want %d", name, ixGot.N(), ixWant.N())
	}
	for id := 0; id < ixWant.N(); id++ {
		want, got := ixWant.Label(int32(id)), ixGot.Label(int32(id))
		if !want.Equal(got) {
			t.Fatalf("%s: label of node %d = %v, want %v", name, id, got, want)
		}
		if back := ixGot.ID(want); back != int32(id) {
			t.Fatalf("%s: ID(%v) = %d, want %d", name, want, back, id)
		}
	}
	if gGot.Directed != gWant.Directed {
		t.Fatalf("%s: directed = %v, want %v", name, gGot.Directed, gWant.Directed)
	}
	if gGot.N() != gWant.N() || gGot.M() != gWant.M() {
		t.Fatalf("%s: graph shape %d/%d, want %d/%d", name, gGot.N(), gGot.M(), gWant.N(), gWant.M())
	}
	for u := int32(0); u < int32(gWant.N()); u++ {
		if want, got := gWant.Neighbors(u), gGot.Neighbors(u); !slices.Equal(want, got) {
			t.Fatalf("%s: neighbors of %d = %v, want %v", name, u, got, want)
		}
	}
}

// TestParallelBuildGoldenParity is the golden parity suite: for every family
// in the grid and every worker count, the parallel builder must reproduce
// BuildSeq bit-for-bit — node ids, labels, directedness, and edge lists.
// CI runs this under -race, which also exercises the phase barriers.
func TestParallelBuildGoldenParity(t *testing.T) {
	workerCounts := []int{2, 3, 4, 8}
	for name, ip := range parityCases() {
		gSeq, ixSeq, err := ip.BuildSeq(BuildOptions{})
		if err != nil {
			t.Fatalf("%s: BuildSeq: %v", name, err)
		}
		for _, w := range workerCounts {
			gPar, ixPar, err := ip.Build(BuildOptions{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			assertIdentical(t, name, gSeq, ixSeq, gPar, ixPar)
		}
	}
}

// TestParallelBuildStatsParity checks that derived AllPairs statistics agree
// between the sequential and parallel builds (they must, given structural
// parity, but this pins the full measurement pipeline end to end).
func TestParallelBuildStatsParity(t *testing.T) {
	for _, name := range []string{"sym-HSN(3;Q2)", "dirCN(3;Q2)", "paper-example"} {
		ip := parityCases()[name]
		gSeq, _, err := ip.BuildSeq(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gPar, _, err := ip.Build(BuildOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		sSeq := gSeq.Symmetrized().AllPairs()
		sPar := gPar.Symmetrized().AllPairs()
		if sSeq != sPar {
			t.Fatalf("%s: AllPairs %+v (parallel) != %+v (sequential)", name, sPar, sSeq)
		}
	}
}

// TestParallelBuildRepeatable runs the same parallel build twice and demands
// identical output: the dynamic chunk scheduler must not leak schedule
// nondeterminism into the result.
func TestParallelBuildRepeatable(t *testing.T) {
	ip := hsn(4, nucleusQ(2), true).IPGraph()
	g1, ix1, err := ip.Build(BuildOptions{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	g2, ix2, err := ip.Build(BuildOptions{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "sym-HSN(4;Q2)", g1, ix1, g2, ix2)
}

// TestParallelBuildDefaultWorkers pins the dispatch rules: Workers 1 is the
// sequential path, 0 resolves through DefaultWorkers, and both agree with
// the oracle.
func TestParallelBuildDefaultWorkers(t *testing.T) {
	old := DefaultWorkers
	defer func() { DefaultWorkers = old }()

	ip := hsn(3, nucleusQ(2), false).IPGraph()
	gSeq, ixSeq, err := ip.BuildSeq(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, dw := range []int{0, 1, 3} {
		DefaultWorkers = dw
		g, ix, err := ip.Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "HSN(3;Q2)", gSeq, ixSeq, g, ix)
	}
}

// TestParallelBuildLimit checks Limit enforcement on the parallel path: the
// error must name the family and report the attempted vertex count, and no
// partial result may escape.
func TestParallelBuildLimit(t *testing.T) {
	var gens []perm.Perm
	for i := 1; i < 7; i++ {
		gens = append(gens, perm.Transposition(7, 0, i))
	}
	ip := Cayley("S7", gens, nil)
	g, ix, err := ip.Build(BuildOptions{Limit: 100, Workers: 4})
	if err == nil {
		t.Fatal("expected limit error for 7! nodes")
	}
	if g != nil || ix != nil {
		t.Fatal("limit violation must not return a partial graph")
	}
	if !strings.Contains(err.Error(), "S7") || !strings.Contains(err.Error(), "attempted") {
		t.Fatalf("limit error %q must name the family and the attempted count", err)
	}
}

// TestParallelBuildLarge diffs the builders on a >10^6-node symmetric
// super-IP instance (sym-HSN(4;Q4), 24 * 16^4 = 1,572,864 nodes). It takes
// about ten seconds, so it only runs when REPRO_BIG=1 (CI sets it in a step
// of its own); see EXPERIMENTS.md "Building large graphs".
func TestParallelBuildLarge(t *testing.T) {
	if os.Getenv("REPRO_BIG") == "" {
		t.Skip("set REPRO_BIG=1 to run the million-node parity check")
	}
	ip := hsn(4, nucleusQ(4), true).IPGraph()
	gSeq, ixSeq, err := ip.BuildSeq(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ixSeq.N() != 1572864 {
		t.Fatalf("sym-HSN(4;Q4) has %d nodes, want 1572864", ixSeq.N())
	}
	gPar, ixPar, err := ip.Build(BuildOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "sym-HSN(4;Q4)", gSeq, ixSeq, gPar, ixPar)
	_ = gPar
}
