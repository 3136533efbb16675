package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/symbols"
)

// buildCases is the family grid the build tests run over. It mixes
// undirected and directed instances, repeated- and distinct-symbol seeds,
// and every super-generator family of Section 3.
func buildCases() map[string]*IPGraph {
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

// buildGolden pins the exact output of Build: one sha256 per instance over
// the labels in id order, the CSR offsets and edges, and the Directed flag.
// The digests were recorded with the map-keyed intern tables and the
// graph.Builder epilogue, so they hold the table-based builder to the same
// bytes. The sym-HSN(4;Q4) row (1,572,864 nodes) was recorded where a
// sequential and a four-worker parallel enumerator agreed on it.
var buildGolden = map[string]string{
	"HSN(3;Q2)":        "3ad2c0b01f7f600c94328dae9b2e0a3193f42e8b7e05fe4ea78c5197ae1be160",
	"deBruijn-5":       "1806d217b932aa1179c9793a1676cf548cdbf391210bf3a6170e3c70ccca51ac",
	"dirCN(3;Q2)":      "be7032cb74909dd638c8f8dd54e47236f9d03cf4de7421426e50296982da4dcb",
	"paper-example":    "7e9455208edd539e2b023d53b59c56d3906841f10f623cbec5a499227fecc3f0",
	"star-6":           "eff540438d2529d3ef7c5ba44aa8d1453ca1e5ef0bac5efa4df243a32d53fe6a",
	"sym-HSN(3;Q2)":    "5111678b2f19324eeea2206551196020b5bda230d9d5489439d361e2d37f43da",
	"sym-HSN(3;Q4)":    "4456d10cfb1628a19c2a3e29a139698dfe5ea3a313a5f471050f1ab08e38e375",
	"sym-HSN(4;Q4)":    "b6c797b76698e9899fc4e183337750133760d50b7a3df92105dc12d8faa6ae5e",
	"sym-HSN(4;Q2)":    "7508e2a5d8e0edf8a2b53ccde79714ade6a6229fcf69bc5692f55d3923900faa",
	"sym-SFN(3;Q2)":    "5111678b2f19324eeea2206551196020b5bda230d9d5489439d361e2d37f43da",
	"sym-ringCN(3;Q2)": "b30ea322d71e941eee6e0b26e99521a4ea671be200e901c18666b374485a51f4",
}

// buildDigest hashes a built graph and its index as buildGolden records them.
func buildDigest(g *graph.Graph, ix *Index) string {
	h := sha256.New()
	for id := int32(0); id < int32(ix.N()); id++ {
		h.Write(ix.Label(id))
	}
	var b []byte
	off := uint32(0)
	b = binary.LittleEndian.AppendUint32(b, off)
	for u := int32(0); u < int32(g.N()); u++ {
		off += uint32(g.Degree(u))
		b = binary.LittleEndian.AppendUint32(b, off)
	}
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	if g.Directed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// bigBuildCase is the buildGolden row that TestBuildGolden builds only
// when REPRO_BIG=1: it takes a few seconds and about 300 MiB.
const bigBuildCase = "sym-HSN(4;Q4)"

// TestBuildGolden builds every grid instance plus sym-HSN(3;Q4) (24,576
// nodes), and sym-HSN(4;Q4) under REPRO_BIG=1, and compares each digest
// against buildGolden.
func TestBuildGolden(t *testing.T) {
	cases := buildCases()
	cases["sym-HSN(3;Q4)"] = hsn(3, nucleusQ(4), true).IPGraph()
	if os.Getenv("REPRO_BIG") != "" {
		cases[bigBuildCase] = hsn(4, nucleusQ(4), true).IPGraph()
	}
	for name := range buildGolden {
		if _, ok := cases[name]; !ok && name != bigBuildCase {
			t.Errorf("%s: golden digest without a build case", name)
		}
	}
	for name, ip := range cases {
		want, ok := buildGolden[name]
		if !ok {
			t.Fatalf("%s: no golden digest", name)
		}
		g, ix, err := ip.Build(BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := buildDigest(g, ix); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}

// TestFinishMatchesBuilder checks finish's CSR rows against a graph.Builder
// realization of the same arc table on every grid instance: both
// directions of every arc when the generators are closed under inverse, the
// arc alone otherwise, with sorting and duplicate removal left to
// Builder.Build.
func TestFinishMatchesBuilder(t *testing.T) {
	for name, ip := range buildCases() {
		_, ix, err := ip.Build(BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		undirected := perm.ClosedUnderInverse(ip.Gens)
		b := graph.NewBuilder(ix.N(), !undirected)
		arcs := make([]int32, 0, ix.N()*len(ip.Gens))
		buf := make(symbols.Label, len(ip.Seed))
		for u := int32(0); u < int32(ix.N()); u++ {
			for _, g := range ip.Gens {
				g.Apply(buf, ix.Label(u))
				v := ix.ID(buf)
				arcs = append(arcs, v)
				if undirected {
					b.AddEdge(u, v)
				} else {
					b.AddArc(u, v)
				}
			}
		}
		got, _, err := ip.finish(ix, arcs)
		if err != nil {
			t.Fatalf("%s: finish: %v", name, err)
		}
		if buildDigest(got, ix) != buildDigest(b.Build(), ix) {
			t.Errorf("%s: finish's CSR rows differ from graph.Builder's", name)
		}
	}
}

// TestBuildAllocsPerNode bounds the allocations of Build on the
// 98,304-node sym-HSN(4;Q3) below N/64: the builder allocates per table
// growth, and an allocation per node must not creep back.
func TestBuildAllocsPerNode(t *testing.T) {
	ip := hsn(4, nucleusQ(3), true).IPGraph()
	const n = 98304
	var nodes int
	allocs := testing.AllocsPerRun(1, func() {
		g, _, err := ip.Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		nodes = g.N()
	})
	if nodes != n {
		t.Fatalf("built %d nodes, want %d", nodes, n)
	}
	if allocs >= n/64 {
		t.Errorf("%.0f allocations, want fewer than N/64 = %d", allocs, n/64)
	}
	t.Logf("%.0f allocations for %d nodes", allocs, n)
}

// TestInternProbeLengths checks that labelHash spreads labels over the slots
// of the intern table. On the 16-state Q4 nucleus, whose labels differ only
// in a few symbol pairs, and on sym-HSN(3;Q4), the mean distance of a label
// from its home slot stays at most 0.75 slots; a uniform hash gives about
// half a slot at the table's highest load of one half. Plain FNV-1a, whose
// top bits ignore the last bytes of a label, reads 1.0 on the Q4 nucleus.
func TestInternProbeLengths(t *testing.T) {
	nq := nucleusQ(4)
	cases := map[string]*IPGraph{
		"Q4":            {Name: "Q4", Seed: nq.Seed, Gens: nq.Gens},
		"sym-HSN(3;Q4)": hsn(3, nucleusQ(4), true).IPGraph(),
	}
	for name, ip := range cases {
		_, ix, err := ip.Build(BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tb := &ix.table
		dist, n := 0, 0
		mask := uint32(len(tb.slots) - 1)
		for i, s := range tb.slots {
			if s.ref != 0 {
				dist += int((uint32(i) - s.fp>>tb.shift) & mask)
				n++
			}
		}
		if n != ix.N() {
			t.Fatalf("%s: table holds %d labels, index %d", name, n, ix.N())
		}
		if mean := float64(dist) / float64(n); mean > 0.75 {
			t.Errorf("%s: mean probe distance %.2f slots, want at most 0.75", name, mean)
		}
	}
}
