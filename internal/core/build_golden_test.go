package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/symbols"
)

// buildGolden pins the exact output of both builders: one sha256 per
// instance over the labels in id order, the CSR offsets and edges, and the
// Directed flag. The digests were recorded with the map-keyed intern tables
// and the graph.Builder epilogue, so they hold the table-based builder to
// the same bytes. TestParallelBuildGoldenParity compares the two builders
// with each other; this test also catches a fault they share.
var buildGolden = map[string]string{
	"HSN(3;Q2)":        "3ad2c0b01f7f600c94328dae9b2e0a3193f42e8b7e05fe4ea78c5197ae1be160",
	"deBruijn-5":       "1806d217b932aa1179c9793a1676cf548cdbf391210bf3a6170e3c70ccca51ac",
	"dirCN(3;Q2)":      "be7032cb74909dd638c8f8dd54e47236f9d03cf4de7421426e50296982da4dcb",
	"paper-example":    "7e9455208edd539e2b023d53b59c56d3906841f10f623cbec5a499227fecc3f0",
	"star-6":           "eff540438d2529d3ef7c5ba44aa8d1453ca1e5ef0bac5efa4df243a32d53fe6a",
	"sym-HSN(3;Q2)":    "5111678b2f19324eeea2206551196020b5bda230d9d5489439d361e2d37f43da",
	"sym-HSN(3;Q4)":    "4456d10cfb1628a19c2a3e29a139698dfe5ea3a313a5f471050f1ab08e38e375",
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

// TestBuildGolden builds every parity-grid instance plus sym-HSN(3;Q4)
// (24,576 nodes) sequentially and with two workers, and compares both
// digests against buildGolden.
func TestBuildGolden(t *testing.T) {
	cases := parityCases()
	cases["sym-HSN(3;Q4)"] = hsn(3, nucleusQ(4), true).IPGraph()
	if len(cases) != len(buildGolden) {
		t.Fatalf("%d build cases, %d golden digests", len(cases), len(buildGolden))
	}
	for name, ip := range cases {
		want, ok := buildGolden[name]
		if !ok {
			t.Fatalf("%s: no golden digest", name)
		}
		builds := map[string]func(BuildOptions) (*graph.Graph, *Index, error){
			"BuildSeq": ip.BuildSeq, "Build": ip.Build,
		}
		for kind, build := range builds {
			g, ix, err := build(BuildOptions{Workers: 2})
			if err != nil {
				t.Fatalf("%s %s: %v", name, kind, err)
			}
			if got := buildDigest(g, ix); got != want {
				t.Errorf("%s %s: digest %s, want %s", name, kind, got, want)
			}
		}
	}
}

// TestFinishMatchesBuilder checks finish's CSR rows against a graph.Builder
// realization of the same arc table on every parity-grid instance: both
// directions of every arc when the generators are closed under inverse, the
// arc alone otherwise, with sorting and duplicate removal left to
// Builder.Build.
func TestFinishMatchesBuilder(t *testing.T) {
	for name, ip := range parityCases() {
		_, ix, err := ip.BuildSeq(BuildOptions{})
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
		assertIdentical(t, name, b.Build(), ix, got, ix)
	}
}

// TestBuildAllocsPerNode bounds the allocations of both builders on the
// 98,304-node sym-HSN(4;Q3) below N/64: the builders allocate per level and
// per table growth, and an allocation per node must not creep back.
func TestBuildAllocsPerNode(t *testing.T) {
	ip := hsn(4, nucleusQ(3), true).IPGraph()
	const n = 98304
	builds := map[string]func(BuildOptions) (*graph.Graph, *Index, error){
		"BuildSeq": ip.BuildSeq, "Build(Workers: 2)": ip.Build,
	}
	for name, build := range builds {
		var nodes int
		allocs := testing.AllocsPerRun(1, func() {
			g, _, err := build(BuildOptions{Workers: 2})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			nodes = g.N()
		})
		if nodes != n {
			t.Fatalf("%s: built %d nodes, want %d", name, nodes, n)
		}
		if allocs >= n/64 {
			t.Errorf("%s: %.0f allocations, want fewer than N/64 = %d", name, allocs, n/64)
		}
		t.Logf("%s: %.0f allocations for %d nodes", name, allocs, n)
	}
}

// TestInternProbeLengths checks that labelHash spreads labels over the slots
// of the intern tables. On the 16-state Q4 nucleus, whose labels differ only
// in a few symbol pairs, and on sym-HSN(3;Q4), the mean distance of a label
// from its home slot stays at most 0.75 slots; a uniform hash gives about
// half a slot at the tables' highest load of one half. Plain FNV-1a, whose
// top bits ignore the last bytes of a label, reads 1.0 on the Q4 nucleus.
func TestInternProbeLengths(t *testing.T) {
	nq := nucleusQ(4)
	cases := map[string]*IPGraph{
		"Q4":            {Name: "Q4", Seed: nq.Seed, Gens: nq.Gens},
		"sym-HSN(3;Q4)": hsn(3, nucleusQ(4), true).IPGraph(),
	}
	for name, ip := range cases {
		for _, w := range []int{1, 2} {
			_, ix, err := ip.Build(BuildOptions{Workers: w})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dist, n := 0, 0
			for _, tb := range ix.tables {
				mask := uint32(len(tb.slots) - 1)
				for i, s := range tb.slots {
					if s.ref != 0 {
						dist += int((uint32(i) - s.fp>>tb.shift) & mask)
						n++
					}
				}
			}
			if n != ix.N() {
				t.Fatalf("%s workers=%d: tables hold %d labels, index %d", name, w, n, ix.N())
			}
			if mean := float64(dist) / float64(n); mean > 0.75 {
				t.Errorf("%s workers=%d: mean probe distance %.2f slots, want at most 0.75", name, w, mean)
			}
		}
	}
}
