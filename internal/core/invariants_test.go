package core

import (
	"slices"
	"testing"

	"repro/internal/perm"
)

// completeCN builds the complete cyclic-shift network CN(l;G) of Section 3.3
// with super-generators L(1,m) .. L(l-1,m).
func completeCN(l int, nuc Nucleus, symmetric bool) *SuperIP {
	m := nuc.M()
	gens := make([]perm.Perm, 0, l-1)
	for i := 1; i < l; i++ {
		gens = append(gens, perm.BlockLeftShift(l, m, i))
	}
	return &SuperIP{Name: "CN", L: l, Nucleus: nuc, SuperGens: gens, Symmetric: symmetric}
}

// dirCN builds the directed cyclic-shift network with the single shift {L}.
func dirCN(l int, nuc Nucleus, symmetric bool) *SuperIP {
	m := nuc.M()
	return &SuperIP{
		Name:      "dir-CN",
		L:         l,
		Nucleus:   nuc,
		SuperGens: []perm.Perm{perm.BlockLeftShift(l, m, 1)},
		Symmetric: symmetric,
	}
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

func pow(m, l int) int {
	p := 1
	for i := 0; i < l; i++ {
		p *= m
	}
	return p
}

// TestInvariantNodeCounts checks the paper-predicted node counts over a grid
// of small instances: Theorem 3.2 gives N = M^l for plain super-IP graphs;
// the Section 3.5 extension multiplies by the number of reachable
// super-symbol arrangements — l! for the transposition (HSN) and flip (SFN)
// families, l for the cyclic-shift (CN) families.
func TestInvariantNodeCounts(t *testing.T) {
	type family struct {
		name string
		mk   func(l int, nuc Nucleus, sym bool) *SuperIP
		// arrangements(l) for the symmetric variant
		arr func(l int) int
	}
	families := []family{
		{"HSN", hsn, factorial},
		{"SFN", superFlip, factorial},
		{"ringCN", ringCN, func(l int) int { return l }},
		{"CN", completeCN, func(l int) int { return l }},
		{"dirCN", dirCN, func(l int) int { return l }},
	}
	for _, fam := range families {
		for _, n := range []int{2, 3} {
			for _, l := range []int{2, 3} {
				if fam.name == "ringCN" && l < 3 {
					continue // for l = 2, L and R coincide; covered by HSN/CN
				}
				M := 1 << n // nucleusQ(n) has 2^n states
				for _, sym := range []bool{false, true} {
					s := fam.mk(l, nucleusQ(n), sym)
					_, ix, err := s.Build(BuildOptions{})
					if err != nil {
						t.Fatalf("%s(%d;Q%d) sym=%v: %v", fam.name, l, n, sym, err)
					}
					want := pow(M, l)
					if sym {
						want *= fam.arr(l)
					}
					if ix.N() != want {
						t.Errorf("%s(%d;Q%d) sym=%v: N = %d, want %d",
							fam.name, l, n, sym, ix.N(), want)
					}
					// Cross-check against the model's own prediction.
					if predicted, err := s.ExpectedSize(); err != nil {
						t.Fatalf("%s(%d;Q%d): ExpectedSize: %v", fam.name, l, n, err)
					} else if predicted != ix.N() {
						t.Errorf("%s(%d;Q%d) sym=%v: ExpectedSize = %d, built %d",
							fam.name, l, n, sym, predicted, ix.N())
					}
				}
			}
		}
	}
}

// TestInvariantRegularityAndDegree checks the degree law on symmetric
// variants: distinct-seed super-IP graphs are Cayley graphs, hence regular,
// and with all generator images distinct their degree is exactly the
// generator count d_N + d_S (Theorem 3.1's upper bound met with equality).
func TestInvariantRegularityAndDegree(t *testing.T) {
	cases := []struct {
		name   string
		s      *SuperIP
		degree int
	}{
		{"sym-HSN(3;Q2)", hsn(3, nucleusQ(2), true), 2 + 2},
		{"sym-HSN(2;Q3)", hsn(2, nucleusQ(3), true), 3 + 1},
		{"sym-SFN(3;Q2)", superFlip(3, nucleusQ(2), true), 2 + 2},
		{"sym-ringCN(3;Q2)", ringCN(3, nucleusQ(2), true), 2 + 2},
		{"sym-CN(3;Q2)", completeCN(3, nucleusQ(2), true), 2 + 2},
	}
	for _, c := range cases {
		g, ix, err := c.s.Build(BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !g.IsRegular() {
			t.Errorf("%s: symmetric super-IP graphs are Cayley graphs and must be regular (degrees %d..%d)",
				c.name, g.MinDegree(), g.MaxDegree())
		}
		if g.MaxDegree() != c.degree {
			t.Errorf("%s: degree = %d, want %d", c.name, g.MaxDegree(), c.degree)
		}
		if id := ix.ID(c.s.SeedLabel()); id != 0 {
			t.Errorf("%s: seed must be node 0, got %d", c.name, id)
		}
		if !g.Symmetrized().IsConnected() {
			t.Errorf("%s: IP graphs are connected by construction", c.name)
		}
	}
}

// TestInvariantInverseClosureUndirected checks that generator sets closed
// under inverse yield undirected graphs and non-closed sets directed ones,
// across the family grid.
func TestInvariantInverseClosureUndirected(t *testing.T) {
	cases := []struct {
		name string
		s    *SuperIP
	}{
		{"HSN(2;Q2)", hsn(2, nucleusQ(2), false)},
		{"HSN(3;Q3)", hsn(3, nucleusQ(3), false)},
		{"SFN(3;Q2)", superFlip(3, nucleusQ(2), false)},
		{"ringCN(3;Q2)", ringCN(3, nucleusQ(2), false)},
		{"CN(3;Q2)", completeCN(3, nucleusQ(2), false)},
		{"dirCN(3;Q2)", dirCN(3, nucleusQ(2), false)},
		{"dirCN(2;Q2)", dirCN(2, nucleusQ(2), false)}, // L = R for l=2: closed
		{"sym-dirCN(3;Q2)", dirCN(3, nucleusQ(2), true)},
	}
	for _, c := range cases {
		ip := c.s.IPGraph()
		closed := perm.ClosedUnderInverse(ip.Gens)
		g, _, err := c.s.Build(BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if g.Directed == closed {
			t.Errorf("%s: inverse-closed=%v but directed=%v", c.name, closed, g.Directed)
		}
		if g.Directed {
			// Directed IP graphs must still be strongly connected: every
			// generator is a permutation, so its action is invertible.
			if !g.IsConnected() {
				t.Errorf("%s: directed IP graph must be strongly connected", c.name)
			}
		}
	}
}

// TestInvariantBFSLevelOrder checks the id-assignment contract of Build:
// node ids are nondecreasing in BFS distance from the seed, so the index
// order is a valid level order.
func TestInvariantBFSLevelOrder(t *testing.T) {
	s := hsn(3, nucleusQ(2), true)
	g, ix, err := s.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dist := g.Symmetrized().BFS(0)
	for id := 1; id < ix.N(); id++ {
		if dist[id] < dist[id-1] {
			t.Fatalf("node %d at distance %d precedes node %d at distance %d",
				id-1, dist[id-1], id, dist[id])
		}
	}
}

// TestInvariantLimitSequential is the regression test for the size
// checks of Build: past Limit, and past the int32 arc slot space (node ids,
// arc slots and CSR offsets are int32, so a build whose vertex count times
// generator count passes math.MaxInt32 must fail rather than wrap). The
// error must name the family, report the attempted vertex count, and fire
// before the offending node contributes arcs (no partial result escapes).
// With the first 46,341 permutations of 9 symbols (lexicographic, the
// identity first) as generators, the seed reaches 46,340 new labels at
// once, and 46,341^2 passes math.MaxInt32 on the last of them.
func TestInvariantLimitSequential(t *testing.T) {
	var star []perm.Perm
	for i := 1; i < 7; i++ {
		star = append(star, perm.Transposition(7, 0, i))
	}
	const G = 46341
	dense := make([]perm.Perm, 0, G)
	for p := perm.Identity(9); len(dense) < G; nextPerm(p) {
		dense = append(dense, p.Clone())
	}
	cases := []struct {
		ip    *IPGraph
		limit int
		want  string
	}{
		{Cayley("S7", star, nil), 100, "core: S7 exceeds vertex limit 100 (attempted 101 vertices)"},
		{Cayley("S9-dense", dense, nil), 1 << 20,
			"core: S9-dense with 46341 generators overflows the int32 arc slots (attempted 46341 vertices)"},
	}
	for _, c := range cases {
		g, ix, err := c.ip.Build(BuildOptions{Limit: c.limit})
		if err == nil {
			t.Fatalf("%s: expected a size error", c.ip.Name)
		}
		if g != nil || ix != nil {
			t.Fatalf("%s: a size error must not return a partial graph", c.ip.Name)
		}
		if err.Error() != c.want {
			t.Fatalf("%s: error = %q, want %q", c.ip.Name, err, c.want)
		}
	}
}

// nextPerm steps p to its lexicographic successor, wrapping the last
// permutation to the identity.
func nextPerm(p perm.Perm) {
	i := len(p) - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i >= 0 {
		j := len(p) - 1
		for p[j] <= p[i] {
			j--
		}
		p[i], p[j] = p[j], p[i]
	}
	slices.Reverse(p[i+1:])
}
