package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/symbols"
)

// nucleusQ builds the hypercube Q_n as a nucleus: n pairs of symbols "12",
// with one pair-swapping generator per dimension. Its IP graph has 2^n
// states (each pair in order "12" or swapped "21") and diameter n.
func nucleusQ(n int) Nucleus {
	seed := symbols.RepeatedSeed(n, symbols.Label{1, 2})
	gens := make([]perm.Perm, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		gens[i] = perm.Transposition(2*n, 2*i, 2*i+1)
		names[i] = "dim" + string(rune('0'+i))
	}
	return Nucleus{Name: "Q" + string(rune('0'+n)), Seed: seed, Gens: gens, GenNames: names}
}

// hsn builds the hierarchical swapped network HSN(l;G) of Section 3.2:
// transposition super-generators T(2,m) ... T(l,m).
func hsn(l int, nuc Nucleus, symmetric bool) *SuperIP {
	m := nuc.M()
	gens := make([]perm.Perm, 0, l-1)
	for i := 1; i < l; i++ {
		gens = append(gens, perm.BlockTransposition(l, m, 0, i))
	}
	return &SuperIP{Name: "HSN", L: l, Nucleus: nuc, SuperGens: gens, Symmetric: symmetric}
}

// ringCN builds the ring cyclic-shift network of Section 3.3 with
// super-generators {L, R}.
func ringCN(l int, nuc Nucleus, symmetric bool) *SuperIP {
	m := nuc.M()
	return &SuperIP{
		Name:      "ring-CN",
		L:         l,
		Nucleus:   nuc,
		SuperGens: []perm.Perm{perm.BlockLeftShift(l, m, 1), perm.BlockRightShift(l, m, 1)},
		Symmetric: symmetric,
	}
}

// superFlip builds the super-flip network of Section 3.4 with flip
// super-generators F(2,m) ... F(l,m).
func superFlip(l int, nuc Nucleus, symmetric bool) *SuperIP {
	m := nuc.M()
	gens := make([]perm.Perm, 0, l-1)
	for i := 2; i <= l; i++ {
		gens = append(gens, perm.BlockFlip(l, m, i))
	}
	return &SuperIP{Name: "SFN", L: l, Nucleus: nuc, SuperGens: gens, Symmetric: symmetric}
}

func TestPaperIPGraphExample(t *testing.T) {
	// Section 2: seed Y = 123123 with generators (1,2), (1,3) and the
	// half-label rotation pi6 yields an IP graph with 36 distinct nodes.
	ip := &IPGraph{
		Name: "paper-example",
		Seed: symbols.Label{1, 2, 3, 1, 2, 3},
		Gens: []perm.Perm{
			perm.Transposition(6, 0, 1),
			perm.Transposition(6, 0, 2),
			perm.BlockLeftShift(2, 3, 1),
		},
	}
	// Check the three neighbors of the seed quoted in the paper:
	// Y pi1 = 213123, Y pi2 = 321123, Y pi6 = 123123 (rotation of the
	// repeated seed is the seed itself... the paper's Y = y1..y6 = 123123,
	// pi6(Y) = y4 y5 y6 y1 y2 y3 = 123123).
	if got := ip.Gens[0].Permuted(ip.Seed); string(got) != string([]byte{2, 1, 3, 1, 2, 3}) {
		t.Fatalf("pi1(Y) = %v", got)
	}
	if got := ip.Gens[1].Permuted(ip.Seed); string(got) != string([]byte{3, 2, 1, 1, 2, 3}) {
		t.Fatalf("pi2(Y) = %v", got)
	}
	g, ix, err := ip.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.N() != 36 {
		t.Fatalf("paper example has %d nodes, want 36", ix.N())
	}
	if !g.Symmetrized().IsConnected() {
		t.Fatal("IP graphs are connected by construction")
	}
}

func TestPaperStarGraphAsIPGraph(t *testing.T) {
	// A 6-star: Cayley graph on 6 distinct symbols with generators (1,i).
	var gens []perm.Perm
	for i := 1; i < 6; i++ {
		gens = append(gens, perm.Transposition(6, 0, i))
	}
	ip := Cayley("S6", gens, nil)
	if !ip.IsCayley() {
		t.Fatal("star graph must satisfy the Cayley condition")
	}
	g, ix, err := ip.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.N() != 720 {
		t.Fatalf("6-star has %d nodes, want 720 = 6!", ix.N())
	}
	if !g.IsRegular() || g.MaxDegree() != 5 {
		t.Fatalf("6-star degree = %d, want 5", g.MaxDegree())
	}
	st := g.AllPairs()
	if st.Diameter != 7 { // floor(3(n-1)/2) = 7 for n = 6
		t.Fatalf("6-star diameter = %d, want 7", st.Diameter)
	}
	if ok, w := g.UniformDistanceProfiles(); !ok {
		t.Fatalf("Cayley graph not vertex-symmetric-looking, witness %v", w)
	}
}

func TestPaperHCNExample(t *testing.T) {
	// Section 2: HCN(2,2) without diameter links is HSN(2;Q2): l = 2 blocks
	// over the Q2 nucleus (labels of 4n = 8 symbols for n = 2 in our pair
	// encoding), generators = nucleus dimensions plus the half-swap T(2,2n).
	s := hsn(2, nucleusQ(2), false)
	g, ix, err := s.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.N() != 16 {
		t.Fatalf("HSN(2;Q2) = HCN(2,2) w/o diameter links has %d nodes, want 16", ix.N())
	}
	// Degree is bounded by the generator count (Theorem 3.1). Nodes whose
	// two halves are equal have a self-loop swap (these are exactly the
	// nodes where the original HCN attaches its diameter links), so they
	// have degree 2; all others have degree 3.
	if g.MaxDegree() != 3 || g.MinDegree() != 2 {
		t.Fatalf("HCN(2,2) degrees = %d..%d, want 2..3", g.MinDegree(), g.MaxDegree())
	}
	if h := g.DegreeHistogram(); h[2] != 4 || h[3] != 12 {
		t.Fatalf("degree histogram = %v, want 4 nodes of degree 2 and 12 of degree 3", h)
	}
	st := g.AllPairs()
	want, err := s.TheoreticalDiameter()
	if err != nil {
		t.Fatal(err)
	}
	if int(st.Diameter) != want {
		t.Fatalf("HSN(2;Q2) diameter = %d, Theorem 4.1 predicts %d", st.Diameter, want)
	}
}

func TestSeedChoiceDoesNotChangeConnectivity(t *testing.T) {
	// Section 2: using any node's label as seed generates the same graph,
	// and using a different symbol alphabet with the same repetition pattern
	// gives a graph with identical connectivity. Build HCN(2,2) from seeds
	// "34 34" (paper) and "12 12" and check the BFS-order bijection is an
	// isomorphism.
	gens := []perm.Perm{
		perm.Transposition(8, 0, 1),
		perm.Transposition(8, 2, 3),
		perm.BlockTransposition(2, 4, 0, 1),
	}
	mk := func(seed symbols.Label) *IPGraph {
		return &IPGraph{Name: "X", Seed: seed, Gens: gens}
	}
	g1, ix1, err := mk(symbols.RepeatedSeed(4, symbols.Label{3, 4})).Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g2, ix2, err := mk(symbols.RepeatedSeed(4, symbols.Label{1, 2})).Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ix1.N() != ix2.N() || ix1.N() != 16 {
		t.Fatalf("sizes: %d vs %d, want 16", ix1.N(), ix2.N())
	}
	// Deterministic BFS with the same generator order explores isomorphic
	// graphs in lockstep, so the identity mapping is an isomorphism.
	mapping := make([]int32, g1.N())
	for i := range mapping {
		mapping[i] = int32(i)
	}
	if err := graph.VerifyIsomorphism(g1, g2, mapping); err != nil {
		t.Fatal(err)
	}
	// Re-seeding from another node's label regenerates the same node set.
	alt := mk(ix1.Label(5))
	_, ixAlt, err := alt.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ixAlt.N() != ix1.N() {
		t.Fatalf("re-seeded size %d != %d", ixAlt.N(), ix1.N())
	}
	for i := 0; i < ix1.N(); i++ {
		if ixAlt.ID(ix1.Label(int32(i))) < 0 {
			t.Fatalf("node %v missing after re-seeding", ix1.Label(int32(i)))
		}
	}
}

func TestDeBruijnAsIPGraph(t *testing.T) {
	// Section 2: the n-dimensional (binary) de Bruijn graph is the IP graph
	// with a 2n-symbol seed of n "12" pairs and two generators: rotate the
	// label left by one pair, or rotate and swap the last pair. The states
	// encode binary strings (pair "12" = 0, "21" = 1); rotation appends the
	// dropped bit, rotation+swap appends its complement, so together they
	// realize both de Bruijn successors.
	for n := 2; n <= 8; n++ {
		rot := perm.BlockLeftShift(n, 2, 1)
		swapLast := perm.Transposition(2*n, 2*n-2, 2*n-1)
		ip := &IPGraph{
			Name: "deBruijn",
			Seed: symbols.RepeatedSeed(n, symbols.Label{1, 2}),
			Gens: []perm.Perm{rot, perm.Compose(rot, swapLast)},
		}
		g, ix, err := ip.Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ix.N() != 1<<n {
			t.Fatalf("de Bruijn n=%d has %d nodes, want %d", n, ix.N(), 1<<n)
		}
		if !g.Directed {
			t.Fatal("de Bruijn generators are not inverse-closed; graph must be directed")
		}
		if !g.IsConnected() {
			t.Fatalf("de Bruijn n=%d not strongly connected", n)
		}
		st := g.AllPairs()
		if int(st.Diameter) != n {
			t.Fatalf("de Bruijn n=%d diameter = %d, want %d", n, st.Diameter, n)
		}
	}
}

func TestHypercubeAsIPGraph(t *testing.T) {
	for n := 1; n <= 9; n++ {
		nuc := nucleusQ(n)
		g, ix, err := nuc.IPGraph().Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ix.N() != 1<<n {
			t.Fatalf("Q%d as IP graph has %d nodes", n, ix.N())
		}
		st := g.AllPairs()
		if int(st.Diameter) != n {
			t.Fatalf("Q%d diameter = %d", n, st.Diameter)
		}
		if g.MaxDegree() != n || !g.IsRegular() {
			t.Fatalf("Q%d degree = %d", n, g.MaxDegree())
		}
	}
}

func TestValidateErrors(t *testing.T) {
	if err := (&IPGraph{}).Validate(); err == nil {
		t.Fatal("empty IP graph must fail validation")
	}
	ip := &IPGraph{Seed: symbols.Label{1, 2}}
	if err := ip.Validate(); err == nil {
		t.Fatal("no generators must fail")
	}
	ip.Gens = []perm.Perm{perm.Identity(3)}
	if err := ip.Validate(); err == nil {
		t.Fatal("size mismatch must fail")
	}
	ip.Gens = []perm.Perm{{0, 0}}
	if err := ip.Validate(); err == nil {
		t.Fatal("invalid permutation must fail")
	}
	ip.Gens = []perm.Perm{perm.Identity(2)}
	ip.GenNames = []string{"a", "b"}
	if err := ip.Validate(); err == nil {
		t.Fatal("name-count mismatch must fail")
	}
	// A Cayley spec over no generators is an error at Build, not a panic.
	if _, _, err := Cayley("empty", nil, nil).Build(BuildOptions{}); err == nil || !strings.Contains(err.Error(), "no generators") {
		t.Fatalf("Cayley with no generators: Build error = %v, want one naming the missing generators", err)
	}
}

func TestBuildLimit(t *testing.T) {
	var gens []perm.Perm
	for i := 1; i < 7; i++ {
		gens = append(gens, perm.Transposition(7, 0, i))
	}
	ip := Cayley("S7", gens, nil)
	_, _, err := ip.Build(BuildOptions{Limit: 100})
	if err == nil {
		t.Fatal("expected limit error for 7! nodes")
	}
	if !strings.Contains(err.Error(), "S7") || !strings.Contains(err.Error(), "attempted") {
		t.Fatalf("limit error %q must name the family and the attempted count", err)
	}
}

func TestGenName(t *testing.T) {
	ip := &IPGraph{
		Seed:     symbols.Label{1, 2},
		Gens:     []perm.Perm{perm.Transposition(2, 0, 1)},
		GenNames: []string{"swap"},
	}
	if ip.GenName(0) != "swap" {
		t.Fatalf("GenName = %q", ip.GenName(0))
	}
	ip.GenNames = nil
	if ip.GenName(0) != "(1 2)" {
		t.Fatalf("default GenName = %q", ip.GenName(0))
	}
}

func TestAttachLabels(t *testing.T) {
	s := hsn(2, nucleusQ(2), false)
	g, _, err := s.Build(BuildOptions{AttachLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Labels == nil || g.Labels[0] != "1212 1212" {
		t.Fatalf("labels = %v", g.Labels[:1])
	}
}

func TestCertifyVertexTransitiveSymmetricVariants(t *testing.T) {
	// Section 3.5: symmetric super-IP graphs are Cayley graphs, hence
	// vertex-symmetric. Certify it exactly: one verified automorphism per
	// node, constructed by symbol substitution.
	for _, s := range []*SuperIP{
		hsn(2, nucleusQ(2), true),
		hsn(3, nucleusQ(2), true),
		ringCN(3, nucleusQ(2), true),
		superFlip(2, nucleusQ(2), true),
	} {
		g, ix, err := s.Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := CertifyVertexTransitive(g, ix); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	// The star graph too (a plain Cayley graph).
	var gens []perm.Perm
	for i := 1; i < 5; i++ {
		gens = append(gens, perm.Transposition(5, 0, i))
	}
	g, ix, err := Cayley("S5", gens, nil).Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CertifyVertexTransitive(g, ix); err != nil {
		t.Fatal(err)
	}
}

func TestCertifyVertexTransitiveRejectsPlainSuperIP(t *testing.T) {
	// Plain HSN(2;Q2) has repeated symbols (and is in fact irregular), so
	// certification must fail.
	s := hsn(2, nucleusQ(2), false)
	g, ix, err := s.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CertifyVertexTransitive(g, ix); err == nil {
		t.Fatal("plain super-IP graph must not certify as Cayley-transitive")
	}
}

func TestCayleyAutomorphismIdentity(t *testing.T) {
	s := hsn(2, nucleusQ(2), true)
	_, ix, err := s.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := CayleyAutomorphism(ix, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for u, v := range mapping {
		if int32(u) != v {
			t.Fatalf("self-automorphism is not the identity at %d", u)
		}
	}
}
