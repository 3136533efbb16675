package core

import (
	"testing"

	"repro/internal/perm"
	"repro/internal/symbols"
)

// nucleusK builds the complete graph K_k as a nucleus: k distinct symbols
// with one transposition generator (1,i) per other position would give a
// star; instead we use all transpositions of position 1 with i plus... K_k
// as an IP graph: seed "12...k"? The complete graph on k nodes arises from a
// single-symbol viewpoint: use k symbols with one '2' marker and the
// matchings realizing K_k. Simplest faithful nucleus: one-hot labels with
// all transpositions (i j) involving the marker... all transpositions (1,i)
// move the marker only when it sits at 1. To get K_k cleanly we use the
// one-hot encoding with ALL transpositions (i,j): the marker moves from any
// position to any other, giving K_k.
func nucleusK(k int) Nucleus {
	seed := symbols.ConstantSeed(k, 1)
	seed[0] = 2
	var gens []perm.Perm
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			gens = append(gens, perm.Transposition(k, i, j))
		}
	}
	return Nucleus{Name: "K", Seed: seed, Gens: gens}
}

func TestTheorem32SizeLaw(t *testing.T) {
	// Theorem 3.2: a (plain) super-IP graph has N = M^l nodes.
	cases := []struct {
		s *SuperIP
		m int
	}{
		{hsn(2, nucleusQ(2), false), 4},
		{hsn(3, nucleusQ(2), false), 4},
		{hsn(2, nucleusQ(3), false), 8},
		{hsn(4, nucleusQ(2), false), 4},
		{ringCN(3, nucleusQ(2), false), 4},
		{ringCN(4, nucleusQ(2), false), 4},
		{superFlip(3, nucleusQ(2), false), 4},
		{hsn(2, nucleusK(5), false), 5},
		{ringCN(3, nucleusK(4), false), 4},
	}
	for _, c := range cases {
		mGot, err := c.s.NucleusSize()
		if err != nil {
			t.Fatalf("%s: %v", c.s.Name, err)
		}
		if mGot != c.m {
			t.Fatalf("%s nucleus size = %d, want %d", c.s.Name, mGot, c.m)
		}
		want, err := c.s.ExpectedSize()
		if err != nil {
			t.Fatal(err)
		}
		_, ix, err := c.s.Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ix.N() != want {
			t.Fatalf("%s(l=%d) has %d nodes, Theorem 3.2 predicts %d", c.s.Name, c.s.L, ix.N(), want)
		}
	}
}

func TestTheorem31DegreeBound(t *testing.T) {
	// Theorem 3.1: degree <= number of generators.
	for _, s := range []*SuperIP{
		hsn(3, nucleusQ(2), false),
		ringCN(4, nucleusQ(2), false),
		superFlip(3, nucleusQ(2), false),
		hsn(2, nucleusQ(3), true),
	} {
		g, _, err := s.Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bound := len(s.Nucleus.Gens) + len(s.SuperGens)
		if g.MaxDegree() > bound {
			t.Fatalf("%s degree %d exceeds generator count %d", s.Name, g.MaxDegree(), bound)
		}
	}
}

func TestScheduleTEqualsLMinus1(t *testing.T) {
	// Section 4: t >= l-1 always, and t = l-1 for every family of Section 3.
	for l := 2; l <= 6; l++ {
		for _, s := range []*SuperIP{
			hsn(l, nucleusQ(2), false),
			ringCN(l, nucleusQ(2), false),
			superFlip(l, nucleusQ(2), false),
		} {
			sched, err := s.MinCoverSchedule()
			if err != nil {
				t.Fatalf("%s l=%d: %v", s.Name, l, err)
			}
			if sched.T() != l-1 {
				t.Fatalf("%s l=%d: t = %d, want %d", s.Name, l, sched.T(), l-1)
			}
			// The schedule must bring every super-symbol to the leftmost
			// position at least once.
			first := sched.FirstLeftmost()
			for b, f := range first {
				if f < 0 {
					t.Fatalf("%s l=%d: super-symbol %d never leftmost", s.Name, l, b)
				}
			}
			// Final positions must be a permutation.
			d := sched.FinalPositions()
			if err := perm.Perm(d).Validate(); err != nil {
				t.Fatalf("%s l=%d: FinalPositions invalid: %v", s.Name, l, err)
			}
		}
	}
}

func TestTheorem41DiameterExact(t *testing.T) {
	// Theorem 4.1: diameter = l*D_G + t, verified by exhaustive BFS.
	for _, s := range []*SuperIP{
		hsn(2, nucleusQ(2), false), // HCN(2,2) w/o diameter links
		hsn(3, nucleusQ(2), false), // Fig 1b
		hsn(2, nucleusQ(3), false), // HCN(3,3) w/o diameter links
		hsn(4, nucleusQ(2), false), // deeper hierarchy
		ringCN(2, nucleusQ(2), false),
		ringCN(3, nucleusQ(2), false),
		ringCN(4, nucleusQ(2), false),
		ringCN(3, nucleusQ(3), false),
		superFlip(2, nucleusQ(2), false),
		superFlip(3, nucleusQ(2), false),
		superFlip(4, nucleusQ(2), false),
		hsn(3, nucleusK(4), false),
		ringCN(3, nucleusK(4), false),
	} {
		g, _, err := s.Build(BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		st := g.AllPairs()
		if !st.Connected {
			t.Fatalf("%s(l=%d) disconnected", s.Name, s.L)
		}
		want, err := s.TheoreticalDiameter()
		if err != nil {
			t.Fatal(err)
		}
		if int(st.Diameter) != want {
			t.Fatalf("%s(l=%d) diameter = %d, Theorem 4.1 predicts %d",
				s.Name, s.L, st.Diameter, want)
		}
	}
}

func TestCorollary42DiameterFormula(t *testing.T) {
	// Corollary 4.2: the diameter of an N-node HSN, ring-CN, or super-flip
	// network is (D_G + 1) * log_M(N) - 1 (with t = l-1 and N = M^l).
	for l := 2; l <= 4; l++ {
		for _, s := range []*SuperIP{
			hsn(l, nucleusQ(2), false),
			ringCN(l, nucleusQ(2), false),
			superFlip(l, nucleusQ(2), false),
		} {
			dg, err := s.NucleusDiameter()
			if err != nil {
				t.Fatal(err)
			}
			want := (dg+1)*l - 1 // l = log_M N
			got, err := s.TheoreticalDiameter()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s l=%d: diameter %d, Corollary 4.2 predicts %d", s.Name, l, got, want)
			}
		}
	}
}

func TestSymmetricSuperIPSizes(t *testing.T) {
	// Section 3.5: a symmetric HSN(l;G) has l!*M^l nodes; a symmetric
	// ring-CN(l;G) has l*M^l nodes (l reachable cyclic arrangements).
	fact := func(n int) int {
		f := 1
		for i := 2; i <= n; i++ {
			f *= i
		}
		return f
	}
	for l := 2; l <= 3; l++ {
		sh := hsn(l, nucleusQ(2), true)
		_, ix, err := sh.Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := sh.NucleusSize()
		want := fact(l)
		for i := 0; i < l; i++ {
			want *= m
		}
		if ix.N() != want {
			t.Fatalf("symmetric HSN(l=%d) has %d nodes, want %d", l, ix.N(), want)
		}
		exp, err := sh.ExpectedSize()
		if err != nil || exp != want {
			t.Fatalf("ExpectedSize = %d (%v), want %d", exp, err, want)
		}
	}
	for _, l := range []int{3, 4} {
		sc := ringCN(l, nucleusQ(2), true)
		_, ix, err := sc.Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := sc.NucleusSize()
		want := l
		for i := 0; i < l; i++ {
			want *= m
		}
		if ix.N() != want {
			t.Fatalf("symmetric ring-CN(l=%d) has %d nodes, want %d", l, ix.N(), want)
		}
	}
}

func TestSymmetricSuperIPIsRegularAndVertexSymmetric(t *testing.T) {
	// Section 3.5: symmetric super-IP graphs are Cayley graphs, hence
	// vertex-symmetric and regular.
	for _, s := range []*SuperIP{
		hsn(2, nucleusQ(2), true),
		hsn(3, nucleusQ(2), true),
		ringCN(3, nucleusQ(2), true),
		superFlip(3, nucleusQ(2), true),
	} {
		if !s.IPGraph().IsCayley() {
			t.Fatalf("%s symmetric variant must satisfy the Cayley condition", s.Name)
		}
		g, _, err := s.Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsRegular() {
			t.Fatalf("symmetric %s not regular: degrees %v", s.Name, g.DegreeHistogram())
		}
		if ok, w := g.UniformDistanceProfiles(); !ok {
			t.Fatalf("symmetric %s has non-uniform distance profiles at %v", s.Name, w)
		}
	}
}

func TestTheorem43SymmetricDiameter(t *testing.T) {
	// Theorem 4.3: the diameter of a symmetric super-IP graph is l*D_G + t_S.
	for _, s := range []*SuperIP{
		hsn(2, nucleusQ(2), true),
		hsn(3, nucleusQ(2), true),
		ringCN(3, nucleusQ(2), true),
		superFlip(2, nucleusQ(2), true),
		superFlip(3, nucleusQ(2), true),
	} {
		g, _, err := s.Build(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st := g.AllPairs()
		want, err := s.TheoreticalDiameter()
		if err != nil {
			t.Fatal(err)
		}
		if int(st.Diameter) != want {
			t.Fatalf("symmetric %s(l=%d): diameter = %d, Theorem 4.3 predicts %d",
				s.Name, s.L, st.Diameter, want)
		}
	}
}

func TestTSymVsT(t *testing.T) {
	// t_S >= t always; for l = 2 transposition super-generators t = 1 but
	// t_S = 2 (returning to the identity arrangement costs one more swap).
	s := hsn(2, nucleusQ(2), false)
	sched, err := s.MinCoverSchedule()
	if err != nil {
		t.Fatal(err)
	}
	tS, err := s.TSym()
	if err != nil {
		t.Fatal(err)
	}
	if sched.T() != 1 || tS != 2 {
		t.Fatalf("HSN(2): t = %d (want 1), t_S = %d (want 2)", sched.T(), tS)
	}
}

func TestSuperIPValidateErrors(t *testing.T) {
	nuc := nucleusQ(2)
	bad := &SuperIP{Name: "bad", L: 1, Nucleus: nuc}
	if err := bad.Validate(); err == nil {
		t.Fatal("l = 1 must fail")
	}
	bad = &SuperIP{Name: "bad", L: 2, Nucleus: Nucleus{}}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty nucleus must fail")
	}
	bad = &SuperIP{Name: "bad", L: 2, Nucleus: nuc}
	if err := bad.Validate(); err == nil {
		t.Fatal("no super-generators must fail")
	}
	// A generator that is not block-structured must be rejected.
	notBlock := perm.Transposition(8, 0, 4)
	bad = &SuperIP{Name: "bad", L: 2, Nucleus: nuc, SuperGens: []perm.Perm{notBlock}}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-block super-generator must fail")
	}
	// A super-generator set that never moves block 2 to the front must fail.
	stuck := perm.BlockTransposition(3, 4, 1, 2)
	bad = &SuperIP{Name: "bad", L: 3, Nucleus: nuc, SuperGens: []perm.Perm{stuck}}
	if err := bad.Validate(); err == nil {
		t.Fatal("super-generators that never reach leftmost must fail")
	}
}

func TestBlockPerms(t *testing.T) {
	s := ringCN(4, nucleusQ(2), false)
	bps, err := s.BlockPerms()
	if err != nil {
		t.Fatal(err)
	}
	if len(bps) != 2 {
		t.Fatalf("ring-CN has %d block perms", len(bps))
	}
	// L shifts blocks left: block perm [1 2 3 0].
	if !bps[0].Equal(perm.Perm{1, 2, 3, 0}) {
		t.Fatalf("L block perm = %v", bps[0])
	}
	if !bps[1].Equal(perm.Perm{3, 0, 1, 2}) {
		t.Fatalf("R block perm = %v", bps[1])
	}
}
