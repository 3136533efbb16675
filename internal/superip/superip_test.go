package superip

import (
	"testing"

	"repro/internal/core"
	"repro/internal/networks"
)

// checkNet builds the network and verifies every analytic statistic.
func checkNet(t *testing.T, n *Net) {
	t.Helper()
	g, err := n.Build()
	if err != nil {
		t.Fatalf("%s: %v", n.Name(), err)
	}
	if g.N() != n.N() {
		t.Fatalf("%s: built %d nodes, analytic %d", n.Name(), g.N(), n.N())
	}
	if g.MaxDegree() != n.Degree() {
		t.Fatalf("%s: built degree %d, analytic %d", n.Name(), g.MaxDegree(), n.Degree())
	}
	st := g.Symmetrized().AllPairs()
	if !st.Connected {
		t.Fatalf("%s: disconnected", n.Name())
	}
	var diam int
	if g.Directed {
		diam = int(g.AllPairs().Diameter) // directed diameter
	} else {
		diam = int(st.Diameter)
	}
	if diam != n.Diameter() {
		t.Fatalf("%s: built diameter %d, analytic %d", n.Name(), diam, n.Diameter())
	}
	// The covering-schedule computation must agree with t = l-1 (plain).
	if !n.Symmetric {
		sched, err := n.Super().MinCoverSchedule()
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		if sched.T() != n.L-1 {
			t.Fatalf("%s: t = %d, want %d", n.Name(), sched.T(), n.L-1)
		}
	}
}

func TestHSNFamilies(t *testing.T) {
	checkNet(t, HSN(2, NucleusHypercube(2)))
	checkNet(t, HSN(3, NucleusHypercube(2)))
	checkNet(t, HSN(4, NucleusHypercube(2)))
	checkNet(t, HSN(2, NucleusHypercube(3)))
	checkNet(t, HSN(2, NucleusHypercube(4)))
	checkNet(t, HSN(3, NucleusHypercube(3)))
	checkNet(t, HSN(2, NucleusFoldedHypercube(3)))
	checkNet(t, HSN(2, NucleusPetersen()))
	checkNet(t, HSN(3, NucleusComplete(4)))
	checkNet(t, HSN(2, NucleusStar(4)))
}

func TestRingCNFamilies(t *testing.T) {
	checkNet(t, RingCN(2, NucleusHypercube(2)))
	checkNet(t, RingCN(3, NucleusHypercube(2)))
	checkNet(t, RingCN(4, NucleusHypercube(2)))
	checkNet(t, RingCN(5, NucleusHypercube(2)))
	checkNet(t, RingCN(3, NucleusHypercube(4)))
	checkNet(t, RingCN(3, NucleusFoldedHypercube(4)))
	checkNet(t, RingCN(3, NucleusPetersen()))
}

func TestCompleteCNFamilies(t *testing.T) {
	checkNet(t, CompleteCN(2, NucleusHypercube(2)))
	checkNet(t, CompleteCN(3, NucleusHypercube(2)))
	checkNet(t, CompleteCN(4, NucleusHypercube(2)))
	checkNet(t, CompleteCN(3, NucleusHypercube(4)))
	checkNet(t, CompleteCN(3, NucleusFoldedHypercube(4)))
	checkNet(t, CompleteCN(2, NucleusPetersen()))
}

func TestSuperFlipFamilies(t *testing.T) {
	checkNet(t, SuperFlip(2, NucleusHypercube(2)))
	checkNet(t, SuperFlip(3, NucleusHypercube(2)))
	checkNet(t, SuperFlip(4, NucleusHypercube(2)))
	checkNet(t, SuperFlip(3, NucleusHypercube(3)))
}

func TestDirectedCN(t *testing.T) {
	checkNet(t, DirectedCN(3, NucleusHypercube(2)))
	checkNet(t, DirectedCN(4, NucleusHypercube(2)))
}

func TestRCC(t *testing.T) {
	r := RCC(3, 4)
	checkNet(t, r)
	if r.N() != 64 {
		t.Fatalf("RCC(3;K4) has %d nodes", r.N())
	}
	// Corollary 4.2 for RCC: (D_G+1)*l - 1 = 2*3 - 1 = 5.
	if r.Diameter() != 5 {
		t.Fatalf("RCC(3;K4) diameter = %d, want 5", r.Diameter())
	}
}

func TestSymmetricVariants(t *testing.T) {
	checkNet(t, HSN(2, NucleusHypercube(2)).SymmetricVariant())
	checkNet(t, HSN(3, NucleusHypercube(2)).SymmetricVariant())
	checkNet(t, RingCN(3, NucleusHypercube(2)).SymmetricVariant())
	checkNet(t, CompleteCN(3, NucleusHypercube(2)).SymmetricVariant())
	checkNet(t, SuperFlip(2, NucleusHypercube(2)).SymmetricVariant())
}

func TestSymmetricSizeMultipliers(t *testing.T) {
	h := HSN(3, NucleusHypercube(2))
	if h.SymmetricVariant().N() != 6*h.N() {
		t.Fatalf("symmetric HSN(3) must have 3! times more nodes")
	}
	c := CompleteCN(4, NucleusHypercube(2))
	if c.SymmetricVariant().N() != 4*c.N() {
		t.Fatalf("symmetric CN(4) must have 4 times more nodes")
	}
}

func TestNucleusSpecsMatchBuilds(t *testing.T) {
	for _, spec := range []NucleusSpec{
		NucleusHypercube(2),
		NucleusHypercube(4),
		NucleusFoldedHypercube(3),
		NucleusFoldedHypercube(4),
		NucleusComplete(5),
		NucleusPetersen(),
		NucleusStar(4),
		NucleusShuffleExchange(3),
		NucleusShuffleExchange(4),
	} {
		g, _, err := nucleusGraph(spec.Nuc).Build(core0())
		if err != nil {
			t.Fatalf("%s: %v", spec.Short, err)
		}
		if g.N() != spec.Size {
			t.Fatalf("%s: size %d, analytic %d", spec.Short, g.N(), spec.Size)
		}
		if g.MaxDegree() != spec.Degree {
			t.Fatalf("%s: degree %d, analytic %d", spec.Short, g.MaxDegree(), spec.Degree)
		}
		st := g.Symmetrized().AllPairs()
		if int(st.Diameter) != spec.Diameter {
			t.Fatalf("%s: diameter %d, analytic %d", spec.Short, st.Diameter, spec.Diameter)
		}
	}
}

func TestHSNDegreeValues(t *testing.T) {
	// Section 5.3: off-module links per node for an l-level HSN,
	// complete-CN, or super-flip network are l-1; 1 or 2 for ring-CN.
	if HSN(4, NucleusHypercube(4)).SuperDegree() != 3 {
		t.Fatal("HSN(4) super-degree must be 3")
	}
	if RingCN(2, NucleusHypercube(4)).SuperDegree() != 1 {
		t.Fatal("ring-CN(2) super-degree must be 1")
	}
	if RingCN(5, NucleusHypercube(4)).SuperDegree() != 2 {
		t.Fatal("ring-CN(5) super-degree must be 2")
	}
	if CompleteCN(5, NucleusHypercube(4)).SuperDegree() != 4 {
		t.Fatal("complete-CN(5) super-degree must be 4")
	}
	if DirectedCN(5, NucleusHypercube(4)).SuperDegree() != 1 {
		t.Fatal("directed CN super-degree must be 1")
	}
}

func TestIDiameterAnalytics(t *testing.T) {
	if HSN(4, NucleusHypercube(4)).IDiameter() != 3 {
		t.Fatal("HSN(4) I-diameter must be l-1 = 3")
	}
	if RingCN(3, NucleusHypercube(4)).IDiameter() != 2 {
		t.Fatal("ring-CN(3) I-diameter must be 2")
	}
	s := HSN(2, NucleusHypercube(2)).SymmetricVariant()
	if s.IDiameter() != 2 {
		t.Fatalf("symmetric HSN(2) I-diameter = %d, want t_S = 2", s.IDiameter())
	}
}

func TestBuildTooLarge(t *testing.T) {
	big := CompleteCN(5, NucleusHypercube(7))
	if _, err := big.Build(); err == nil {
		t.Fatal("expected size refusal for CN(5;Q7)")
	}
	// Analytics still work at any size.
	if big.N() != 1<<35 {
		t.Fatalf("CN(5;Q7) analytic size = %d", big.N())
	}
	if big.Diameter() != 5*7+4 {
		t.Fatalf("CN(5;Q7) analytic diameter = %d", big.Diameter())
	}
}

func TestQuotientCN(t *testing.T) {
	q := QuotientCN{L: 2, A: 4, B: 2}
	g, err := q.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != q.N() || g.N() != 16 {
		t.Fatalf("QCN(2;Q4/Q2) has %d nodes, want 16", g.N())
	}
	st := g.AllPairs()
	if !st.Connected {
		t.Fatal("quotient disconnected")
	}
	// The quotient never has a larger diameter than the base network.
	base := CompleteCN(2, NucleusHypercube(4))
	if int(st.Diameter) > base.Diameter() {
		t.Fatalf("quotient diameter %d exceeds base %d", st.Diameter, base.Diameter())
	}
	if q.UnderlyingN() != 256 {
		t.Fatalf("underlying = %d", q.UnderlyingN())
	}
	if _, err := (QuotientCN{L: 2, A: 3, B: 3}).Build(); err == nil {
		t.Fatal("B >= A must fail")
	}
	if _, err := (QuotientCN{L: 4, A: 7, B: 3}).Build(); err == nil {
		t.Fatal("oversized underlying network must fail")
	}
}

func TestRouterAccess(t *testing.T) {
	n := HSN(2, NucleusHypercube(2))
	r, err := n.Router()
	if err != nil {
		t.Fatal(err)
	}
	_, ix, err := n.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	path, err := r.Route(ix.Label(0), ix.Label(int32(ix.N()-1)))
	if err != nil {
		t.Fatal(err)
	}
	if path.Hops() > n.Diameter() {
		t.Fatalf("route %d hops exceeds diameter %d", path.Hops(), n.Diameter())
	}
}

func TestNames(t *testing.T) {
	if got := HSN(3, NucleusHypercube(4)).Name(); got != "HSN(3;Q4)" {
		t.Fatalf("name = %q", got)
	}
	if got := RingCN(3, NucleusFoldedHypercube(4)).Name(); got != "ring-CN(3;FQ4)" {
		t.Fatalf("name = %q", got)
	}
	if got := CompleteCN(2, NucleusHypercube(4)).SymmetricVariant().Name(); got != "sym-CN(2;Q4)" {
		t.Fatalf("name = %q", got)
	}
	if got := (QuotientCN{L: 3, A: 7, B: 3}).Name(); got != "QCN(3;Q7/Q3)" {
		t.Fatalf("name = %q", got)
	}
}

// core0 returns default build options (helper to avoid importing core in
// every call site).
func core0() core.BuildOptions { return core.BuildOptions{} }

// nucleusGraph returns the nucleus as a standalone IP graph.
func nucleusGraph(nc core.Nucleus) *core.IPGraph {
	return &core.IPGraph{Name: nc.Name, Seed: nc.Seed, Gens: nc.Gens}
}

func TestKAryAndGHCNuclei(t *testing.T) {
	for _, spec := range []NucleusSpec{
		NucleusKAryCube(3, 2),
		NucleusKAryCube(4, 2),
		NucleusKAryCube(5, 1),
		NucleusKAryCube(2, 3),
		NucleusGHC(4, 4),
		NucleusGHC(3, 3, 3),
		NucleusGHC(2, 8),
		NucleusGHC(16),
	} {
		g, _, err := nucleusGraph(spec.Nuc).Build(core0())
		if err != nil {
			t.Fatalf("%s: %v", spec.Short, err)
		}
		if g.N() != spec.Size {
			t.Fatalf("%s: size %d, analytic %d", spec.Short, g.N(), spec.Size)
		}
		if g.MaxDegree() != spec.Degree {
			t.Fatalf("%s: degree %d, analytic %d", spec.Short, g.MaxDegree(), spec.Degree)
		}
		st := g.Symmetrized().AllPairs()
		if int(st.Diameter) != spec.Diameter {
			t.Fatalf("%s: diameter %d, analytic %d", spec.Short, st.Diameter, spec.Diameter)
		}
	}
}

func TestSuperIPOverKAryAndGHCNuclei(t *testing.T) {
	// The paper (Section 4): GHC nuclei of proper size yield super-IP
	// graphs with optimal diameters. These instances exercise the full
	// Theorem 4.1 pipeline on non-hypercube nuclei.
	checkNet(t, HSN(2, NucleusKAryCube(4, 2)))
	checkNet(t, RingCN(3, NucleusKAryCube(3, 2)))
	checkNet(t, HSN(2, NucleusGHC(4, 4)))
	checkNet(t, CompleteCN(2, NucleusGHC(3, 3, 3)))
	checkNet(t, HSN(3, NucleusGHC(2, 8)))
}

func TestGHCNucleusIsGeneralizedHypercube(t *testing.T) {
	// The GHC nucleus state graph must be isomorphic to the directly built
	// generalized hypercube: same size, regular with the same degree, same
	// diameter and distance distribution.
	spec := NucleusGHC(3, 4)
	g, _, err := nucleusGraph(spec.Nuc).Build(core0())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := networks.GeneralizedHypercube{Radices: []int{3, 4}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	gs, ds := g.AllPairs(), direct.AllPairs()
	if g.N() != direct.N() || g.MaxDegree() != direct.MaxDegree() ||
		gs.Diameter != ds.Diameter || gs.AvgDistance != ds.AvgDistance {
		t.Fatalf("GHC nucleus (N=%d deg=%d diam=%d avg=%v) != direct GHC (N=%d deg=%d diam=%d avg=%v)",
			g.N(), g.MaxDegree(), gs.Diameter, gs.AvgDistance,
			direct.N(), direct.MaxDegree(), ds.Diameter, ds.AvgDistance)
	}
}

func TestMacroStar(t *testing.T) {
	// MS(2;S3): 36 nodes, degree (3-1)+(2-1) = 3, diameter 2*3+1 = 7 via
	// Theorem 4.1 (D_G = floor(3*2/2) = 3, t = 1).
	ms := MacroStar(2, 3)
	checkNet(t, ms)
	if ms.N() != 36 || ms.Degree() != 3 || ms.Diameter() != 7 {
		t.Fatalf("MS(2;S3): N=%d deg=%d diam=%d", ms.N(), ms.Degree(), ms.Diameter())
	}
	// Degree advantage over a comparable star graph: the 5-star would need
	// degree 4 for 120 nodes; MS(2;S4)'s 576 nodes cost only degree 4.
	ms4 := MacroStar(2, 4)
	checkNet(t, ms4)
	if ms4.Degree() != 4 {
		t.Fatalf("MS(2;S4) degree = %d", ms4.Degree())
	}
}

func TestHSE(t *testing.T) {
	h := HSE(2, 3)
	checkNet(t, h)
	if h.N() != 64 {
		t.Fatalf("HSE(2;SE3) N = %d, want 64", h.N())
	}
}

func TestSymmetricVariantSafety(t *testing.T) {
	// Symmetric variants of pattern-encoded nuclei are fine...
	checkNet(t, HSN(2, NucleusKAryCube(3, 1)).SymmetricVariant())
	// ...but one-hot nuclei must be rejected: a distinct seed changes the
	// nucleus state space (K4's one-hot IP graph becomes S4's transposition
	// Cayley graph).
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for symmetric variant over a one-hot nucleus")
		}
	}()
	RingCN(3, NucleusComplete(4)).SymmetricVariant()
}

func TestRHSN(t *testing.T) {
	// RHSN(2,2;Q2): an HSN(2;.) over the HSN(2;Q2) nucleus. Theorem 4.1
	// applies recursively: N = 16^2 = 256, D_G = 5, diameter = 2*5+1 = 11.
	r := RHSN(2, 2, NucleusHypercube(2))
	checkNet(t, r)
	if r.N() != 256 {
		t.Fatalf("RHSN N = %d, want 256", r.N())
	}
	if r.Diameter() != 11 {
		t.Fatalf("RHSN diameter = %d, want 11", r.Diameter())
	}
	// Three tiers: HSN(2; HSN(2; HSN(2;Q2))) has 16^4... too large; use a
	// smaller nucleus: RHSN over K3.
	r2 := HSN(2, NucleusFromNet(RHSN(2, 2, NucleusComplete(3))))
	if r2.N() != (3*3*3*3)*(3*3*3*3) {
		t.Fatalf("three-tier N = %d", r2.N())
	}
	g, err := r2.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := g.AllPairs()
	if int(st.Diameter) != r2.Diameter() {
		t.Fatalf("three-tier diameter %d, analytic %d", st.Diameter, r2.Diameter())
	}
}

func TestRHSNRouter(t *testing.T) {
	// The Theorem 4.1 router works unchanged on the recursive construction.
	r := RHSN(2, 2, NucleusHypercube(2))
	g, ix, err := r.BuildWithIndex()
	if err != nil {
		t.Fatal(err)
	}
	router, err := r.Router()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		u := int32((trial * 37) % ix.N())
		v := int32((trial * 151) % ix.N())
		path, err := router.Route(ix.Label(u), ix.Label(v))
		if err != nil {
			t.Fatal(err)
		}
		if path.Hops() > r.Diameter() {
			t.Fatalf("route %d hops exceeds diameter %d", path.Hops(), r.Diameter())
		}
		for i := 0; i+1 < len(path.Labels); i++ {
			a, b := ix.ID(path.Labels[i]), ix.ID(path.Labels[i+1])
			if a < 0 || b < 0 || !g.HasEdge(a, b) {
				t.Fatalf("route step %d not an edge", i)
			}
		}
	}
}
