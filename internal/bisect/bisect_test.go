package bisect

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/networks"
	"repro/internal/superip"
)

func TestExactKnownValues(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
		want  int
	}{
		{"ring8", networks.Ring{Nodes: 8}.Build, 2},
		{"ring9", networks.Ring{Nodes: 9}.Build, 2},
		{"Q3", networks.Hypercube{Dim: 3}.Build, 4},
		{"Q4", networks.Hypercube{Dim: 4}.Build, 8},
		{"K6", networks.Complete{Nodes: 6}.Build, 9},
		{"torus4x4", networks.Torus2D{Rows: 4, Cols: 4}.Build, 8},
		{"mesh4x4", networks.Mesh2D{Rows: 4, Cols: 4}.Build, 4},
	}
	for _, c := range cases {
		g, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("%s: exact bisection = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAnalyticMatchesExact(t *testing.T) {
	for n := 2; n <= 4; n++ {
		g, err := networks.Hypercube{Dim: n}.Build()
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		// The bisection width of Q_n is 2^(n-1).
		if want := 1 << (n - 1); exact != want {
			t.Fatalf("Q%d: exact %d != analytic %d", n, exact, want)
		}
	}
	g, _ := networks.Torus2D{Rows: 4, Cols: 4}.Build()
	exact, _ := Exact(g)
	// The bisection width of the k x k torus, k even, is 2k.
	if exact != 2*4 {
		t.Fatalf("torus 4x4: exact %d != analytic %d", exact, 2*4)
	}
}

func TestKernighanLinUpperBound(t *testing.T) {
	// KL must (a) never beat the exact optimum and (b) find the optimum on
	// these easy instances.
	for _, c := range []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"Q4", networks.Hypercube{Dim: 4}.Build},
		{"ring16", networks.Ring{Nodes: 16}.Build},
		{"torus4x4", networks.Torus2D{Rows: 4, Cols: 4}.Build},
	} {
		g, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		kl, err := KernighanLin(g, 10, 42)
		if err != nil {
			t.Fatal(err)
		}
		if kl < exact {
			t.Fatalf("%s: KL %d below exact %d (impossible)", c.name, kl, exact)
		}
		if kl != exact {
			t.Fatalf("%s: KL %d did not reach exact %d", c.name, kl, exact)
		}
	}
}

func TestKernighanLinMedium(t *testing.T) {
	// Q6: known width 32; KL should get close (within 25%).
	g, err := networks.Hypercube{Dim: 6}.Build()
	if err != nil {
		t.Fatal(err)
	}
	kl, err := KernighanLin(g, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	const q6Width = 32 // 2^(6-1)
	if kl < q6Width {
		t.Fatalf("KL %d below the true width %d", kl, q6Width)
	}
	if kl > q6Width*5/4 {
		t.Fatalf("KL %d too far above the true width %d", kl, q6Width)
	}
}

func TestSuperIPBisectionIsSmall(t *testing.T) {
	// Section 5.1: super-IP graphs have small bisection (that is why they
	// lose under a constant-bisection constraint and win under pin-out).
	// HSN(2;Q2) (16 nodes, 24 edges) must have bisection below the
	// same-size hypercube Q4's 8.
	net := superip.HSN(2, superip.NucleusHypercube(2))
	g, err := net.Build()
	if err != nil {
		t.Fatal(err)
	}
	w, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	if w >= 8 {
		t.Fatalf("HSN(2;Q2) bisection %d not below Q4's 8", w)
	}
	if w < 1 {
		t.Fatal("connected graph needs positive bisection")
	}
}

func TestErrors(t *testing.T) {
	big, _ := networks.Hypercube{Dim: 6}.Build()
	if _, err := Exact(big); err == nil {
		t.Fatal("exact on 64 nodes must refuse")
	}
	d := graph.NewBuilder(4, true)
	d.AddEdge(0, 1)
	if _, err := Exact(d.Build()); err == nil {
		t.Fatal("directed must fail")
	}
	if _, err := KernighanLin(d.Build(), 1, 1); err == nil {
		t.Fatal("directed must fail")
	}
	single := graph.NewBuilder(1, false).Build()
	if _, err := Exact(single); err == nil {
		t.Fatal("single node must fail")
	}
}

func TestCutSize(t *testing.T) {
	g, _ := networks.Ring{Nodes: 4}.Build()
	if c := CutSize(g, []bool{false, true, false, true}); c != 4 {
		t.Fatalf("alternating cut of C4 = %d, want 4", c)
	}
	if c := CutSize(g, []bool{false, false, true, true}); c != 2 {
		t.Fatalf("contiguous cut of C4 = %d, want 2", c)
	}
}

func TestAreaLowerBound(t *testing.T) {
	// Q10 (bisection 512) needs area >= 65536x the area bound of a network
	// with bisection 2.
	if AreaLowerBound(512) != 512*512/4 {
		t.Fatal("area bound formula")
	}
	if AreaLowerBound(2) != 1 {
		t.Fatal("area bound small case")
	}
}
