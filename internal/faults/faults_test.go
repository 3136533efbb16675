package faults

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/networks"
	"repro/internal/superip"
)

func TestConnectivityKnownValues(t *testing.T) {
	cases := []struct {
		name        string
		build       func() (*graph.Graph, error)
		kappa, lamb int
	}{
		{"Q3", networks.Hypercube{Dim: 3}.Build, 3, 3},
		{"Q4", networks.Hypercube{Dim: 4}.Build, 4, 4},
		{"Q5", networks.Hypercube{Dim: 5}.Build, 5, 5},
		{"FQ3", networks.FoldedHypercube{Dim: 3}.Build, 4, 4},
		{"star4", networks.Star{Symbols: 4}.Build, 3, 3},
		{"star5", networks.Star{Symbols: 5}.Build, 4, 4},
		{"Petersen", networks.Petersen{}.Build, 3, 3},
		{"ring8", networks.Ring{Nodes: 8}.Build, 2, 2},
		{"K5", networks.Complete{Nodes: 5}.Build, 4, 4},
		{"CCC3", networks.CCC{Dim: 3}.Build, 3, 3},
	}
	for _, c := range cases {
		g, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		k, err := VertexConnectivity(g)
		if err != nil {
			t.Fatal(err)
		}
		if k != c.kappa {
			t.Fatalf("%s: kappa = %d, want %d", c.name, k, c.kappa)
		}
		l, err := EdgeConnectivity(g)
		if err != nil {
			t.Fatal(err)
		}
		if l != c.lamb {
			t.Fatalf("%s: lambda = %d, want %d", c.name, l, c.lamb)
		}
	}
}

func TestConnectivityOfSuperIPGraphs(t *testing.T) {
	// Plain HSN(2;Q2) has min degree 2 (the self-paired nodes), so its
	// connectivity is at most 2; the symmetric variant is 3-regular and
	// should achieve connectivity 3 (Cayley graphs of connected generator
	// sets are maximally connected in all our instances).
	plain := superip.HSN(2, superip.NucleusHypercube(2))
	pg, err := plain.Build()
	if err != nil {
		t.Fatal(err)
	}
	k, err := VertexConnectivity(pg)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("HSN(2;Q2) kappa = %d, want 2 (min degree)", k)
	}
	sym := plain.SymmetricVariant()
	sg, err := sym.Build()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := VertexConnectivity(sg)
	if err != nil {
		t.Fatal(err)
	}
	if ks != 3 {
		t.Fatalf("sym-HSN(2;Q2) kappa = %d, want 3", ks)
	}
	// Connectivity never exceeds min degree (Whitney).
	ring := superip.RingCN(3, superip.NucleusHypercube(2))
	rg, err := ring.Build()
	if err != nil {
		t.Fatal(err)
	}
	kr, err := VertexConnectivity(rg)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := EdgeConnectivity(rg)
	if err != nil {
		t.Fatal(err)
	}
	if !(kr <= lr && lr <= rg.MinDegree()) {
		t.Fatalf("Whitney violated: kappa=%d lambda=%d minDeg=%d", kr, lr, rg.MinDegree())
	}
}

func TestDisconnected(t *testing.T) {
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	if k, _ := VertexConnectivity(g); k != 0 {
		t.Fatalf("kappa of disconnected graph = %d", k)
	}
	if l, _ := EdgeConnectivity(g); l != 0 {
		t.Fatalf("lambda of disconnected graph = %d", l)
	}
}

func TestConnectivityErrors(t *testing.T) {
	d := graph.NewBuilder(2, true)
	d.AddEdge(0, 1)
	if _, err := VertexConnectivity(d.Build()); err == nil {
		t.Fatal("directed graph must fail")
	}
	if _, err := EdgeConnectivity(d.Build()); err == nil {
		t.Fatal("directed graph must fail")
	}
	single := graph.NewBuilder(1, false).Build()
	if _, err := VertexConnectivity(single); err == nil {
		t.Fatal("single node must fail")
	}
}

func TestInjectNodeFaults(t *testing.T) {
	g, err := networks.Hypercube{Dim: 5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Killing 2 of 32 nodes of a 5-connected graph: survivors almost
	// always connected.
	res, err := InjectNodeFaults(g, 2, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SurvivedConnected != res.Trials {
		t.Fatalf("Q5 with 2 faults: %d/%d survived; 5-connected graphs tolerate any 2 faults",
			res.SurvivedConnected, res.Trials)
	}
	if res.MaxDiameter < 5 {
		t.Fatalf("faulty diameter %d below fault-free diameter", res.MaxDiameter)
	}
	// A ring disconnects whenever 2 non-adjacent nodes die.
	ring, _ := networks.Ring{Nodes: 16}.Build()
	res, err = InjectNodeFaults(ring, 2, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.SurvivedConnected == res.Trials {
		t.Fatal("ring with 2 faults should sometimes disconnect")
	}
	if _, err := InjectNodeFaults(g, 32, 1, 1); err == nil {
		t.Fatal("failing all nodes must error")
	}
}

func TestFaultDiameterHypercube(t *testing.T) {
	// Known results: with a single fault the hypercube keeps diameter n
	// (n node-disjoint shortest paths between antipodes), and with n-1
	// faults the fault diameter is n+1.
	for _, n := range []int{3, 4} {
		g, err := networks.Hypercube{Dim: n}.Build()
		if err != nil {
			t.Fatal(err)
		}
		fd1, err := FaultDiameter(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if fd1 != n {
			t.Fatalf("Q%d 1-fault diameter = %d, want %d", n, fd1, n)
		}
		fdMax, err := FaultDiameter(g, n-1)
		if err != nil {
			t.Fatal(err)
		}
		if fdMax != n+1 {
			t.Fatalf("Q%d (n-1)-fault diameter = %d, want %d", n, fdMax, n+1)
		}
	}
	if _, err := FaultDiameter(nil, -1); err == nil {
		t.Fatal("negative fault count must fail")
	}
}

func TestFaultDiameterHSN(t *testing.T) {
	// The super-IP graphs degrade gracefully: removing one node of
	// HSN(2;Q2) (diameter 5) inflates the diameter by a bounded amount.
	net := superip.HSN(2, superip.NucleusHypercube(2))
	g, err := net.Build()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := FaultDiameter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fd < net.Diameter() || fd > net.Diameter()+3 {
		t.Fatalf("HSN(2;Q2) 1-fault diameter = %d (fault-free %d)", fd, net.Diameter())
	}
}

func TestDisjointPaths(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*graph.Graph, error)
		want  int // expected path count for a non-adjacent pair
	}{
		{"Q4", networks.Hypercube{Dim: 4}.Build, 4},
		{"Petersen", networks.Petersen{}.Build, 3},
		{"star4", networks.Star{Symbols: 4}.Build, 3},
	} {
		g, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		// Find a non-adjacent pair (0, t).
		var tgt int32 = -1
		for v := int32(1); v < int32(g.N()); v++ {
			if !g.HasEdge(0, v) {
				tgt = v
				break
			}
		}
		if tgt < 0 {
			t.Fatalf("%s: no non-adjacent pair", c.name)
		}
		paths, err := DisjointPaths(g, 0, tgt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(paths) != c.want {
			t.Fatalf("%s: %d disjoint paths, want %d", c.name, len(paths), c.want)
		}
		seen := map[int32]bool{}
		for _, p := range paths {
			if p[0] != 0 || p[len(p)-1] != tgt {
				t.Fatalf("%s: path endpoints wrong: %v", c.name, p)
			}
			for i := 0; i+1 < len(p); i++ {
				if !g.HasEdge(p[i], p[i+1]) {
					t.Fatalf("%s: path step %d-%d not an edge", c.name, p[i], p[i+1])
				}
			}
			for _, v := range p[1 : len(p)-1] {
				if seen[v] {
					t.Fatalf("%s: internal node %d reused across paths", c.name, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestDisjointPathsErrors(t *testing.T) {
	g, _ := networks.Ring{Nodes: 5}.Build()
	if _, err := DisjointPaths(g, 2, 2); err == nil {
		t.Fatal("s == t must fail")
	}
	d := graph.NewBuilder(2, true)
	d.AddEdge(0, 1)
	if _, err := DisjointPaths(d.Build(), 0, 1); err == nil {
		t.Fatal("directed must fail")
	}
}

func TestDisjointPathsDisconnectedPair(t *testing.T) {
	// s and t in different components: the max-flow is zero, so the
	// decomposition returns no paths and no error — callers distinguish
	// "disconnected" from failure by the empty result.
	b := graph.NewBuilder(6, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	paths, err := DisjointPaths(g, 0, 5)
	if err != nil {
		t.Fatalf("disconnected pair must not error: %v", err)
	}
	if len(paths) != 0 {
		t.Fatalf("disconnected pair yielded %d paths", len(paths))
	}
}

func TestDisjointPathsAdjacentPair(t *testing.T) {
	// Menger for adjacent s,t: the direct edge is itself a path; on Q3 the
	// count for neighbors is deg = 3 (edge plus two length-3 detours... in
	// fact kappa(Q3)=3 paths exist).
	g, err := networks.Hypercube{Dim: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := DisjointPaths(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("adjacent pair in Q3: %d disjoint paths, want 3", len(paths))
	}
	seen := map[int32]bool{}
	for _, p := range paths {
		if p[0] != 0 || p[len(p)-1] != 1 {
			t.Fatalf("path endpoints wrong: %v", p)
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatalf("path step %d-%d not an edge", p[i], p[i+1])
			}
		}
		for _, v := range p[1 : len(p)-1] {
			if seen[v] {
				t.Fatalf("internal node %d reused", v)
			}
			seen[v] = true
		}
	}
}

func TestFaultDiameterDirected(t *testing.T) {
	// FaultDiameter accepts directed graphs: the survivor check uses
	// strong connectivity, so a directed de Bruijn graph reports a finite
	// fault diameter under a single node fault.
	g, err := networks.DeBruijn{Base: 2, Dim: 3}.BuildDirected()
	if err != nil {
		t.Fatal(err)
	}
	fd0, err := FaultDiameter(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fd0 != 3 {
		t.Fatalf("fault-free directed B(2,3) diameter = %d, want 3", fd0)
	}
	fd1, err := FaultDiameter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fd1 < fd0 {
		t.Fatalf("1-fault diameter %d below fault-free %d", fd1, fd0)
	}
}

func TestFaultDiameterDisconnectingGraph(t *testing.T) {
	// A path on 3 nodes: removing the middle node disconnects, removing an
	// end leaves a 2-path. The fault diameter only ranges over fault sets
	// whose survivors stay connected, so f=1 reports the 2-node survivor
	// diameter 1.
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	fd, err := FaultDiameter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fd != 2 {
		// f counts "up to f" faults: zero faults keeps the full path with
		// diameter 2, which dominates every connected survivor.
		t.Fatalf("path fault diameter = %d, want 2", fd)
	}
	// Two nodes, one edge, one fault: every single-node removal leaves a
	// lone survivor (no measurable pair), so only the fault-free diameter
	// counts.
	b2 := graph.NewBuilder(2, false)
	b2.AddEdge(0, 1)
	g2 := b2.Build()
	fd2, err := FaultDiameter(g2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fd2 != 1 {
		t.Fatalf("K2 fault diameter = %d, want 1", fd2)
	}
}

// TestEdgeConnectivityEqualsDegreeOnSymmetricVariants checks lambda(G) =
// degree on the symmetric variants of HSN, ring-CN, complete-CN and SFN over
// Q2, Q3, FQ2 and S3 nuclei with l in {2, 3}, up to about 400 nodes. A
// symmetric variant is a Cayley graph, so it is vertex-transitive, and every
// connected vertex-transitive graph has edge connectivity equal to its
// degree (Ganesan, Cayley graphs and symmetric interconnection networks).
// On every instance, vertex connectivity (the node-split flow) is pinned
// between Watkins' bound 2(d+1)/3 for vertex-transitive graphs and lambda.
func TestEdgeConnectivityEqualsDegreeOnSymmetricVariants(t *testing.T) {
	const maxNodes = 400
	checked := 0
	for _, nuc := range []superip.NucleusSpec{superip.NucleusHypercube(2), superip.NucleusHypercube(3),
		superip.NucleusFoldedHypercube(2), superip.NucleusStar(3)} {
		for l := 2; l <= 3; l++ {
			for _, kind := range []superip.Kind{superip.KindHSN, superip.KindRingCN,
				superip.KindCompleteCN, superip.KindSuperFlip} {
				net := superip.New(kind, l, nuc, true)
				if net.N() > maxNodes {
					continue
				}
				g, err := net.Build()
				if err != nil {
					t.Fatalf("%s: %v", net.Name(), err)
				}
				if !g.IsRegular() {
					t.Fatalf("%s: symmetric variant is not regular", net.Name())
				}
				d := g.MaxDegree()
				lam, err := EdgeConnectivity(g)
				if err != nil {
					t.Fatalf("%s: %v", net.Name(), err)
				}
				if lam != d {
					t.Errorf("%s (%d nodes): lambda = %d, degree %d", net.Name(), g.N(), lam, d)
				}
				t.Logf("%s: %d nodes, degree %d, lambda %d", net.Name(), g.N(), d, lam)
				checked++
				k, err := VertexConnectivity(g)
				if err != nil {
					t.Fatalf("%s: %v", net.Name(), err)
				}
				if 3*k < 2*(d+1) || k > lam {
					t.Errorf("%s (%d nodes): kappa = %d outside [2(d+1)/3, lambda] = [%.2f, %d]",
						net.Name(), g.N(), k, 2*float64(d+1)/3, lam)
				}
			}
		}
	}
	if checked < 24 {
		t.Fatalf("only %d instances within %d nodes", checked, maxNodes)
	}
}
