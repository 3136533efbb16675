package embed

import (
	"testing"

	"repro/internal/superip"
)

func TestHSNEmbeddingDilation3(t *testing.T) {
	// The paper (Section 3.2): an HSN can embed the corresponding
	// homogeneous product network (hypercube, k-ary n-cube) with dilation 3.
	cases := []*superip.Net{
		superip.HSN(2, superip.NucleusHypercube(2)), // guest Q4
		superip.HSN(3, superip.NucleusHypercube(2)), // guest Q6
		superip.HSN(2, superip.NucleusHypercube(3)), // guest Q6
		superip.HSN(2, superip.NucleusHypercube(4)), // guest Q8
		superip.HSN(4, superip.NucleusHypercube(2)), // guest Q8
	}
	for _, net := range cases {
		r, err := ProductIntoHSN(net)
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		if r.Dilation > 3 {
			t.Fatalf("%s: dilation %d exceeds 3", net.Name(), r.Dilation)
		}
		if r.Dilation < 3 && net.L > 1 {
			t.Fatalf("%s: dilation %d suspiciously low", net.Name(), r.Dilation)
		}
		// Guest Q_{l*n} has (l*n)*2^(l*n)/2 edges.
		ln := net.L * net.Nucleus.Degree
		wantEdges := ln * net.N() / 2
		if r.GuestEdges != wantEdges {
			t.Fatalf("%s: embedded %d guest edges, want %d", net.Name(), r.GuestEdges, wantEdges)
		}
		if r.Congestion < 1 {
			t.Fatalf("%s: zero congestion", net.Name())
		}
		if r.Expansion != 1 {
			t.Fatalf("%s: expansion %v", net.Name(), r.Expansion)
		}
	}
}

func TestRingCNEmbeddingDilationGrows(t *testing.T) {
	// Cyclic shifts cannot reach an arbitrary coordinate in one hop: the
	// ring-CN dilation is 2*floor(l/2)+1, strictly worse than HSN for l>3.
	d3, err := ProductIntoRingCN(superip.RingCN(3, superip.NucleusHypercube(2)))
	if err != nil {
		t.Fatal(err)
	}
	if d3.Dilation != 3 {
		t.Fatalf("ring-CN(3) dilation = %d, want 3", d3.Dilation)
	}
	d5, err := ProductIntoRingCN(superip.RingCN(5, superip.NucleusHypercube(2)))
	if err != nil {
		t.Fatal(err)
	}
	if d5.Dilation != 5 {
		t.Fatalf("ring-CN(5) dilation = %d, want 2*2+1 = 5", d5.Dilation)
	}
	h5, err := ProductIntoHSN(superip.HSN(5, superip.NucleusHypercube(2)))
	if err != nil {
		t.Fatal(err)
	}
	if h5.Dilation >= d5.Dilation {
		t.Fatalf("HSN dilation %d should beat ring-CN %d at l=5", h5.Dilation, d5.Dilation)
	}
}

func TestEmbedKindChecks(t *testing.T) {
	if _, err := ProductIntoHSN(superip.RingCN(3, superip.NucleusHypercube(2))); err == nil {
		t.Fatal("HSN embedding must reject ring-CN host")
	}
	if _, err := ProductIntoRingCN(superip.HSN(3, superip.NucleusHypercube(2))); err == nil {
		t.Fatal("ring-CN embedding must reject HSN host")
	}
	sym := superip.HSN(2, superip.NucleusHypercube(2)).SymmetricVariant()
	if _, err := ProductIntoHSN(sym); err == nil {
		t.Fatal("symmetric host must be rejected")
	}
}

func TestEmbeddingAvgDilation(t *testing.T) {
	r, err := ProductIntoHSN(superip.HSN(2, superip.NucleusHypercube(2)))
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgDilation <= 1 || r.AvgDilation > 3 {
		t.Fatalf("avg dilation = %v", r.AvgDilation)
	}
}
