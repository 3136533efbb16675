package superip

import (
	"fmt"

	"repro/internal/graph"
)

// QuotientCN is the quotient cyclic-shift network QCN(l; Q_a/Q_b) of the
// paper's Fig. 3: the complete cyclic-shift network CN(l;Q_a) with each
// Q_b-subcube merged into a single node. Merging is performed per
// super-symbol: two CN nodes are identified iff every super-symbol agrees on
// its high (a-b) cube dimensions — i.e. the low b dimensions of every
// nucleus coordinate are forgotten. Each physical node then hosts 2^(b*l)
// logical routers, and the off-module transmissions required for routing
// drop accordingly (the paper's §6 note that "a quotient variant minimizes
// the required off-module data transmissions").
//
// The exact quotient rule is defined in the companion thesis [28], which is
// not publicly available; this reconstruction is the natural reading of
// "obtained by merging each 3-cube in CN(l;Q7) into a node" and preserves
// the qualitative behaviour reported in Fig. 3 (see EXPERIMENTS.md).
type QuotientCN struct {
	L    int
	A, B int  // nucleus Q_A, merged subcubes Q_B
	Kind Kind // which CN family to quotient (default KindCompleteCN)
}

// Name returns e.g. "QCN(3;Q7/Q3)".
func (q QuotientCN) Name() string {
	return fmt.Sprintf("QCN(%d;Q%d/Q%d)", q.L, q.A, q.B)
}

func (q QuotientCN) kind() Kind {
	return q.Kind
}

// N returns the quotient node count: 2^((A-B)*L).
func (q QuotientCN) N() int {
	return 1 << uint((q.A-q.B)*q.L)
}

// UnderlyingN returns the node count of the un-merged CN(l;Q_A).
func (q QuotientCN) UnderlyingN() int { return 1 << uint(q.A*q.L) }

// Build constructs the quotient graph by building CN(l;Q_A) and contracting
// node classes.
func (q QuotientCN) Build() (*graph.Graph, error) {
	if q.B < 0 || q.B >= q.A {
		return nil, fmt.Errorf("superip: need 0 <= B < A, got A=%d B=%d", q.A, q.B)
	}
	if q.UnderlyingN() > 1<<21 {
		return nil, fmt.Errorf("superip: underlying CN(%d;Q%d) too large to build", q.L, q.A)
	}
	base := New(q.kind(), q.L, NucleusHypercube(q.A), false)
	g, ix, err := base.BuildWithIndex()
	if err != nil {
		return nil, err
	}
	// Class of a node: per super-symbol, keep only the high A-B pair bits.
	// In the pair encoding, nucleus coordinate bit j of block c is pair
	// (c*2A + 2j, c*2A + 2j + 1); bit value 1 iff the pair is swapped.
	// A pair in seed order ("12") encodes bit 0; a swapped pair ("21")
	// encodes bit 1.
	classOf := func(u int32) int32 {
		label := ix.Label(u)
		cls := 0
		for c := 0; c < q.L; c++ {
			for j := q.B; j < q.A; j++ {
				cls <<= 1
				if label[c*2*q.A+2*j] > label[c*2*q.A+2*j+1] {
					cls |= 1
				}
			}
		}
		return int32(cls)
	}
	return graph.Quotient(g, q.N(), classOf), nil
}
