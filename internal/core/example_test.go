package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/superip"
	"repro/internal/symbols"
)

// ExampleIPGraph_Build reproduces the paper's Section 2 example: the seed
// 123123 with generators (1,2), (1,3), and the half-label rotation generates
// a 36-node IP graph.
func ExampleIPGraph_Build() {
	ip := &core.IPGraph{
		Name: "paper-example",
		Seed: symbols.Label{1, 2, 3, 1, 2, 3},
		Gens: []perm.Perm{
			perm.Transposition(6, 0, 1),
			perm.Transposition(6, 0, 2),
			perm.BlockLeftShift(2, 3, 1),
		},
	}
	g, ix, err := ip.Build(core.BuildOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("nodes:", ix.N())
	fmt.Println("max degree:", g.MaxDegree())
	// Output:
	// nodes: 36
	// max degree: 3
}

// ExampleIPGraph_ShortestPath solves a ball-arrangement game optimally via
// bidirectional search over labels, without enumerating the state space.
func ExampleIPGraph_ShortestPath() {
	ip := &core.IPGraph{
		Name: "game",
		Seed: symbols.Label{1, 2, 3, 1, 2, 3},
		Gens: []perm.Perm{
			perm.Transposition(6, 0, 1),
			perm.Transposition(6, 0, 2),
			perm.BlockLeftShift(2, 3, 1),
		},
		GenNames: []string{"(1 2)", "(1 3)", "rotate"},
	}
	moves, err := ip.ShortestPath(
		symbols.Label{1, 2, 3, 1, 2, 3},
		symbols.Label{3, 2, 1, 1, 2, 3}, 0)
	if err != nil {
		panic(err)
	}
	for _, m := range moves {
		fmt.Println(ip.GenNames[m])
	}
	// Output:
	// (1 3)
}

// ExampleNewRouter routes in HSN(2;Q2) = HCN(2,2) without diameter links
// with the Theorem 4.1 algorithm: sort the leftmost super-symbol, swap,
// sort again.
func ExampleNewRouter() {
	net := superip.HSN(2, superip.NucleusHypercube(2))
	_, ix, err := net.BuildWithIndex()
	if err != nil {
		panic(err)
	}
	r, err := net.Router()
	if err != nil {
		panic(err)
	}
	src := ix.Label(0)
	dst := ix.Label(int32(ix.N() - 1))
	path, err := r.Route(src, dst)
	if err != nil {
		panic(err)
	}
	fmt.Println("hops:", path.Hops(), "<= diameter", net.Diameter())
	// Output:
	// hops: 5 <= diameter 5
}
