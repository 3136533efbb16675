// Package bisect estimates bisection widths, the quantity behind Section
// 5.1's discussion: under a constant bisection-bandwidth constraint,
// low-dimensional k-ary n-cubes beat super-IP graphs, while under a
// constant pin-out constraint the super-IP graphs win. Exact bisection is
// NP-hard in general; this package provides exact enumeration for small
// graphs, a Kernighan-Lin heuristic upper bound for medium graphs, and the
// known closed forms for hypercubes and square tori — each validated
// against the exact value where feasible.
package bisect

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/graph"
)

// CutSize returns the number of edges crossing the bipartition indicated by
// side (true = part B).
func CutSize(g *graph.Graph, side []bool) int {
	cut := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if v > int32(u) && side[u] != side[v] {
				cut++
			}
		}
	}
	return cut
}

// Exact computes the exact bisection width by enumerating all balanced
// bipartitions (part sizes differ by at most one). Feasible up to ~24
// nodes; refuses larger graphs.
func Exact(g *graph.Graph) (int, error) {
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("bisect: need at least 2 nodes")
	}
	if n > 24 {
		return 0, fmt.Errorf("bisect: exact enumeration infeasible for %d nodes", n)
	}
	if g.Directed {
		return 0, fmt.Errorf("bisect: undirected graphs only")
	}
	half := n / 2
	best := 1 << 30
	side := make([]bool, n)
	// Fix node 0 on side A to halve the search (complement symmetry; for
	// odd n the smaller side takes half nodes and node 0 stays in the
	// larger side A).
	var mask uint32
	// Enumerate subsets of {1..n-1} of size half as side B.
	last := uint32(1) << uint(n-1)
	for mask = 0; mask < last; mask++ {
		if bits.OnesCount32(mask) != half {
			continue
		}
		for v := 1; v < n; v++ {
			side[v] = mask&(1<<uint(v-1)) != 0
		}
		if c := CutSize(g, side); c < best {
			best = c
		}
	}
	return best, nil
}

// KernighanLin returns a heuristic upper bound on the bisection width:
// the best balanced cut found over `restarts` randomized Kernighan-Lin
// passes. Deterministic for a given seed.
func KernighanLin(g *graph.Graph, restarts int, seed int64) (int, error) {
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("bisect: need at least 2 nodes")
	}
	if g.Directed {
		return 0, fmt.Errorf("bisect: undirected graphs only")
	}
	rng := rand.New(rand.NewSource(seed))
	best := 1 << 30
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	side := make([]bool, n)
	for r := 0; r < restarts; r++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i, v := range perm {
			side[v] = i >= n/2+(n%2)
		}
		klRefine(g, side)
		if c := CutSize(g, side); c < best {
			best = c
		}
	}
	return best, nil
}

// klRefine runs Kernighan-Lin passes until no improving pass exists.
func klRefine(g *graph.Graph, side []bool) {
	n := g.N()
	for pass := 0; pass < 16; pass++ {
		locked := make([]bool, n)
		type swapRec struct{ a, b, gain int }
		var history []swapRec
		total, bestPrefix, bestGain := 0, -1, 0
		work := append([]bool(nil), side...)
		for step := 0; step < n/2; step++ {
			// Greedily choose the best unlocked cross pair.
			bestA, bestB, bestPair := -1, -1, -(1 << 30)
			for a := 0; a < n; a++ {
				if locked[a] || work[a] {
					continue
				}
				ga := gainOn(g, work, a)
				for b := 0; b < n; b++ {
					if locked[b] || !work[b] {
						continue
					}
					gb := gainOn(g, work, b)
					pair := ga + gb
					if g.HasEdge(int32(a), int32(b)) {
						pair -= 2
					}
					if pair > bestPair {
						bestPair, bestA, bestB = pair, a, b
					}
				}
			}
			if bestA < 0 {
				break
			}
			work[bestA], work[bestB] = true, false
			locked[bestA], locked[bestB] = true, true
			total += bestPair
			history = append(history, swapRec{bestA, bestB, bestPair})
			if total > bestGain {
				bestGain, bestPrefix = total, step
			}
		}
		if bestPrefix < 0 || bestGain <= 0 {
			return
		}
		// Apply the best prefix of swaps to the real sides.
		for i := 0; i <= bestPrefix; i++ {
			side[history[i].a] = true
			side[history[i].b] = false
		}
	}
}

func gainOn(g *graph.Graph, side []bool, v int) int {
	ext, intn := 0, 0
	for _, u := range g.Neighbors(int32(v)) {
		if side[u] != side[v] {
			ext++
		} else {
			intn++
		}
	}
	return ext - intn
}

// AreaLowerBound returns Thompson's VLSI-layout area lower bound implied by
// a bisection width: any grid layout needs area at least width^2/4 (the
// paper's companion work [31] gives recursive grid layouts for hierarchical
// networks; the bound here quantifies why small bisection makes super-IP
// graphs cheap to lay out).
func AreaLowerBound(bisectionWidth int) int {
	return bisectionWidth * bisectionWidth / 4
}

// Refine improves a bipartition in place with Kernighan-Lin passes until no
// improving pass exists. Exposed for reuse by the layout package.
func Refine(g *graph.Graph, side []bool) {
	klRefine(g, side)
}
