// Package embed implements the paper's embedding claims: an HSN(l;G) embeds
// the corresponding homogeneous product network G^l (e.g. the hypercube
// Q_(l*n) when G = Q_n) with dilation at most 3 — swap the target
// super-symbol to the front, take one nucleus edge, swap back. A ring-CN
// embedding is provided for comparison: cyclic shifts cannot bring an
// arbitrary super-symbol to the front in one hop, so its dilation grows with
// l, which is exactly why transposition super-generators have stronger
// embedding capability (Section 6).
package embed

import (
	"fmt"

	"repro/internal/perm"
	"repro/internal/superip"
	"repro/internal/symbols"
)

// Result summarizes an embedding of a guest graph into a host graph.
type Result struct {
	// GuestEdges is the number of guest edges embedded.
	GuestEdges int
	// Dilation is the maximum host-path length over all guest edges, and
	// so the worst-case per-step slowdown of a host that emulates the
	// guest by routing each guest edge along its path.
	Dilation int
	// AvgDilation is the mean host-path length.
	AvgDilation float64
	// Congestion is the maximum number of guest-edge paths crossing any
	// single host edge.
	Congestion int
	// Expansion is host nodes / guest nodes (always 1 here: the embeddings
	// are bijective on nodes).
	Expansion float64
}

// ProductIntoHSN embeds the product network G^l into HSN(l;G), where G is
// the nucleus of net. Guest nodes are exactly the host labels (tuples of l
// nucleus states); a guest edge changes one coordinate along a nucleus edge.
// Returns the dilation/congestion summary after validating every embedded
// path against the host edge set.
func ProductIntoHSN(net *superip.Net) (*Result, error) {
	if net.Kind != superip.KindHSN || net.Symmetric {
		return nil, fmt.Errorf("embed: host must be a plain HSN, got %s", net.Name())
	}
	swapGen := func(c int) perm.Perm {
		m := net.Nucleus.Nuc.M()
		return perm.BlockTransposition(net.L, m, 0, c)
	}
	return productEmbedding(net, func(c int) []perm.Perm {
		if c == 0 {
			return nil
		}
		return []perm.Perm{swapGen(c)}
	}, func(c int) []perm.Perm {
		if c == 0 {
			return nil
		}
		return []perm.Perm{swapGen(c)}
	})
}

// ProductIntoRingCN embeds G^l into ring-CN(l;G): coordinate c is rotated to
// the front with min(c, l-c) shifts, adjusted with one nucleus move, and
// rotated back. Dilation grows like 2*floor(l/2)+1.
func ProductIntoRingCN(net *superip.Net) (*Result, error) {
	if net.Kind != superip.KindRingCN || net.Symmetric {
		return nil, fmt.Errorf("embed: host must be a plain ring-CN, got %s", net.Name())
	}
	m := net.Nucleus.Nuc.M()
	l := net.L
	left := perm.BlockLeftShift(l, m, 1)
	right := perm.BlockRightShift(l, m, 1)
	rotations := func(c int) (fwd []perm.Perm, back []perm.Perm) {
		if c == 0 {
			return nil, nil
		}
		if c <= l-c {
			for i := 0; i < c; i++ {
				fwd = append(fwd, left)
				back = append(back, right)
			}
		} else {
			for i := 0; i < l-c; i++ {
				fwd = append(fwd, right)
				back = append(back, left)
			}
		}
		return fwd, back
	}
	return productEmbedding(net, func(c int) []perm.Perm {
		fwd, _ := rotations(c)
		return fwd
	}, func(c int) []perm.Perm {
		_, back := rotations(c)
		return back
	})
}

// productEmbedding walks every guest edge (change coordinate c along a
// nucleus generator) and realizes it in the host as
// prefix(c) + nucleus move + suffix(c), skipping self-loop steps, then
// validates each hop against the host edge set and accumulates statistics.
func productEmbedding(net *superip.Net, prefix, suffix func(c int) []perm.Perm) (*Result, error) {
	g, ix, err := net.BuildWithIndex()
	if err != nil {
		return nil, err
	}
	m := net.Nucleus.Nuc.M()
	l := net.L
	k := l * m
	res := &Result{Expansion: 1}
	congestion := map[[2]int32]int{}
	var totalLen int

	apply := func(cur symbols.Label, p perm.Perm) symbols.Label {
		next := make(symbols.Label, k)
		p.Apply(next, cur)
		return next
	}
	for u := 0; u < ix.N(); u++ {
		label := ix.Label(int32(u))
		for c := 0; c < l; c++ {
			for _, gn := range net.Nucleus.Nuc.Gens {
				// Guest edge: apply gn to coordinate c.
				guest := label.Clone()
				blk := guest.Group(c, m).Clone()
				gn.Apply(guest[c*m:(c+1)*m], blk)
				if guest.Equal(label) {
					continue // generator fixes this coordinate: no guest edge
				}
				if ix.ID(guest) < 0 {
					return nil, fmt.Errorf("embed: guest neighbor %v not a host node", guest)
				}
				// Count each undirected guest edge once.
				if guest.Key() < label.Key() {
					continue
				}
				res.GuestEdges++
				// Host path: prefix swaps/rotations, nucleus move, suffix.
				steps := append([]perm.Perm{}, prefix(c)...)
				steps = append(steps, perm.Lift(gn, k))
				steps = append(steps, suffix(c)...)
				cur := label.Clone()
				var path []symbols.Label
				path = append(path, cur)
				for _, st := range steps {
					next := apply(cur, st)
					if next.Equal(cur) {
						continue // self-loop step (identical blocks): free
					}
					path = append(path, next)
					cur = next
				}
				if !cur.Equal(guest) {
					return nil, fmt.Errorf("embed: path for edge %v -> %v ends at %v", label, guest, cur)
				}
				hops := len(path) - 1
				totalLen += hops
				if hops > res.Dilation {
					res.Dilation = hops
				}
				for i := 0; i+1 < len(path); i++ {
					a, b := ix.ID(path[i]), ix.ID(path[i+1])
					if a < 0 || b < 0 || !g.HasEdge(a, b) {
						return nil, fmt.Errorf("embed: path step %v -> %v is not a host edge", path[i], path[i+1])
					}
					key := [2]int32{a, b}
					if a > b {
						key = [2]int32{b, a}
					}
					congestion[key]++
				}
			}
		}
	}
	for _, c := range congestion {
		if c > res.Congestion {
			res.Congestion = c
		}
	}
	if res.GuestEdges > 0 {
		res.AvgDilation = float64(totalLen) / float64(res.GuestEdges)
	}
	return res, nil
}
