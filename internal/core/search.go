package core

import (
	"fmt"

	"repro/internal/perm"
	"repro/internal/symbols"
)

// ShortestPath finds a shortest generator sequence from src to dst in the
// IP graph WITHOUT enumerating the whole vertex set: it runs bidirectional
// BFS directly over labels, expanding forward with the generators and
// backward with their inverses. This makes optimal routing practical on IP
// graphs far too large to build (the frontier grows like degree^(d/2)
// instead of degree^d).
//
// limit bounds the total number of labels explored (0 = no limit). The
// returned moves are generator indices; applying them to src in order
// yields dst.
func (ip *IPGraph) ShortestPath(src, dst symbols.Label, limit int) ([]int, error) {
	if err := ip.Validate(); err != nil {
		return nil, err
	}
	k := len(ip.Seed)
	if len(src) != k || len(dst) != k {
		return nil, fmt.Errorf("core: labels must have %d symbols", k)
	}
	if src.MultisetKey() != dst.MultisetKey() {
		return nil, fmt.Errorf("core: src and dst symbol multisets differ")
	}
	if src.Equal(dst) {
		return nil, nil
	}
	inv := make([]perm.Perm, len(ip.Gens))
	for i, g := range ip.Gens {
		inv[i] = g.Inverse()
	}
	fwd := map[string]searchCrumb{src.Key(): {"", -1, 0}}
	bwd := map[string]searchCrumb{dst.Key(): {"", -1, 0}}
	fwdFrontier := []symbols.Label{src.Clone()}
	bwdFrontier := []symbols.Label{dst.Clone()}
	buf := make(symbols.Label, k)

	// expand grows one full BFS level. It records every newly discovered
	// label and reports the meeting label minimizing the total path length
	// over the whole level (returning on the first hit could splice through
	// a deeper node of the other tree).
	meet := ""
	bestTotal := 1 << 30
	expand := func(frontier []symbols.Label, own, other map[string]searchCrumb, gens []perm.Perm) ([]symbols.Label, bool) {
		var next []symbols.Label
		found := false
		for _, x := range frontier {
			xk := x.Key()
			depth := own[xk].depth + 1
			for mi, g := range gens {
				g.Apply(buf, x)
				key := buf.Key()
				if _, seen := own[key]; seen {
					continue
				}
				own[key] = searchCrumb{parentKey: xk, move: mi, depth: depth}
				next = append(next, buf.Clone())
				if o, hit := other[key]; hit {
					if total := depth + o.depth; total < bestTotal {
						bestTotal, meet = total, key
					}
					found = true
				}
			}
		}
		return next, found
	}

	for len(fwdFrontier) > 0 && len(bwdFrontier) > 0 {
		if limit > 0 && len(fwd)+len(bwd) > limit {
			return nil, fmt.Errorf("core: search limit %d exceeded", limit)
		}
		// Expand the smaller frontier first.
		var hit bool
		if len(fwdFrontier) <= len(bwdFrontier) {
			fwdFrontier, hit = expand(fwdFrontier, fwd, bwd, ip.Gens)
		} else {
			bwdFrontier, hit = expand(bwdFrontier, bwd, fwd, inv)
		}
		if hit {
			return ip.reconstructMeet(meet, fwd, bwd)
		}
	}
	return nil, fmt.Errorf("core: %v unreachable from %v", dst, src)
}

// searchCrumb records how a label was first reached during bidirectional
// search.
type searchCrumb struct {
	parentKey string
	move      int
	depth     int
}

// reconstructMeet splices the forward and backward halves of the search at
// the meeting label.
func (ip *IPGraph) reconstructMeet(meet string, fwd, bwd map[string]searchCrumb) ([]int, error) {
	var front []int
	for key := meet; ; {
		c := fwd[key]
		if c.move < 0 {
			break
		}
		front = append(front, c.move)
		key = c.parentKey
	}
	for i, j := 0, len(front)-1; i < j; i, j = i+1, j-1 {
		front[i], front[j] = front[j], front[i]
	}
	// The backward crumbs record inverse moves from dst; walking from the
	// meeting point toward dst we must apply the forward generator that the
	// inverse move undoes — which is the same index.
	var back []int
	for key := meet; ; {
		c := bwd[key]
		if c.move < 0 {
			break
		}
		back = append(back, c.move)
		key = c.parentKey
	}
	return append(front, back...), nil
}

// ApplyMoves applies a generator-index sequence to a label, returning the
// resulting label and every intermediate state.
func (ip *IPGraph) ApplyMoves(src symbols.Label, moves []int) ([]symbols.Label, error) {
	cur := src.Clone()
	states := []symbols.Label{cur.Clone()}
	for _, mi := range moves {
		if mi < 0 || mi >= len(ip.Gens) {
			return nil, fmt.Errorf("core: move index %d out of range", mi)
		}
		next := make(symbols.Label, len(cur))
		ip.Gens[mi].Apply(next, cur)
		cur = next
		states = append(states, cur.Clone())
	}
	return states, nil
}
