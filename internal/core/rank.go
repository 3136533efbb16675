package core

import (
	"fmt"
	"math"

	"repro/internal/perm"
	"repro/internal/symbols"
)

// Ranker is a closed-form bijection between the labels of a super-IP graph
// and the dense id range 0..N-1, computed without enumerating the graph. It
// is the label arithmetic behind implicit topologies: a node's id, its label,
// and its module are all derivable from one another in O(l*m) symbol
// operations plus a lookup in the (tiny, M-state) nucleus index.
//
// The encoding follows Theorem 3.2 and its Section 3.5 extension. A plain
// super-IP label is l independent nucleus states, one per super-symbol
// position, so its rank is the mixed-radix number d_0 d_1 ... d_{l-1} in base
// M (position 0 most significant). A symmetric label additionally carries an
// arrangement: which color class (original super-symbol) sits at each
// position. The reachable arrangements form the subgroup generated by the
// block-level super-generator permutations; ranks are arrIdx * M^l + plain
// part, with arrIdx the arrangement's position in the sorted subgroup.
//
// A Ranker holds only the nucleus index and the arrangement subgroup —
// O(M + A) memory, independent of N = A * M^l.
//
// A Ranker is not safe for concurrent use (it reuses internal label
// scratch buffers).
type Ranker struct {
	s     *SuperIP
	l, m  int
	nucIx *Index
	mSize int64   // M: nucleus state count
	pow   []int64 // pow[i] = M^i for i in 0..l
	n     int64   // A * M^l

	// Symmetric-variant arrangement subgroup (nil for plain graphs).
	arrs   []perm.Perm
	arrIdx map[string]int64

	canonBuf symbols.Label // Rank block canonicalization buffer
}

// Ranker returns the closed-form id<->label bijection of the super-IP graph.
func (s *SuperIP) Ranker() (*Ranker, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nuc, err := s.nucleus()
	if err != nil {
		return nil, err
	}
	m := s.Nucleus.M()
	r := &Ranker{
		s:        s,
		l:        s.L,
		m:        m,
		nucIx:    nuc.ix,
		mSize:    int64(nuc.ix.N()),
		canonBuf: make(symbols.Label, m),
	}
	r.pow = make([]int64, s.L+1)
	r.pow[0] = 1
	for i := 0; i < s.L; i++ {
		if r.pow[i] > math.MaxInt64/r.mSize {
			return nil, fmt.Errorf("core: %s: M^%d overflows int64", s.Name, i+1)
		}
		r.pow[i+1] = r.pow[i] * r.mSize
	}
	arrangements := int64(1)
	if s.Symmetric {
		bps, err := s.BlockPerms()
		if err != nil {
			return nil, err
		}
		group, err := perm.GroupClosure(bps, 0)
		if err != nil {
			return nil, err
		}
		r.arrs = group // sorted by one-line notation: a stable indexing
		r.arrIdx = make(map[string]int64, len(group))
		for i, a := range group {
			r.arrIdx[arrKey(a)] = int64(i)
		}
		arrangements = int64(len(group))
	}
	if r.pow[s.L] > math.MaxInt64/arrangements {
		return nil, fmt.Errorf("core: %s: A*M^l overflows int64", s.Name)
	}
	r.n = arrangements * r.pow[s.L]
	return r, nil
}

// N returns the node count A * M^l, per Theorem 3.2 / Section 3.5.
func (r *Ranker) N() int64 { return r.n }

// Modules returns the number of nucleus-per-module clusters, N / M.
func (r *Ranker) Modules() int64 { return r.n / r.mSize }

// LabelLen returns the symbol length l*m of every label.
func (r *Ranker) LabelLen() int { return r.l * r.m }

// colorOf returns the color class of a super-symbol block of a symmetric
// label: block symbols lie in (c*m, (c+1)*m] for color c.
func (r *Ranker) colorOf(block symbols.Label) (int, error) {
	c := blockColor(block, r.m)
	if c < 0 || c >= r.l {
		return 0, fmt.Errorf("core: block %v has out-of-range color %d", block, c)
	}
	return c, nil
}

// Rank returns the dense id of label x, or an error if x is not a vertex of
// the graph (wrong length, unknown nucleus state, or unreachable
// arrangement).
func (r *Ranker) Rank(x symbols.Label) (int64, error) {
	if len(x) != r.l*r.m {
		return 0, fmt.Errorf("core: label has %d symbols, want %d", len(x), r.l*r.m)
	}
	var colors [64]byte
	var rank int64
	for pos := 0; pos < r.l; pos++ {
		block := x.Group(pos, r.m)
		var offset byte
		if r.s.Symmetric {
			c, err := r.colorOf(block)
			if err != nil {
				return 0, err
			}
			colors[pos] = byte(c)
			offset = byte(c * r.m)
		}
		for i, v := range block {
			r.canonBuf[i] = v - offset
		}
		d := r.nucIx.ID(r.canonBuf)
		if d < 0 {
			return 0, fmt.Errorf("core: block %v at position %d is not a nucleus state", block, pos)
		}
		rank = rank*r.mSize + int64(d)
	}
	if r.s.Symmetric {
		ai, ok := r.arrIdx[string(colors[:r.l])]
		if !ok {
			return 0, unreachableArrangement(colors[:r.l])
		}
		rank += ai * r.pow[r.l]
	}
	return rank, nil
}

// unreachableArrangement reports an arrangement missing from the subgroup.
// It formats a copy, so Rank's and ModuleOf's stack color arrays do not
// escape to the heap on the success path.
func unreachableArrangement(colors []byte) error {
	return fmt.Errorf("core: arrangement %v is not reachable", append([]byte(nil), colors...))
}

// Unrank writes the label of id into dst (allocating when dst is too short)
// and returns it. It panics when id is outside [0, N).
func (r *Ranker) Unrank(id int64, dst symbols.Label) symbols.Label {
	if id < 0 || id >= r.n {
		panic(fmt.Sprintf("core: id %d out of range [0,%d)", id, r.n))
	}
	if len(dst) < r.l*r.m {
		dst = make(symbols.Label, r.l*r.m)
	}
	dst = dst[:r.l*r.m]
	var arr perm.Perm
	if r.s.Symmetric {
		arr = r.arrs[id/r.pow[r.l]]
		id %= r.pow[r.l]
	}
	for pos := r.l - 1; pos >= 0; pos-- {
		d := id % r.mSize
		id /= r.mSize
		state := r.nucIx.Label(int32(d))
		var offset byte
		if arr != nil {
			offset = byte(arr[pos] * r.m)
		}
		blk := dst.Group(pos, r.m)
		for i, v := range state {
			blk[i] = v + offset
		}
	}
	return dst
}

// ModuleOf returns the module id of label x under the nucleus-per-module
// packing of Section 5.3: two labels share a module iff they agree on
// everything except the leftmost super-symbol. Module ids are dense in
// [0, Modules()).
func (r *Ranker) ModuleOf(x symbols.Label) (int64, error) {
	if len(x) != r.l*r.m {
		return 0, fmt.Errorf("core: label has %d symbols, want %d", len(x), r.l*r.m)
	}
	var colors [64]byte
	var mod int64
	usedColors := 0
	for pos := 1; pos < r.l; pos++ {
		block := x.Group(pos, r.m)
		var offset byte
		if r.s.Symmetric {
			c, err := r.colorOf(block)
			if err != nil {
				return 0, err
			}
			colors[pos] = byte(c)
			usedColors |= 1 << c
			offset = byte(c * r.m)
		}
		for i, v := range block {
			r.canonBuf[i] = v - offset
		}
		d := r.nucIx.ID(r.canonBuf)
		if d < 0 {
			return 0, fmt.Errorf("core: block %v at position %d is not a nucleus state", block, pos)
		}
		mod = mod*r.mSize + int64(d)
	}
	if r.s.Symmetric {
		// The leftmost block's color is forced: it is the one color the
		// other l-1 positions do not carry, so modules index by the full
		// arrangement even though the leftmost content is quotiented out.
		missing := 0
		for usedColors&(1<<missing) != 0 {
			missing++
		}
		colors[0] = byte(missing)
		ai, ok := r.arrIdx[string(colors[:r.l])]
		if !ok {
			return 0, unreachableArrangement(colors[:r.l])
		}
		mod += ai * r.pow[r.l-1]
	}
	return mod, nil
}

// Module returns the module id of node id; see ModuleOf.
func (r *Ranker) Module(id int64) (int64, error) {
	if id < 0 || id >= r.n {
		return 0, fmt.Errorf("core: id %d out of range [0,%d)", id, r.n)
	}
	return r.ModuleOfID(id), nil
}

// ModuleOfID is the closed-form Module: because ranks are the mixed-radix
// number d_0 d_1 ... d_{l-1} in base M (plus arrIdx * M^l for symmetric
// graphs) and a module quotients out exactly the leftmost digit d_0, the
// module id is pure integer arithmetic on the rank — no unranking, no symbol
// work, no scratch buffers. Unlike Module it is safe for concurrent use.
// The caller must pass a valid id in [0, N).
func (r *Ranker) ModuleOfID(id int64) int64 {
	return (id/r.pow[r.l])*r.pow[r.l-1] + (id%r.pow[r.l])%r.pow[r.l-1]
}

// ModuleSize returns M, the node count of every module: a module ranges
// exactly over the M choices of the leftmost nucleus state (Section 5.3).
func (r *Ranker) ModuleSize() int64 { return r.mSize }

// ModuleNode inverts (ModuleOfID, leftmost digit): it returns the off-th
// node of module mod, for off in [0, ModuleSize()). Like ModuleOfID it is
// pure integer arithmetic and safe for concurrent use. Enumerating off
// yields each module member exactly once.
func (r *Ranker) ModuleNode(mod, off int64) int64 {
	return (mod/r.pow[r.l-1])*r.pow[r.l] + off*r.pow[r.l-1] + mod%r.pow[r.l-1]
}
