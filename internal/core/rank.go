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
// Because the rank has the label's structure, the generators act on it
// digit by digit (Step). A nucleus generator rewrites only d_0, through an
// M x d_N table of nucleus state transitions. A super-generator with block
// permutation bp moves digit d_bp[i] to position i, and in the symmetric
// variant maps arrIdx through an A x d_S table. Neither needs a label, and
// so routes, like neighbors, need none: the Theorem 4.1/4.3 walk reads only
// the leftmost block's state d_0 and the destination's digits and applies
// generators, so Router.WordID runs it on ranks.
//
// The nucleus index, the arrangement subgroup and both transition tables
// depend only on the specification: SuperIP builds them once, under a
// lock, so rankers of one spec may be built concurrently, and every Ranker
// shares them read-only — O(M*d_N + A*d_S) memory, independent of
// N = A * M^l. Each Ranker copies the tables' headers, so reading them
// costs no pointer hop.
//
// Step, ModuleOfID and ModuleNode are pure arithmetic on those tables and
// safe for concurrent use. Rank is not: it reuses a scratch buffer of the
// Ranker.
type Ranker struct {
	rankTables
	s        *SuperIP
	l, m     int
	canonBuf symbols.Label // Rank block canonicalization buffer
}

// rankTables is the specification-wide part of every Ranker of a SuperIP.
type rankTables struct {
	nucIx *Index
	mSize int64   // M: nucleus state count
	pow   []int64 // pow[i] = M^i for i in 0..l
	n     int64   // A * M^l

	// Symmetric-variant arrangement subgroup (nil for plain graphs).
	arrs   []perm.Perm
	arrIdx map[string]int64

	// The generator action on ranks, indexed like SuperIP.IPGraph().Gens.
	numNuc, numSuper int
	nucNext          []int32       // [d*numNuc+g]: state of nucleus generator g applied to state d
	arrNext          []int32       // [a*numSuper+j]: arrangement of super-generator j applied to a (symmetric only)
	superMoves       [][]digitMove // [j]: the digits super-generator j moves
}

// digitMove is one digit a super-generator moves: the digit d at position
// src (place value M^place, place = l-1-src) lands at position dst, changing
// the rank by d * delta = d * (M^(l-1-dst) - M^place).
type digitMove struct {
	place int
	delta int64
}

// Ranker returns the closed-form id<->label bijection of the super-IP graph.
// It fails when a generator leaves the vertex set: a nucleus generator that
// maps a state outside the nucleus index, or a super-generator that maps an
// arrangement outside the subgroup.
func (s *SuperIP) Ranker() (*Ranker, error) {
	t, err := s.rankTables()
	if err != nil {
		return nil, err
	}
	return &Ranker{rankTables: *t, s: s, l: s.L, m: s.Nucleus.M(), canonBuf: make(symbols.Label, s.Nucleus.M())}, nil
}

// rankTables returns (building once) the tables every Ranker of s shares.
func (s *SuperIP) rankTables() (*rankTables, error) {
	s.lazy.Lock()
	defer s.lazy.Unlock()
	if s.rank != nil {
		return s.rank, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nuc, err := s.nucleusLocked()
	if err != nil {
		return nil, err
	}
	t := &rankTables{
		nucIx:    nuc.ix,
		mSize:    int64(nuc.ix.N()),
		numNuc:   len(nuc.gens),
		numSuper: len(s.SuperGens),
		nucNext:  nuc.next,
	}
	t.pow = make([]int64, s.L+1)
	t.pow[0] = 1
	for i := 0; i < s.L; i++ {
		if t.pow[i] > math.MaxInt64/t.mSize {
			return nil, fmt.Errorf("core: %s: M^%d overflows int64", s.Name, i+1)
		}
		t.pow[i+1] = t.pow[i] * t.mSize
	}
	bps, err := s.BlockPerms()
	if err != nil {
		return nil, err
	}
	t.superMoves = make([][]digitMove, len(bps))
	for j, bp := range bps {
		for dst, src := range bp {
			if src != dst {
				place := s.L - 1 - src
				t.superMoves[j] = append(t.superMoves[j], digitMove{place, t.pow[s.L-1-dst] - t.pow[place]})
			}
		}
	}
	arrangements := int64(1)
	if s.Symmetric {
		group, err := perm.GroupClosure(bps, 0)
		if err != nil {
			return nil, err
		}
		t.arrs = group // sorted by one-line notation: a stable indexing
		t.arrIdx = make(map[string]int64, len(group))
		for i, a := range group {
			t.arrIdx[arrKey(a)] = int64(i)
		}
		if t.arrNext, err = arrangementTransitions(s.Name, group, t.arrIdx, bps); err != nil {
			return nil, err
		}
		arrangements = int64(len(group))
	}
	if t.pow[s.L] > math.MaxInt64/arrangements {
		return nil, fmt.Errorf("core: %s: A*M^l overflows int64", s.Name)
	}
	t.n = arrangements * t.pow[s.L]
	s.rank = t
	return t, nil
}

// nucleusTransitions returns the nucleus state graph of index ix under gens
// as a table: [d*len(gens)+g] is the state generator g takes state d to.
// Nucleus generators act on the leftmost block within its color's symbol
// range, so shifted back by the color offset that is the same table in
// every variant. It fails if a generator leaves the index.
func nucleusTransitions(name string, ix *Index, gens []perm.Perm) ([]int32, error) {
	next := make([]int32, 0, ix.N()*len(gens))
	var img symbols.Label
	for d := int32(0); d < int32(ix.N()); d++ {
		x := ix.Label(d)
		img = append(img[:0], x...)
		for gi, g := range gens {
			g.Apply(img, x)
			id := ix.ID(img)
			if id < 0 {
				return nil, fmt.Errorf("core: %s: nucleus generator %d maps state %v outside the nucleus",
					name, gi, x)
			}
			next = append(next, id)
		}
	}
	return next, nil
}

// arrangementTransitions returns the action of the block permutations bps
// on the arrangement subgroup group (indexed by idx): [a*len(bps)+j] is the
// arrangement super-generator j takes arrangement a to. A super-generator
// moves the block at position bp[i] to position i, and the block's color
// moves with it. It fails if an image is not in the subgroup.
func arrangementTransitions(name string, group []perm.Perm, idx map[string]int64, bps []perm.Perm) ([]int32, error) {
	next := make([]int32, 0, len(group)*len(bps))
	key := make([]byte, len(group[0])) // arrKey of the image, built in place
	for _, a := range group {
		for j, bp := range bps {
			for i := range key {
				key[i] = byte(a[bp[i]])
			}
			id, ok := idx[string(key)]
			if !ok {
				return nil, fmt.Errorf("core: %s: super-generator %d maps arrangement %v outside the subgroup",
					name, j, a)
			}
			next = append(next, int32(id))
		}
	}
	return next, nil
}

// Step returns the id of the node that generator gen (an index into
// SuperIP.IPGraph().Gens: nucleus generators, then super-generators) takes
// node id to. It is the generator action on the rank's digits: O(1) for a
// nucleus generator, O(moved digits) for a super-generator, with no label
// work. A generator that fixes the node's label returns id itself. The
// caller must pass id in [0, N) and gen in [0, d_N + d_S).
func (r *Ranker) Step(id int64, gen int) int64 {
	var arr int64
	plain := id
	if r.arrNext != nil {
		arr = id / r.pow[r.l]
		plain = id - arr*r.pow[r.l]
	}
	if gen < r.numNuc {
		d := plain / r.pow[r.l-1]
		return id + (int64(r.nucNext[int(d)*r.numNuc+gen])-d)*r.pow[r.l-1]
	}
	j := gen - r.numNuc
	next := plain
	for _, mv := range r.superMoves[j] {
		next += plain / r.pow[mv.place] % r.mSize * mv.delta
	}
	if r.arrNext != nil {
		next += int64(r.arrNext[int(arr)*r.numSuper+j]) * r.pow[r.l]
	}
	return next
}

// digit returns digit d_pos of node id: the nucleus state of the
// super-symbol at position pos of its label. M^(l-pos) divides the
// arrangement's place value M^l, so the remainder drops it too. The caller
// must pass id in [0, N) and pos in [0, l).
func (r *Ranker) digit(id int64, pos int) int32 {
	return int32(id % r.pow[r.l-pos] / r.pow[r.l-1-pos])
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
// It formats a copy, so Rank's stack color array does not escape to the
// heap on the success path.
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

// ModuleOfID returns the module id of node id under the nucleus-per-module
// packing of Section 5.3: two nodes share a module iff their labels agree on
// everything except the leftmost super-symbol. Module ids are dense in
// [0, Modules()). Because ranks are the mixed-radix number d_0 d_1 ...
// d_{l-1} in base M (plus arrIdx * M^l for symmetric graphs) and a module
// quotients out exactly the leftmost digit d_0, the module id is pure
// integer arithmetic on the rank — no unranking, no symbol work, no scratch
// buffers. The caller must pass a valid id in [0, N).
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
