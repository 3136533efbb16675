// Package core implements the index-permutation (IP) graph model of Yeh and
// Parhami (ICPP 1999), the paper's primary contribution.
//
// An IP graph is defined by a seed label and a set of generators, each an
// index permutation. The vertices are all labels obtainable by repeatedly
// applying generators to the seed; the edges are the generator actions.
// Unlike the Cayley graph model, the seed may contain repeated symbols, so
// the vertex set is generally a proper subset of an orbit of the symmetric
// group and its size depends on the seed's symbol multiset.
//
// The package also solves the paper's ball-arrangement game (Section 2) as
// shortest-path search over labels (IPGraph.ShortestPath, ApplyMoves), and
// implements super-IP graphs with nucleus and super-generators (Section 3),
// the Theorem 4.1/4.3 routing algorithm and diameter formulas (Section 4),
// and a constructive demonstration of Theorem 2.1 (every graph has an
// IP-graph representation).
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/symbols"
)

// IPGraph specifies an index-permutation graph: a seed label plus a set of
// index-permutation generators. Use Build to enumerate its vertex set and
// realize it as a concrete graph.
type IPGraph struct {
	// Name is a human-readable identifier used in diagnostics and DOT output.
	Name string
	// Seed is the seed element; generators are applied to it and to every
	// generated element.
	Seed symbols.Label
	// Gens are the generators. Each must be a permutation of len(Seed)
	// positions.
	Gens []perm.Perm
	// GenNames optionally names each generator (for routing traces).
	GenNames []string
}

// Validate checks structural consistency of the definition.
func (ip *IPGraph) Validate() error {
	if len(ip.Gens) == 0 {
		return errors.New("core: no generators")
	}
	if len(ip.Seed) == 0 {
		return errors.New("core: empty seed")
	}
	for i, g := range ip.Gens {
		if len(g) != len(ip.Seed) {
			return fmt.Errorf("core: generator %d has size %d, seed has %d symbols", i, len(g), len(ip.Seed))
		}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("core: generator %d: %v", i, err)
		}
	}
	if ip.GenNames != nil && len(ip.GenNames) != len(ip.Gens) {
		return fmt.Errorf("core: %d generator names for %d generators", len(ip.GenNames), len(ip.Gens))
	}
	return nil
}

// Index maps between node ids and labels of a built IP graph. Node ids are
// assigned in BFS discovery order from the seed (the seed is node 0), which
// makes builds deterministic.
//
// Every label has the seed's length k, so the labels live back to back in
// one byte slice, node id's label at labels[id*k:]. Lookups go through one
// intern table keyed by labelHash.
type Index struct {
	k      int
	table  internTable
	labels []byte
}

// internTable is the intern table of an Index: open-addressed and linearly
// probed, its slots hold a label's hash fingerprint and node id. The label
// bytes stay in Index.labels; the fingerprint rejects almost every
// non-matching slot without touching them.
type internTable struct {
	slots []internSlot // power-of-two length, at most half full
	shift uint32       // 32 - log2(len(slots)): a fingerprint's home slot is fp >> shift
	count int
}

// internSlot is one table entry; ref 0 marks an empty slot.
type internSlot struct {
	fp  uint32 // labelHash >> 32
	ref int32  // node id + 1
}

// initialTableSlots is the slot count every intern table starts with.
const initialTableSlots = 8

// newIndex returns an empty Index for labels of length k.
func newIndex(k int) *Index {
	return &Index{k: k, table: internTable{
		slots: make([]internSlot, initialTableSlots),
		shift: slotShift(initialTableSlots),
	}}
}

// slotShift returns the shift that maps a fingerprint to its home slot in a
// table of size slots, a power of two.
func slotShift(size int) uint32 { return uint32(32 - bits.TrailingZeros(uint(size))) }

// labelHash hashes a label eight bytes at a time: each word is folded into
// the state by a 64x64->128-bit multiply whose halves are xored, and a last
// fold mixes the state, so every bit of the hash depends on every byte. Its
// high 32 bits are the fingerprint that picks the intern table's slot. Node
// ids never depend on the hash, so any change of hash leaves built graphs
// bit-identical. hash/maphash.Bytes would do the same job, but on these
// 8–24-byte labels its per-call seeding made BenchmarkRankerRank about a
// fifth slower.
func labelHash(x []byte) uint64 {
	h := uint64(len(x)) ^ 0x9e3779b97f4a7c15
	for ; len(x) >= 8; x = x[8:] {
		h = hashFold(h^binary.LittleEndian.Uint64(x), 0xbf58476d1ce4e5b9)
	}
	if len(x) > 0 {
		var w uint64
		for i, b := range x {
			w |= uint64(b) << (8 * i)
		}
		h = hashFold(h^w, 0xbf58476d1ce4e5b9)
	}
	return hashFold(h, 0x94d049bb133111eb)
}

// hashFold returns the xor of the two halves of the 128-bit product a*b.
func hashFold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// lookup returns the id of label x with hash h, or -1.
func (ix *Index) lookup(x []byte, h uint64) int32 {
	t := &ix.table
	fp := uint32(h >> 32)
	mask := uint32(len(t.slots) - 1)
	for i := fp >> t.shift; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.ref == 0 {
			return -1
		}
		if s.fp == fp && bytes.Equal(ix.Label(s.ref-1), x) {
			return s.ref - 1
		}
	}
}

// reserve grows t, if needed, so that n more labels keep it at most half
// full.
func (t *internTable) reserve(n int) {
	need := 2 * (t.count + n)
	if need <= len(t.slots) {
		return
	}
	size := len(t.slots)
	for size < need {
		size <<= 1
	}
	old := t.slots
	t.slots = make([]internSlot, size)
	t.shift = slotShift(size)
	t.count = 0
	for _, s := range old {
		if s.ref != 0 {
			t.insert(s)
		}
	}
}

// insert stores s in t, which must have a free slot and must not hold the
// label already.
func (t *internTable) insert(s internSlot) {
	mask := uint32(len(t.slots) - 1)
	i := s.fp >> t.shift
	for t.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
	t.count++
}

// N returns the number of enumerated labels.
func (ix *Index) N() int { return len(ix.labels) / ix.k }

// Label returns the label of node id.
func (ix *Index) Label(id int32) symbols.Label {
	lo := int(id) * ix.k
	return symbols.Label(ix.labels[lo : lo+ix.k : lo+ix.k])
}

// ID returns the node id of a label, or -1 if the label is not a vertex.
func (ix *Index) ID(x symbols.Label) int32 { return ix.lookup(x, labelHash(x)) }

// add interns a copy of x and reports whether it was new.
func (ix *Index) add(x symbols.Label) (int32, bool) {
	h := labelHash(x)
	if id := ix.lookup(x, h); id >= 0 {
		return id, false
	}
	id := int32(ix.N())
	ix.labels = append(ix.labels, x...)
	ix.table.reserve(1)
	ix.table.insert(internSlot{fp: uint32(h >> 32), ref: id + 1})
	return id, true
}

// BuildOptions controls Build.
type BuildOptions struct {
	// Limit aborts enumeration if more than Limit vertices are found
	// (0 means no limit). Protects against accidentally huge graphs.
	Limit int
	// Workers is ignored: Build has one sequential enumerator. The field
	// stays only because cmd/ipbench still sets it, and goes with that
	// command's next revision (ROADMAP item 2).
	Workers int
	// Observe, when non-nil, receives one LevelStats record per BFS level,
	// after the level's last node is expanded. The callback runs
	// synchronously between levels; keep it cheap.
	Observe func(LevelStats)
}

// Build enumerates the IP graph by breadth-first search from the seed and
// returns the realized graph plus the label index. If the generator set is
// closed under inverse the result is undirected; otherwise it is a directed
// graph (as for de Bruijn-style generators).
//
// Nodes are expanded in id order, generators applied in declaration order,
// and a label's id is fixed the first time it appears, so the ids of each
// BFS level are one consecutive range. Node ids, arc slots and CSR offsets
// are int32: a build whose vertex count times generator count would pass
// math.MaxInt32 fails like one past Limit, before the offending vertex
// contributes any arc.
func (ip *IPGraph) Build(opt BuildOptions) (*graph.Graph, *Index, error) {
	if err := ip.Validate(); err != nil {
		return nil, nil, err
	}
	G := len(ip.Gens)
	maxN := math.MaxInt32 / G
	if opt.Limit > 0 {
		maxN = min(maxN, opt.Limit)
	}
	ix := newIndex(len(ip.Seed))
	ix.add(ip.Seed)
	// arcs[u*G+j] is the node reached from u by generator j.
	arcs := make([]int32, 0, 64*G)
	buf := make(symbols.Label, len(ip.Seed))
	var t0 time.Time
	if opt.Observe != nil {
		t0 = time.Now()
	}
	// Level d is the id range [lo, hi); the labels it reaches first form
	// level d+1.
	for d, lo, hi := 0, 0, 1; lo < hi; d, lo, hi = d+1, hi, ix.N() {
		for u := lo; u < hi; u++ {
			x := ix.Label(int32(u)) // stays valid when add grows ix.labels
			for _, g := range ip.Gens {
				g.Apply(buf, x)
				v, fresh := ix.add(buf)
				if fresh && ix.N() > maxN {
					return nil, nil, ip.sizeErr(opt.Limit, ix.N())
				}
				arcs = append(arcs, v)
			}
		}
		if opt.Observe != nil {
			t1 := time.Now()
			opt.Observe(LevelStats{
				Level:            d,
				FrontierNodes:    hi - lo,
				NewNodes:         ix.N() - hi,
				TotalNodes:       ix.N(),
				ArcSlots:         (hi - lo) * G,
				Expand:           t1.Sub(t0),
				InternArenaBytes: int64(len(ix.labels)),
			})
			t0 = t1
		}
	}
	return ip.finish(ix, arcs)
}

// sizeErr reports a build cut off past BuildOptions.Limit, or past the
// int32 arc slot space, naming the family and the number of vertices
// enumeration had reached when it was cut off.
func (ip *IPGraph) sizeErr(limit, attempted int) error {
	name := ip.Name
	if name == "" {
		name = "IP graph"
	}
	if limit > 0 && attempted > limit {
		return fmt.Errorf("core: %s exceeds vertex limit %d (attempted %d vertices)", name, limit, attempted)
	}
	return fmt.Errorf("core: %s with %d generators overflows the int32 arc slots (attempted %d vertices)",
		name, len(ip.Gens), attempted)
}

// finish realizes the enumerated arc table, node-major and
// generator-minor, as a CSR graph.
//
// Row u is arcs[u*G:(u+1)*G] sorted, without duplicates and self-loops,
// compacted in place. When the generators are closed under inverse, v = g(u)
// implies u = g⁻¹(v), so every reverse arc is already in its own row and
// the rows are symmetric as they stand. The graph keeps arcs' backing
// array unless appending left more than an eighth of it spare.
func (ip *IPGraph) finish(ix *Index, arcs []int32) (*graph.Graph, *Index, error) {
	G := len(ip.Gens)
	n := ix.N()
	offsets := make([]int32, n+1)
	m := 0
	for u := 0; u < n; u++ {
		row := arcs[u*G : (u+1)*G]
		slices.Sort(row)
		offsets[u] = int32(m)
		prev := int32(-1)
		for _, v := range row {
			// m <= u*G, so the write never overtakes the rows still unread.
			if v != prev && v != int32(u) {
				arcs[m] = v
				m++
				prev = v
			}
		}
	}
	offsets[n] = int32(m)
	if cap(arcs) > m+m/8 {
		arcs = slices.Clone(arcs[:m])
	}
	return graph.NewCSR(offsets, arcs[:m:m], !perm.ClosedUnderInverse(ip.Gens)), ix, nil
}

// IsCayley reports whether the IP graph satisfies the Cayley-graph condition
// of the underlying model: all seed symbols distinct. (Every Cayley graph is
// an IP graph; the converse fails when symbols repeat.)
func (ip *IPGraph) IsCayley() bool { return ip.Seed.HasDistinctSymbols() }

// Cayley builds the Cayley graph of the group generated by gens, i.e. the IP
// graph with the distinct-symbol seed 1..k. This realizes the paper's
// observation that the Cayley graph model is the distinct-symbols special
// case of the IP graph model. With no generators the result has no seed
// either, and its Validate and Build fail with "core: no generators".
func Cayley(name string, gens []perm.Perm, names []string) *IPGraph {
	ip := &IPGraph{Name: name, Gens: gens, GenNames: names}
	if len(gens) > 0 {
		ip.Seed = symbols.IotaSeed(len(gens[0]))
	}
	return ip
}
