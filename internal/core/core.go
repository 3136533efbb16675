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
	"math/bits"
	"runtime"
	"slices"

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
// makes builds deterministic: the parallel builder assigns exactly the same
// ids as the sequential one (see parallel.go).
//
// Every label has the seed's length k, so the labels live back to back in
// one byte slice, node id's label at labels[id*k:]. Lookups go through a
// power-of-two number of intern tables: one labelHash per label picks the
// table with its low bits and the slot with its high bits, so the parallel
// builder can probe and fill disjoint tables from many goroutines without
// a lock. A sequentially built Index has a single table.
type Index struct {
	k      int
	mask   uint64 // table count - 1
	tables []internTable
	labels []byte
}

// internTable is one intern table of an Index: open-addressed and linearly
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

// newIndex returns an empty Index for labels of length k with 2^tableBits
// intern tables.
func newIndex(k int, tableBits uint) *Index {
	n := 1 << tableBits
	ix := &Index{k: k, mask: uint64(n - 1), tables: make([]internTable, n)}
	slots := make([]internSlot, n*initialTableSlots)
	for i := range ix.tables {
		lo, hi := i*initialTableSlots, (i+1)*initialTableSlots
		ix.tables[i] = internTable{slots: slots[lo:hi:hi], shift: slotShift(initialTableSlots)}
	}
	return ix
}

// slotShift returns the shift that maps a fingerprint to its home slot in a
// table of size slots, a power of two.
func slotShift(size int) uint32 { return uint32(32 - bits.TrailingZeros(uint(size))) }

// labelHash hashes a label eight bytes at a time: each word is folded into
// the state by a 64x64->128-bit multiply whose halves are xored, and a last
// fold mixes the state, so every bit of the hash depends on every byte. Its
// low bits pick the intern table and its high 32 bits are the fingerprint
// that picks the slot. Node ids never depend on the hash, so any change of
// hash or table count leaves built graphs bit-identical. hash/maphash.Bytes
// would do the same job, but on these 8–24-byte labels its per-call seeding
// made BenchmarkRankerRank about a fifth slower.
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

// table returns the intern table responsible for hash h.
func (ix *Index) table(h uint64) *internTable { return &ix.tables[h&ix.mask] }

// lookup returns the id of label x with hash h, or -1.
func (ix *Index) lookup(x []byte, h uint64) int32 {
	t := ix.table(h)
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
	t := ix.table(h)
	t.reserve(1)
	t.insert(internSlot{fp: uint32(h >> 32), ref: id + 1})
	return id, true
}

// BuildOptions controls Build.
type BuildOptions struct {
	// Limit aborts enumeration if more than Limit vertices are found
	// (0 means no limit). Protects against accidentally huge graphs.
	Limit int
	// Workers selects the enumeration strategy: 1 forces the sequential
	// builder, n > 1 runs the parallel level-synchronous builder with n
	// workers, and 0 falls back to DefaultWorkers (and then GOMAXPROCS).
	// The built graph and index are bit-identical for every worker count.
	Workers int
	// Observe, when non-nil, receives one LevelStats record per completed
	// BFS level: frontier sizes, per-phase wall times, intern-table
	// occupancy, and arena bytes. Observation requires the level-structured
	// enumerator, so a non-nil Observe routes the build through the
	// parallel builder even at Workers == 1 (whose output is byte-identical
	// to the sequential oracle). The callback runs synchronously between
	// levels; keep it cheap.
	Observe func(LevelStats)
}

// DefaultWorkers, when positive, is the worker count used by Build whenever
// BuildOptions.Workers is zero; when itself zero, GOMAXPROCS is used. CLI
// front-ends set it once at startup (their -workers flag); it is not
// synchronized, so set it before building from multiple goroutines.
var DefaultWorkers int

// effectiveWorkers resolves the Workers option against the defaults.
func effectiveWorkers(opt BuildOptions) int {
	w := opt.Workers
	if w == 0 {
		w = DefaultWorkers
	}
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Build enumerates the IP graph by breadth-first search from the seed and
// returns the realized graph plus the label index. If the generator set is
// closed under inverse the result is undirected; otherwise it is a directed
// graph (as for de Bruijn-style generators).
//
// With more than one worker (see BuildOptions.Workers) the enumeration is
// parallel and level-synchronous; node ids, edge order, and labels are
// guaranteed bit-identical to BuildSeq regardless of the worker count.
func (ip *IPGraph) Build(opt BuildOptions) (*graph.Graph, *Index, error) {
	if err := ip.Validate(); err != nil {
		return nil, nil, err
	}
	if w := effectiveWorkers(opt); w > 1 || opt.Observe != nil {
		return ip.buildParallel(opt, w)
	}
	return ip.buildSeq(opt)
}

// BuildSeq is the sequential single-threaded enumerator. No program calls
// it: it is the test oracle the parallel builder is differenced against, as
// the determinism tests assert Build produces byte-identical output for
// every worker count.
func (ip *IPGraph) BuildSeq(opt BuildOptions) (*graph.Graph, *Index, error) {
	if err := ip.Validate(); err != nil {
		return nil, nil, err
	}
	return ip.buildSeq(opt)
}

func (ip *IPGraph) buildSeq(opt BuildOptions) (*graph.Graph, *Index, error) {
	ix := newIndex(len(ip.Seed), 0)
	ix.add(ip.Seed)
	// arcs[u*len(Gens)+j] is the node reached from u by generator j.
	arcs := make([]int32, 0, 64*len(ip.Gens))
	buf := make(symbols.Label, len(ip.Seed))
	for head := int32(0); int(head) < ix.N(); head++ {
		x := ix.Label(head) // stays valid when add grows ix.labels
		for _, g := range ip.Gens {
			g.Apply(buf, x)
			v, fresh := ix.add(buf)
			if fresh && opt.Limit > 0 && ix.N() > opt.Limit {
				// Checked before the over-limit node contributes any arc.
				return nil, nil, ip.limitErr(opt.Limit, ix.N())
			}
			arcs = append(arcs, v)
		}
	}
	return ip.finish(ix, arcs)
}

// limitErr reports a BuildOptions.Limit violation, naming the family and the
// number of vertices enumeration had reached when it was cut off.
func (ip *IPGraph) limitErr(limit, attempted int) error {
	name := ip.Name
	if name == "" {
		name = "IP graph"
	}
	return fmt.Errorf("core: %s exceeds vertex limit %d (attempted %d vertices)", name, limit, attempted)
}

// finish realizes the enumerated arc table as a CSR graph. Both builders
// produce the identical flat arc layout (node-major, generator-minor), so
// sharing this epilogue guarantees the realized graphs match exactly.
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
