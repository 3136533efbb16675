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
// The package also implements the paper's ball-arrangement game (Section 2),
// super-IP graphs with nucleus and super-generators (Section 3), the
// Theorem 4.1/4.3 routing algorithm and diameter formulas (Section 4), and a
// constructive demonstration of Theorem 2.1 (every graph has an IP-graph
// representation).
package core

import (
	"errors"
	"fmt"
	"runtime"

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

// GenName returns a printable name for generator i.
func (ip *IPGraph) GenName(i int) string {
	if ip.GenNames != nil && ip.GenNames[i] != "" {
		return ip.GenNames[i]
	}
	return ip.Gens[i].String()
}

// Index maps between node ids and labels of a built IP graph. Node ids are
// assigned in BFS discovery order from the seed (the seed is node 0), which
// makes builds deterministic: the parallel builder assigns exactly the same
// ids as the sequential one (see parallel.go).
//
// Internally the key->id map is hash-sharded (power-of-two shard count) so
// the parallel builder can intern labels from many goroutines without a
// global lock; a sequentially built Index uses a single shard and skips
// hashing entirely.
type Index struct {
	mask   uint32
	shards []map[string]int32
	labels []symbols.Label
}

// newIndex returns an empty Index with the given power-of-two shard count.
func newIndex(shardCount int) *Index {
	if shardCount < 1 || shardCount&(shardCount-1) != 0 {
		panic("core: index shard count must be a power of two")
	}
	shards := make([]map[string]int32, shardCount)
	for i := range shards {
		shards[i] = map[string]int32{}
	}
	return &Index{mask: uint32(shardCount - 1), shards: shards}
}

// labelHash is FNV-1a over the label bytes; its low bits pick the shard.
// The hash only routes keys to shards — node ids never depend on it, so any
// change of hash or shard count leaves built graphs bit-identical.
func labelHash(x []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range x {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// shardFor returns the intern map responsible for label x.
func (ix *Index) shardFor(x []byte) map[string]int32 {
	if ix.mask == 0 {
		return ix.shards[0]
	}
	return ix.shards[uint32(labelHash(x))&ix.mask]
}

// N returns the number of enumerated labels.
func (ix *Index) N() int { return len(ix.labels) }

// Label returns the label of node id.
func (ix *Index) Label(id int32) symbols.Label { return ix.labels[id] }

// ID returns the node id of a label, or -1 if the label is not a vertex.
func (ix *Index) ID(x symbols.Label) int32 {
	if id, ok := ix.shardFor(x)[string(x)]; ok {
		return id
	}
	return -1
}

// add interns x (cloning it) and reports whether it was new.
func (ix *Index) add(x symbols.Label) (int32, bool) {
	m := ix.shardFor(x)
	if id, ok := m[string(x)]; ok {
		return id, false
	}
	c := x.Clone()
	id := int32(len(ix.labels))
	m[c.Key()] = id
	ix.labels = append(ix.labels, c)
	return id, true
}

// BuildOptions controls Build.
type BuildOptions struct {
	// Limit aborts enumeration if more than Limit vertices are found
	// (0 means no limit). Protects against accidentally huge graphs.
	Limit int
	// AttachLabels stores each node's label string on the produced graph
	// (grouped by GroupSize symbols if nonzero).
	AttachLabels bool
	// GroupSize is the super-symbol length used when rendering labels.
	GroupSize int
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
// front-ends set it once at startup (-parallel/-workers flags); it is not
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

// BuildSeq is the sequential single-threaded enumerator. It is retained as
// the oracle the parallel builder is differenced against: the determinism
// tests assert Build produces byte-identical output for every worker count.
func (ip *IPGraph) BuildSeq(opt BuildOptions) (*graph.Graph, *Index, error) {
	if err := ip.Validate(); err != nil {
		return nil, nil, err
	}
	return ip.buildSeq(opt)
}

func (ip *IPGraph) buildSeq(opt BuildOptions) (*graph.Graph, *Index, error) {
	ix := newIndex(1)
	ix.add(ip.Seed)
	// arcs[u*len(Gens)+j] is the node reached from u by generator j.
	arcs := make([]int32, 0, 64*len(ip.Gens))
	buf := make(symbols.Label, len(ip.Seed))
	for head := 0; head < len(ix.labels); head++ {
		x := ix.labels[head]
		for _, g := range ip.Gens {
			g.Apply(buf, x)
			v, fresh := ix.add(buf)
			if fresh && opt.Limit > 0 && len(ix.labels) > opt.Limit {
				// Checked before the over-limit node contributes any arc.
				return nil, nil, ip.limitErr(opt.Limit, len(ix.labels))
			}
			arcs = append(arcs, v)
		}
	}
	return ip.finish(ix, arcs, opt)
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
func (ip *IPGraph) finish(ix *Index, arcs []int32, opt BuildOptions) (*graph.Graph, *Index, error) {
	undirected := perm.ClosedUnderInverse(ip.Gens)
	G := len(ip.Gens)
	b := graph.NewBuilder(len(ix.labels), !undirected)
	for u := 0; u < len(ix.labels); u++ {
		for j := 0; j < G; j++ {
			v := arcs[u*G+j]
			if undirected {
				b.AddEdge(int32(u), v)
			} else {
				b.AddArc(int32(u), v)
			}
		}
	}
	g := b.Build()
	if opt.AttachLabels {
		for id, lbl := range ix.labels {
			b2 := lbl.Grouped(opt.GroupSize)
			if g.Labels == nil {
				g.Labels = make([]string, g.N())
			}
			g.Labels[id] = b2
		}
	}
	return g, ix, nil
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
