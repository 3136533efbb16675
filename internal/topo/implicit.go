package topo

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/symbols"
)

// Implicit is the algebraic implementation of Topology for super-IP graphs:
// nodes are dense ranks computed in closed form from labels (core.Ranker),
// and a node's neighbors are the images of its rank under the generator
// action on rank digits (core.Ranker.Step). Nothing O(N) is ever allocated —
// the only state is the nucleus index and the spec's transition tables, of
// M*d_N and A*d_S entries — so an Implicit topology scales to instances
// whose adjacency lists could never be materialized.
//
// Implicit implements Topology, Labeled, Modular and Adjacency. Neighbors,
// Adjacent, Step and the module methods are pure arithmetic on immutable
// tables and safe for concurrent use; Label and ID are not (they reuse label
// scratch).
type Implicit struct {
	rk       *core.Ranker
	degree   int
	directed bool

	lblBuf  symbols.Label // Label scratch
	nameStr string
}

// NewImplicit builds the implicit topology of a super-IP graph. The only
// graph ever enumerated is the nucleus (M nodes).
func NewImplicit(s *core.SuperIP) (*Implicit, error) {
	rk, err := s.Ranker()
	if err != nil {
		return nil, err
	}
	ip := s.IPGraph()
	return &Implicit{
		rk:       rk,
		degree:   len(ip.Gens),
		directed: !perm.ClosedUnderInverse(ip.Gens),
		lblBuf:   make(symbols.Label, rk.LabelLen()),
		nameStr:  s.Name,
	}, nil
}

// N returns A * M^l (Theorem 3.2 / Section 3.5) without enumeration.
func (t *Implicit) N() int64 { return t.rk.N() }

// MaxDegree returns the generator count — the degree bound of the Cayley
// view. Individual nodes of plain (repeated-seed) graphs may have fewer
// neighbors where a generator fixes their label.
func (t *Implicit) MaxDegree() int { return t.degree }

// Directed reports whether the generator set is closed under inverse.
func (t *Implicit) Directed() bool { return t.directed }

// Step returns the node generator gen (an index into
// SuperIP.IPGraph().Gens) takes node u to; see core.Ranker.Step. It panics
// if u or gen is out of range.
func (t *Implicit) Step(u int64, gen int) int64 {
	t.checkNode("step from", u)
	if gen < 0 || gen >= t.degree {
		panic(fmt.Sprintf("topo: %s: step along generator %d: out of range [0,%d)", t.nameStr, gen, t.degree))
	}
	return t.rk.Step(u, gen)
}

// checkNode panics with a range error, naming the operation, when u is not
// a node: arithmetic on an invalid rank would return garbage ids.
func (t *Implicit) checkNode(op string, u int64) {
	if u < 0 || u >= t.rk.N() {
		panic(fmt.Sprintf("topo: %s: %s node %d: out of range [0,%d)", t.nameStr, op, u, t.rk.N()))
	}
}

// Neighbors steps u along every generator, drops fixed points, and returns
// the images sorted and deduplicated — matching the adjacency contract of
// the materialized graph exactly. It panics if u is out of range.
func (t *Implicit) Neighbors(u int64, buf []int64) []int64 {
	t.checkNode("neighbors of", u)
	buf = buf[:0]
	for g := 0; g < t.degree; g++ {
		v := t.rk.Step(u, g)
		if v == u {
			continue // generator fixes this label: a self-loop, not an edge
		}
		i := len(buf)
		for i > 0 && buf[i-1] > v {
			i--
		}
		if i > 0 && buf[i-1] == v {
			continue // two generators reach the same neighbor
		}
		buf = append(buf, v)
		copy(buf[i+1:], buf[i:])
		buf[i] = v
	}
	return buf
}

// Adjacent reports whether some generator takes u to v != u, stepping the
// generators in order and returning at the first that does. It is false when
// u or v is not a node, and it needs no buffer, so it is safe for concurrent
// use like Neighbors.
func (t *Implicit) Adjacent(u, v int64) bool {
	if n := t.rk.N(); u < 0 || v < 0 || u >= n || v >= n || u == v {
		return false
	}
	for g := 0; g < t.degree; g++ {
		if t.rk.Step(u, g) == v {
			return true
		}
	}
	return false
}

// Label returns the label of node u. The result aliases internal scratch
// and is valid until the next Label or Neighbors call.
func (t *Implicit) Label(u int64) symbols.Label {
	t.lblBuf = t.rk.Unrank(u, t.lblBuf)
	return t.lblBuf
}

// ID returns the rank of a label, or -1 if it is not a vertex.
func (t *Implicit) ID(x symbols.Label) int64 {
	id, err := t.rk.Rank(x)
	if err != nil {
		return -1
	}
	return id
}

// Modules returns N / M, the module count of the Section 5.3 packing.
func (t *Implicit) Modules() int64 { return t.rk.Modules() }

// Module returns the module id of node u; it panics if u is out of range.
// Unlike the label-space methods it is closed-form integer arithmetic
// (core.Ranker.ModuleOfID) and safe for concurrent use — the sharded
// simulator calls it from every lane.
func (t *Implicit) Module(u int64) int64 {
	if u < 0 || u >= t.rk.N() {
		panic(fmt.Sprintf("topo: %s: module of node %d: out of range", t.nameStr, u))
	}
	return t.rk.ModuleOfID(u)
}

// ModuleSize returns M, the uniform node count of every module.
func (t *Implicit) ModuleSize() int64 { return t.rk.ModuleSize() }

// ModuleNode returns the off-th node of module mod (the inverse enumeration
// of Module); safe for concurrent use. Together with Modules, Module, and
// ModuleSize this makes *Implicit a netsim.ModuleSpace: the sharded
// simulator partitions and enumerates lanes without materializing anything.
func (t *Implicit) ModuleNode(mod, off int64) int64 { return t.rk.ModuleNode(mod, off) }

// SubcubeSpace partitions the n-cube Q_Dim into 2^(Dim-Low) subcube modules
// of 2^Low nodes each: module ids are the high Dim-Low address bits. It is
// the hypercube counterpart of the nucleus-per-module packing — the module
// view the sharded simulator needs (netsim.ModuleSpace) for a topology that
// has no super-IP structure. All methods are pure arithmetic and safe for
// concurrent use.
type SubcubeSpace struct{ Dim, Low int }

// Modules returns 2^(Dim-Low).
func (s SubcubeSpace) Modules() int64 { return int64(1) << uint(s.Dim-s.Low) }

// Module returns the high-bit module id of node u.
func (s SubcubeSpace) Module(u int64) int64 { return u >> uint(s.Low) }

// ModuleSize returns 2^Low.
func (s SubcubeSpace) ModuleSize() int64 { return int64(1) << uint(s.Low) }

// ModuleNode returns the off-th node of module mod.
func (s SubcubeSpace) ModuleNode(mod, off int64) int64 { return mod<<uint(s.Low) | off }

// HypercubeTopo is the implicit binary n-cube Q_dim: node ids are bit
// strings and neighbors differ in exactly one bit. Safe for concurrent use.
type HypercubeTopo struct{ Dim int }

// N returns 2^Dim.
func (t HypercubeTopo) N() int64 { return int64(1) << uint(t.Dim) }

// MaxDegree returns Dim.
func (t HypercubeTopo) MaxDegree() int { return t.Dim }

// Directed reports false: bit flips are involutions.
func (t HypercubeTopo) Directed() bool { return false }

// Neighbors appends the Dim single-bit flips of u, sorted ascending.
func (t HypercubeTopo) Neighbors(u int64, buf []int64) []int64 {
	buf = buf[:0]
	// Flipping a set bit clears it (smaller id), flipping a clear bit sets
	// it (larger id); emitting cleared results high-bit-first then set
	// results low-bit-first yields ascending order without sorting.
	for bit := t.Dim - 1; bit >= 0; bit-- {
		if u&(1<<uint(bit)) != 0 {
			buf = append(buf, u^(1<<uint(bit)))
		}
	}
	for bit := 0; bit < t.Dim; bit++ {
		if u&(1<<uint(bit)) == 0 {
			buf = append(buf, u^(1<<uint(bit)))
		}
	}
	return buf
}

// Adjacent reports whether u and v are nodes that differ in exactly one bit.
func (t HypercubeTopo) Adjacent(u, v int64) bool {
	n, x := t.N(), u^v
	return u >= 0 && v >= 0 && u < n && v < n && x != 0 && x&(x-1) == 0
}
