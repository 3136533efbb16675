package topo

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/symbols"
)

// Algebraic routes a super-IP graph with the constructive algorithm of
// Theorems 4.1/4.3 (core.Router): the only state is the nucleus routing
// trees and the covering schedules, so per-node memory is O(1) in N. Node
// ids are those of a Labeled codec. On an Implicit codec, whose ids are the
// ranks of the labels, a route is computed and replayed on ids alone
// (core.Router.WordID and Implicit.Step). A built graph routes the same way
// once its nodes are numbered in rank order. Any other codec translates the
// endpoints to labels, routes on them (core.Router.Word) and ranks every
// hop. Not safe for concurrent use.
type Algebraic struct {
	r      *core.Router
	codec  Labeled
	step   idStepper     // the codec's generator action on ids; nil when its ids are not ranks
	n      int64         // the codec's id count; -1 when it has no N method
	srcBuf symbols.Label // route source, then the label replay's current label
	dstBuf symbols.Label
	hopBuf symbols.Label // the label replay's next label
	word   []int         // the route's generator word

	// routes carries each packet's source route between NextHop calls.
	routes routeStore
}

// idStepper is a codec whose ids are ranks, so generators act on them
// directly (Implicit.Step).
type idStepper interface {
	Step(u int64, gen int) int64
}

// NewAlgebraic builds the paper's router over the implicit (closed-form)
// id <-> label bijection of s. No graph is materialized.
func NewAlgebraic(s *core.SuperIP) (*Algebraic, error) {
	imp, err := NewImplicit(s)
	if err != nil {
		return nil, err
	}
	return NewAlgebraicWith(s, imp)
}

// NewAlgebraicWith builds the paper's router over an explicit id <-> label
// codec. A codec with a Step method (Implicit) has its routes computed and
// replayed on ids; any other codec on labels, ranking every hop.
func NewAlgebraicWith(s *core.SuperIP, codec Labeled) (*Algebraic, error) {
	r, err := core.NewRouter(s)
	if err != nil {
		return nil, err
	}
	m := s.Nucleus.M()
	step, _ := codec.(idStepper)
	return &Algebraic{
		r:      r,
		codec:  codec,
		step:   step,
		n:      codecSize(codec),
		srcBuf: make(symbols.Label, s.L*m),
		dstBuf: make(symbols.Label, s.L*m),
		hopBuf: make(symbols.Label, s.L*m),
	}, nil
}

// NextHop advances one hop along the source route toward dst: the remaining
// route carried from the previous hop when one is stored, or a freshly
// computed Theorem 4.1/4.3 route from cur otherwise. Either way the packet
// follows a complete algebraic route of at most l*D_G + t hops, re-sourced
// only on store loss, so the iteration always terminates at dst.
func (a *Algebraic) NextHop(cur, dst int64) (int64, error) {
	if cur == dst {
		return 0, fmt.Errorf("topo: NextHop(%d, %d): already at destination", cur, dst)
	}
	if nxt, _, ok := a.routes.next(cur, dst); ok {
		return nxt, nil
	}
	p, err := a.Path(cur, dst)
	if err != nil {
		return 0, err
	}
	return a.routes.begin(cur, dst, p, false)
}

// RouterStats returns the cumulative route-store telemetry of this router:
// hits/misses of the in-flight source-route store, entries orphaned by
// safety-valve clears (each a forced mid-flight re-source), the clear count,
// and the current occupancy. Simulators snapshot it before and after a run
// and report the Delta.
func (a *Algebraic) RouterStats() RouterStats { return a.routes.stats() }

// codecSize returns the number of ids codec translates when it has an N
// method, as every Topology does, and -1 for any other codec, whose Label
// alone decides what it accepts.
func codecSize(codec Labeled) int64 {
	if c, ok := codec.(interface{ N() int64 }); ok {
		return c.N()
	}
	return -1
}

// Path returns the full algebraic route as node ids. On a codec with a Step
// it computes the route's generator word on ids (core.Router.WordID) and
// replays it through Step; on any other codec it computes the word on the
// endpoints' labels (core.Router.Word) and replays it on a scratch label,
// ranking each hop. The returned slice is its only allocation. An id
// outside the codec's range is an error.
func (a *Algebraic) Path(src, dst int64) ([]int64, error) {
	if a.step != nil {
		word, err := a.r.WordID(src, dst, a.word[:0])
		if err != nil {
			return nil, err
		}
		a.word = word
		out := make([]int64, len(word)+1)
		out[0] = src
		for i, gi := range word {
			out[i+1] = a.step.Step(out[i], gi)
		}
		return out, nil
	}
	if a.n >= 0 && (src < 0 || src >= a.n || dst < 0 || dst >= a.n) {
		return nil, fmt.Errorf("topo: route %d -> %d: node out of range [0,%d)", src, dst, a.n)
	}
	a.srcBuf = append(a.srcBuf[:0], a.codec.Label(src)...)
	a.dstBuf = append(a.dstBuf[:0], a.codec.Label(dst)...)
	word, err := a.r.Word(a.srcBuf, a.dstBuf, a.word[:0])
	if err != nil {
		return nil, err
	}
	a.word = word
	out := make([]int64, len(word)+1)
	out[0] = src
	gens := a.r.Gens()
	cur, next := a.srcBuf, a.hopBuf
	for i, gi := range word {
		gens[gi].Apply(next, cur)
		cur, next = next, cur
		id := a.codec.ID(cur)
		if id < 0 {
			return nil, fmt.Errorf("topo: route label %v is not a vertex", cur)
		}
		out[i+1] = id
	}
	return out, nil
}

// HypercubeRouter is e-cube routing on HypercubeTopo ids: correct the lowest
// differing bit first. Paths are shortest (Hamming distance). Safe for
// concurrent use.
type HypercubeRouter struct{ Dim int }

// NextHop flips the lowest bit in which cur and dst differ.
func (r HypercubeRouter) NextHop(cur, dst int64) (int64, error) {
	diff := cur ^ dst
	if diff == 0 {
		return 0, fmt.Errorf("topo: NextHop(%d, %d): already at destination", cur, dst)
	}
	return cur ^ (diff & -diff), nil
}

// Path returns the e-cube route, the NextHop walk from src to dst: its
// length is the Hamming distance. Ids outside [0, 2^Dim) are an error.
func (r HypercubeRouter) Path(src, dst int64) ([]int64, error) {
	if n := int64(1) << uint(r.Dim); src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("topo: route %d -> %d: node out of range [0,%d)", src, dst, n)
	}
	p := make([]int64, 1, bits.OnesCount64(uint64(src^dst))+1)
	p[0] = src
	for cur := src; cur != dst; {
		cur, _ = r.NextHop(cur, dst) // cur != dst: no error
		p = append(p, cur)
	}
	return p, nil
}
