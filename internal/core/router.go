package core

import (
	"fmt"

	"repro/internal/perm"
	"repro/internal/symbols"
)

// Router implements the routing algorithm of Theorem 4.1 (plain super-IP
// graphs) and Theorem 4.3 (symmetric super-IP graphs): sort the leftmost
// super-symbol with nucleus generators, then follow a covering schedule of
// super-generators, sorting each super-symbol the first time it reaches the
// leftmost position. The number of hops never exceeds l*D_G + t (resp.
// l*D_G + t_S), which equals the network diameter.
//
// The covering schedules are computed once per router. A plain graph has a
// single schedule, built by NewRouter. A symmetric graph needs one schedule
// per final arrangement; the router runs one cover search on its first
// route and keeps the whole table, so later routes only look up their entry.
// Routes are computed on scratch labels and buffers owned by the router, so
// Word allocates nothing once the tables exist. The router is therefore
// not safe for concurrent use.
type Router struct {
	s        *SuperIP
	nuc      *nucleusInfo
	m        int
	numNuc   int
	gens     []perm.Perm // SuperIP.IPGraph().Gens
	plain    coverPlan   // plain graphs: the one minimum covering schedule
	cover    *coverTable // symmetric graphs: built on the first route
	revArcs  [][]revArc
	nucTrees [][]int32 // target state id -> nextGen per state, built on first use

	// Scratch reused by every route.
	cur, next symbols.Label // the walk's current label and the next hop's
	canon     symbols.Label // a block shifted into the nucleus symbol range
	colorPos  []int         // color -> position in the source label
	target    []byte        // the route's final arrangement
}

type revArc struct {
	src int32
	gen int32
}

// Path is a route through a super-IP graph: the sequence of generator
// indices (into Router.Gens, which equals SuperIP.IPGraph().Gens) and all
// intermediate labels. Callers that need only the generators should use
// Router.Word, which builds no labels.
type Path struct {
	Gens   []int
	Labels []symbols.Label
}

// Hops returns the number of edges traversed.
func (p *Path) Hops() int { return len(p.Gens) }

// SuperSteps returns the number of super-generator applications — the number
// of off-module (inter-cluster) transmissions when each nucleus is packed
// into one module.
func (p *Path) SuperSteps(numNucleusGens int) int {
	n := 0
	for _, g := range p.Gens {
		if g >= numNucleusGens {
			n++
		}
	}
	return n
}

// NewRouter prepares routing state for a super-IP graph.
func NewRouter(s *SuperIP) (*Router, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nuc, err := s.nucleus()
	if err != nil {
		return nil, err
	}
	m := s.Nucleus.M()
	r := &Router{
		s:        s,
		nuc:      nuc,
		m:        m,
		numNuc:   len(s.Nucleus.Gens),
		gens:     s.IPGraph().Gens,
		nucTrees: make([][]int32, nuc.ix.N()),
		cur:      make(symbols.Label, s.L*m),
		next:     make(symbols.Label, s.L*m),
		canon:    make(symbols.Label, m),
		colorPos: make([]int, s.L),
		target:   make([]byte, s.L),
	}
	if !s.Symmetric {
		sched, err := s.MinCoverSchedule()
		if err != nil {
			return nil, err
		}
		r.plain = newCoverPlan(sched)
	}
	// Reverse arcs of the nucleus state graph, labeled with the generator
	// that produces them, for building per-target shortest-path trees.
	r.revArcs = make([][]revArc, nuc.ix.N())
	for i, dest := range nuc.next {
		src, gi := int32(i/r.numNuc), int32(i%r.numNuc)
		if dest != src {
			r.revArcs[dest] = append(r.revArcs[dest], revArc{src: src, gen: gi})
		}
	}
	return r, nil
}

// Gens returns the generators that route words index: the lifted nucleus
// generators followed by the super-generators, as in SuperIP.IPGraph().Gens.
// The slice is shared; callers must not modify it.
func (r *Router) Gens() []perm.Perm { return r.gens }

// nucTree returns (building if needed) the routing tree toward target state:
// nextGen[state] is the nucleus generator to apply at state on a shortest
// path to target, or -1 at the target itself / unreachable states.
func (r *Router) nucTree(target int32) []int32 {
	if tree := r.nucTrees[target]; tree != nil {
		return tree
	}
	n := r.nuc.ix.N()
	tree := make([]int32, n)
	for i := range tree {
		tree[i] = -1
	}
	queue := make([]int32, 0, n)
	queue = append(queue, target)
	visited := make([]bool, n)
	visited[target] = true
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, a := range r.revArcs[v] {
			if !visited[a.src] {
				visited[a.src] = true
				tree[a.src] = a.gen
				queue = append(queue, a.src)
			}
		}
	}
	r.nucTrees[target] = tree
	return tree
}

// blockColor returns the color class of a super-symbol block of a symmetric
// label: block symbols lie in (c*m, (c+1)*m] for color c. It does not check
// the range of c.
func blockColor(block symbols.Label, m int) int {
	min := block[0]
	for _, v := range block[1:] {
		if v < min {
			min = v
		}
	}
	return (int(min) - 1) / m
}

// stateID returns the nucleus state id of a block whose symbols are shifted
// up by offset (a symmetric label's color offset; 0 for plain graphs), or -1
// if the block is not a nucleus state.
func (r *Router) stateID(block symbols.Label, offset byte) int32 {
	for i, v := range block {
		r.canon[i] = v - offset
	}
	return r.nuc.ix.ID(r.canon)
}

// Route computes a path from src to dst following the paper's algorithm: the
// generator word of Word plus every intermediate label.
func (r *Router) Route(src, dst symbols.Label) (*Path, error) {
	word, err := r.Word(src, dst, nil)
	if err != nil {
		return nil, err
	}
	p := &Path{Gens: word, Labels: make([]symbols.Label, len(word)+1)}
	p.Labels[0] = src.Clone()
	for i, gi := range word {
		p.Labels[i+1] = make(symbols.Label, len(src))
		r.gens[gi].Apply(p.Labels[i+1], p.Labels[i])
	}
	return p, nil
}

// Word appends to buf the generator indices (into Gens) of the route from
// src to dst and returns the extended slice; applying them to src in order
// walks the route. The route is computed on the router's own scratch
// labels, so Word allocates only when buf must grow, on the first route
// toward each nucleus state, and on the first route of a symmetric router,
// which builds the schedule table. On error it returns nil.
func (r *Router) Word(src, dst symbols.Label, buf []int) ([]int, error) {
	if n := r.s.L * r.m; len(src) != n || len(dst) != n {
		return nil, fmt.Errorf("core: labels must have %d symbols", n)
	}
	plan := &r.plain
	if r.s.Symmetric {
		var err error
		if plan, err = r.symmetricPlan(src, dst); err != nil {
			return nil, err
		}
	} else if !sameMultiset(src, dst) {
		// Plain graphs: blocks are interchangeable, but contents must match
		// the destination exactly, so verify multisets agree per the model.
		return nil, fmt.Errorf("core: src and dst are not in the same IP graph (symbol multisets differ)")
	}
	sched := plan.sched
	copy(r.cur, src)
	for step := 0; step <= sched.T(); step++ {
		if r.cur.Equal(dst) {
			return buf, nil
		}
		orig := sched.Arrs[step][0]
		if plan.first[orig] == step {
			// First time this super-symbol is leftmost: sort its content to
			// the destination's super-symbol at its final position.
			var err error
			if buf, err = r.sortLeftmost(dst.Group(plan.final[orig], r.m), buf); err != nil {
				return nil, err
			}
		}
		if step < sched.T() {
			buf = r.apply(r.numNuc+sched.Moves[step], buf)
		}
	}
	if !r.cur.Equal(dst) {
		return nil, fmt.Errorf("core: route ended at %v, want %v", r.cur, dst)
	}
	return buf, nil
}

// apply moves the walk along generator gi and appends gi to word. A
// generator that fixes the current label (e.g. swapping two identical
// super-symbols) is a self-loop, not an edge, and physically no
// transmission: it is skipped, and the caller keeps following its schedule.
func (r *Router) apply(gi int, word []int) []int {
	r.gens[gi].Apply(r.next, r.cur)
	if r.next.Equal(r.cur) {
		return word
	}
	r.cur, r.next = r.next, r.cur
	return append(word, gi)
}

// sortLeftmost walks nucleus generators that transform the leftmost block of
// the current label into want, appending them to word.
func (r *Router) sortLeftmost(want symbols.Label, word []int) ([]int, error) {
	var offset byte
	if r.s.Symmetric {
		offset = byte(blockColor(r.cur[:r.m], r.m) * r.m)
	}
	wantID := r.stateID(want, offset)
	if wantID < 0 {
		return nil, fmt.Errorf("core: target block %v is not a nucleus state", want)
	}
	tree := r.nucTree(wantID)
	for {
		curID := r.stateID(r.cur[:r.m], offset)
		if curID < 0 {
			return nil, fmt.Errorf("core: block content %v is not a nucleus state", r.cur[:r.m])
		}
		if curID == wantID {
			return word, nil
		}
		gi := tree[curID]
		if gi < 0 {
			return nil, fmt.Errorf("core: nucleus state %d cannot reach %d", curID, wantID)
		}
		word = r.apply(int(gi), word)
	}
}

// symmetricPlan returns the covering plan of a symmetric route: the one
// whose final arrangement puts at every position the source super-symbol
// whose color dst carries there. The first call builds the router's
// schedule table.
func (r *Router) symmetricPlan(src, dst symbols.Label) (*coverPlan, error) {
	if r.cover == nil {
		tab, err := r.s.coverTable()
		if err != nil {
			return nil, err
		}
		r.cover = tab
	}
	l, m := r.s.L, r.m
	for i := range r.colorPos {
		r.colorPos[i] = -1
	}
	for pos := 0; pos < l; pos++ {
		c := blockColor(src.Group(pos, m), m)
		if c < 0 || c >= l || r.colorPos[c] >= 0 {
			return nil, fmt.Errorf("core: src has invalid color structure at block %d", pos)
		}
		r.colorPos[c] = pos
	}
	for pos := 0; pos < l; pos++ {
		c := blockColor(dst.Group(pos, m), m)
		if c < 0 || c >= l || r.colorPos[c] < 0 {
			return nil, fmt.Errorf("core: dst color %d at block %d missing in src", c, pos)
		}
		r.target[pos] = byte(r.colorPos[c])
	}
	i, ok := r.cover.index[string(r.target)]
	if !ok {
		return nil, fmt.Errorf("core: arrangement %v unreachable with full coverage", r.target)
	}
	return &r.cover.plans[i], nil
}

// sameMultiset reports whether the equal-length labels a and b hold the same
// symbols with the same multiplicities.
func sameMultiset(a, b symbols.Label) bool {
	var count [256]int32
	for i := range a {
		count[a[i]]++
		count[b[i]]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}
