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
// The walk has two forms that share one schedule loop (walk). Word runs it
// on labels: it is the general algorithm, needs no rank space, and is the
// oracle of the other form. WordID runs the same walk on ranks (Theorem 3.2
// and Section 3.5): the leftmost block's nucleus state is the rank's digit
// d_0, the destination's states are its digits, and a super-generator is
// Ranker.Step, so an id route reads no label at all.
//
// The covering schedules are computed once per router. A plain graph has a
// single schedule, built by NewRouter. A symmetric graph needs one schedule
// per final arrangement; the router runs one cover search on its first
// route and keeps the whole table, so later routes only look up their entry.
// Routes are computed on scratch labels and buffers owned by the router, so
// Word and WordID allocate nothing once the tables exist. The router is
// therefore not safe for concurrent use.
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

	// Rank space, taken on the first id route: the spec's shared rank
	// tables and, for symmetric graphs, the plan of every (source, target)
	// arrangement pair.
	rk     *Ranker
	planOf []int32 // [a_src*A + a_dst] -> cover.plans index

	// Scratch reused by every label route.
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
// walks the route. It is the general form of the algorithm, on labels, and
// needs no rank space; WordID returns the same word from ranks. The route
// is computed on the router's own scratch labels, so Word allocates only
// when buf must grow, on the first route toward each nucleus state, and on
// the first route of a symmetric router, which builds the schedule table.
// On error it returns nil.
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
	copy(r.cur, src)
	return walk(r, labelWalk{r: r, cur: r.cur, next: r.next, dst: dst}, plan, buf)
}

// WordID is Word on node ids, the ranks of the Ranker of the router's
// specification: it returns the generator word of the route from the node
// ranked src to the node ranked dst, reading no label. The router takes its
// specification's shared rank tables on its first id route, so WordID fails
// on a specification whose rank space overflows int64, and on an id outside
// [0, N). It allocates only when buf must grow, on the first route toward
// each nucleus state, and on the first route of a symmetric router, which
// builds the schedule table and the A x A plan table over its arrangements.
// On error it returns nil.
func (r *Router) WordID(src, dst int64, buf []int) ([]int, error) {
	if r.rk == nil {
		rk, err := r.s.Ranker()
		if err != nil {
			return nil, err
		}
		r.rk = rk
	}
	rk := r.rk
	if src < 0 || src >= rk.n || dst < 0 || dst >= rk.n {
		return nil, fmt.Errorf("core: route %d -> %d: id out of range [0,%d)", src, dst, rk.n)
	}
	plan := &r.plain
	if r.s.Symmetric {
		if r.planOf == nil {
			if err := r.buildPlanTable(); err != nil {
				return nil, err
			}
		}
		a := rk.pow[rk.l]
		plan = &r.cover.plans[r.planOf[src/a*int64(len(rk.arrs))+dst/a]]
	}
	return walk(r, rankWalk{rk: rk, cur: src, dst: dst}, plan, buf)
}

// walkState is the current node of a route walk and its destination, as
// labels (labelWalk) or as ranks (rankWalk). The schedule loop reads and
// moves it only through these methods, so both forms run one algorithm.
type walkState[W any] interface {
	// arrived reports whether the walk is at its destination.
	arrived() bool
	// left returns the nucleus state of the leftmost super-symbol, and want
	// the destination's nucleus state at block position pos, read in the
	// leftmost block's color; either is -1 for a block that is not a
	// nucleus state.
	left() int32
	want(pos int) int32
	// setLeft rewrites the leftmost super-symbol from nucleus state from
	// to state to.
	setLeft(from, to int32) W
	// move follows generator gi; moved is false when gi fixes the node.
	move(gi int) (next W, moved bool)
}

// walk runs the schedule of plan from w's node to its destination and
// appends the route's generators to buf. Each super-symbol is sorted the
// first time it is leftmost: the walk follows the nucleus routing tree
// toward the destination's super-symbol at its final position, on state
// ids, and then rewrites the leftmost block once. A super-generator that
// fixes the node (e.g. swapping two identical super-symbols) is a
// self-loop, not an edge, and physically no transmission: it is skipped,
// and the walk keeps following its schedule.
func walk[W walkState[W]](r *Router, w W, plan *coverPlan, buf []int) ([]int, error) {
	sched := plan.sched
	for k := 0; k <= sched.T(); k++ {
		if w.arrived() {
			return buf, nil
		}
		if orig := sched.Arrs[k][0]; plan.first[orig] == k {
			d, want := w.left(), w.want(plan.final[orig])
			if d < 0 || want < 0 {
				return nil, fmt.Errorf("core: super-symbol %d or the destination's block %d is not a nucleus state",
					orig, plan.final[orig])
			}
			if d != want {
				tree := r.nucTree(want)
				for s := d; s != want; {
					gi := tree[s]
					if gi < 0 {
						return nil, fmt.Errorf("core: nucleus state %d cannot reach %d", s, want)
					}
					buf = append(buf, int(gi))
					s = r.nuc.next[int(s)*r.numNuc+int(gi)]
				}
				w = w.setLeft(d, want)
			}
		}
		if k < sched.T() {
			gi := r.numNuc + sched.Moves[k]
			var moved bool
			if w, moved = w.move(gi); moved {
				buf = append(buf, gi)
			}
		}
	}
	if !w.arrived() {
		return nil, fmt.Errorf("core: route did not reach its destination")
	}
	return buf, nil
}

// labelWalk is a route walk on labels, over the router's scratch.
type labelWalk struct {
	r              *Router
	cur, next, dst symbols.Label
}

func (w labelWalk) arrived() bool { return w.cur.Equal(w.dst) }

// offset returns the symbol offset of the leftmost block's color: 0 for
// plain graphs.
func (w labelWalk) offset() byte {
	if !w.r.s.Symmetric {
		return 0
	}
	return byte(blockColor(w.cur[:w.r.m], w.r.m) * w.r.m)
}

func (w labelWalk) left() int32 { return w.r.stateID(w.cur[:w.r.m], w.offset()) }

func (w labelWalk) want(pos int) int32 { return w.r.stateID(w.dst.Group(pos, w.r.m), w.offset()) }

func (w labelWalk) setLeft(_, to int32) labelWalk {
	off := w.offset()
	for i, v := range w.r.nuc.ix.Label(to) {
		w.cur[i] = v + off
	}
	return w
}

func (w labelWalk) move(gi int) (labelWalk, bool) {
	w.r.gens[gi].Apply(w.next, w.cur)
	if w.next.Equal(w.cur) {
		return w, false
	}
	w.cur, w.next = w.next, w.cur
	return w, true
}

// rankWalk is a route walk on ranks: a block's nucleus state is the rank's
// digit at its position, and a generator is Ranker.Step.
type rankWalk struct {
	rk       *Ranker
	cur, dst int64
}

func (w rankWalk) arrived() bool { return w.cur == w.dst }

func (w rankWalk) left() int32 { return w.rk.digit(w.cur, 0) }

func (w rankWalk) want(pos int) int32 { return w.rk.digit(w.dst, pos) }

func (w rankWalk) setLeft(from, to int32) rankWalk {
	w.cur += int64(to-from) * w.rk.pow[w.rk.l-1]
	return w
}

func (w rankWalk) move(gi int) (rankWalk, bool) {
	next := w.rk.Step(w.cur, gi)
	if next == w.cur {
		return w, false
	}
	w.cur = next
	return w, true
}

// coverTable returns the router's schedule table, running the cover search
// on the first call.
func (r *Router) coverTable() (*coverTable, error) {
	if r.cover == nil {
		tab, err := r.s.coverTable()
		if err != nil {
			return nil, err
		}
		r.cover = tab
	}
	return r.cover, nil
}

// symmetricPlan returns the covering plan of a symmetric route: the one
// whose final arrangement puts at every position the source super-symbol
// whose color dst carries there. The first call builds the router's
// schedule table.
func (r *Router) symmetricPlan(src, dst symbols.Label) (*coverPlan, error) {
	cover, err := r.coverTable()
	if err != nil {
		return nil, err
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
	i, ok := cover.index[string(r.target)]
	if !ok {
		return nil, fmt.Errorf("core: arrangement %v unreachable with full coverage", r.target)
	}
	return &cover.plans[i], nil
}

// buildPlanTable fills planOf, the plan symmetricPlan selects for every
// pair of source and destination arrangements (their indices in the rank
// tables' arrangement subgroup), so a symmetric id route selects its plan
// with one lookup.
func (r *Router) buildPlanTable() error {
	cover, err := r.coverTable()
	if err != nil {
		return err
	}
	arrs := r.rk.arrs
	planOf := make([]int32, 0, len(arrs)*len(arrs))
	for _, as := range arrs {
		for pos, c := range as {
			r.colorPos[c] = pos
		}
		for _, ad := range arrs {
			for pos, c := range ad {
				r.target[pos] = byte(r.colorPos[c])
			}
			i, ok := cover.index[string(r.target)]
			if !ok {
				return fmt.Errorf("core: arrangement %v unreachable with full coverage", r.target)
			}
			planOf = append(planOf, int32(i))
		}
	}
	r.planOf = planOf
	return nil
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
