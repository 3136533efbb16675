package core

import (
	"fmt"
	"math"

	"repro/internal/perm"
)

// Schedule is a sequence of super-generator applications together with the
// arrangement trace it induces. Arrangements are permutations arr with
// arr[pos] = index of the super-symbol (by original position) currently at
// position pos; Arrs[0] is the identity and Arrs[j] holds after Moves[j-1].
//
// The parameter t of Theorem 4.1 is the length of a minimum schedule under
// which every super-symbol appears at the leftmost position at least once;
// t_S of Theorem 4.3 additionally requires reaching a prescribed final
// arrangement.
type Schedule struct {
	Moves []int
	Arrs  []perm.Perm
}

// T returns the number of super-generator applications in the schedule.
func (sc *Schedule) T() int { return len(sc.Moves) }

// FinalPositions returns d, where d[i] is the final position of the
// super-symbol originally at position i.
func (sc *Schedule) FinalPositions() []int {
	final := sc.Arrs[len(sc.Arrs)-1]
	d := make([]int, len(final))
	for pos, orig := range final {
		d[orig] = pos
	}
	return d
}

// FirstLeftmost returns, for each original super-symbol index, the schedule
// step (0 = before any move, j = after Moves[j-1]) at which it first occupies
// the leftmost position, or -1 if it never does.
func (sc *Schedule) FirstLeftmost() []int {
	l := len(sc.Arrs[0])
	first := make([]int, l)
	for i := range first {
		first[i] = -1
	}
	for step, arr := range sc.Arrs {
		if first[arr[0]] < 0 {
			first[arr[0]] = step
		}
	}
	return first
}

// coverState is a node of the (arrangement, coverage-bitmask) search space.
type coverState struct {
	arr  string
	mask uint32
}

// coverSearch runs BFS over (arrangement, coverage) states from the identity
// arrangement with only super-symbol 0 covered, using the block-level
// permutations of the super-generators as moves. It returns the distance and
// parent maps for schedule reconstruction.
func (s *SuperIP) coverSearch() (map[coverState]int, map[coverState]struct {
	prev coverState
	move int
}, error) {
	if s.L > 12 {
		return nil, nil, fmt.Errorf("core: cover search infeasible for l = %d", s.L)
	}
	bps, err := s.BlockPerms()
	if err != nil {
		return nil, nil, err
	}
	start := coverState{arr: arrKey(perm.Identity(s.L)), mask: 1}
	dist := map[coverState]int{start: 0}
	parent := map[coverState]struct {
		prev coverState
		move int
	}{}
	frontier := []coverState{start}
	for len(frontier) > 0 {
		var next []coverState
		for _, st := range frontier {
			arr := []byte(st.arr)
			for mi, bp := range bps {
				na := make([]byte, len(arr))
				for i := range na {
					na[i] = arr[bp[i]]
				}
				ns := coverState{arr: string(na), mask: st.mask | 1<<uint(na[0])}
				if _, ok := dist[ns]; !ok {
					dist[ns] = dist[st] + 1
					parent[ns] = struct {
						prev coverState
						move int
					}{st, mi}
					next = append(next, ns)
				}
			}
		}
		frontier = next
	}
	return dist, parent, nil
}

// reconstruct builds a Schedule ending at goal from the parent map.
func (s *SuperIP) reconstruct(goal coverState, parent map[coverState]struct {
	prev coverState
	move int
}) *Schedule {
	var moves []int
	st := goal
	for {
		p, ok := parent[st]
		if !ok {
			break
		}
		moves = append(moves, p.move)
		st = p.prev
	}
	for i, j := 0, len(moves)-1; i < j; i, j = i+1, j-1 {
		moves[i], moves[j] = moves[j], moves[i]
	}
	bps, _ := s.BlockPerms()
	arrs := make([]perm.Perm, 0, len(moves)+1)
	arr := perm.Identity(s.L)
	arrs = append(arrs, arr.Clone())
	for _, mi := range moves {
		na := make(perm.Perm, s.L)
		bp := bps[mi]
		for i := range na {
			na[i] = arr[bp[i]]
		}
		arr = na
		arrs = append(arrs, arr.Clone())
	}
	return &Schedule{Moves: moves, Arrs: arrs}
}

// MinCoverSchedule computes a minimum-length schedule bringing every
// super-symbol to the leftmost position at least once — the parameter t of
// Theorem 4.1.
func (s *SuperIP) MinCoverSchedule() (*Schedule, error) {
	dist, parent, err := s.coverSearch()
	if err != nil {
		return nil, err
	}
	full := uint32(1)<<uint(s.L) - 1
	// Tie-break equal-length schedules on the final arrangement key: dist is
	// a map, and iteration order must not leak into the chosen schedule —
	// routers built from the same specification have to route identically.
	best, found := math.MaxInt, coverState{}
	for st, d := range dist {
		if st.mask != full {
			continue
		}
		if d < best || (d == best && st.arr < found.arr) {
			best, found = d, st
		}
	}
	if best == math.MaxInt {
		return nil, fmt.Errorf("core: no schedule covers all super-symbols")
	}
	return s.reconstruct(found, parent), nil
}

// coverPlan is a covering schedule together with the two per-super-symbol
// views the router reads on every route.
type coverPlan struct {
	sched *Schedule
	final []int // sched.FinalPositions()
	first []int // sched.FirstLeftmost()
}

func newCoverPlan(sc *Schedule) coverPlan {
	return coverPlan{sched: sc, final: sc.FinalPositions(), first: sc.FirstLeftmost()}
}

// coverTable is the outcome of one cover search: for every reachable final
// arrangement, the minimum covering schedule that ends there (Theorem 4.3).
// A symmetric route only selects its entry, so one search serves every
// route of a router.
type coverTable struct {
	plans []coverPlan
	index map[string]int // arrKey(final arrangement) -> plans index
	tS    int            // the longest plan: t_S of Theorem 4.3
}

// coverTable runs one cover search and reconstructs, for every reachable
// arrangement, the minimum covering schedule ending at it. It errors if some
// reachable arrangement is never reached with full coverage.
func (s *SuperIP) coverTable() (*coverTable, error) {
	dist, parent, err := s.coverSearch()
	if err != nil {
		return nil, err
	}
	full := uint32(1)<<uint(s.L) - 1
	reachable := map[string]bool{}
	tab := &coverTable{index: map[string]int{}}
	for st, d := range dist {
		reachable[st.arr] = true
		if st.mask != full {
			continue
		}
		tab.index[st.arr] = len(tab.plans)
		tab.plans = append(tab.plans, newCoverPlan(s.reconstruct(st, parent)))
		tab.tS = max(tab.tS, d)
	}
	for arr := range reachable {
		if _, ok := tab.index[arr]; !ok {
			return nil, fmt.Errorf("core: arrangement %v reachable but never with full coverage", []byte(arr))
		}
	}
	return tab, nil
}

// TSym computes t_S of Theorem 4.3: the minimum schedule length sufficient
// for every reachable final arrangement, i.e. the maximum over reachable
// arrangements tau of the minimum length of a covering schedule ending at
// tau.
func (s *SuperIP) TSym() (int, error) {
	tab, err := s.coverTable()
	if err != nil {
		return 0, err
	}
	return tab.tS, nil
}
