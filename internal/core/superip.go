package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/symbols"
)

// Nucleus specifies the small IP graph that forms the basic module of a
// super-IP graph: its seed is one super-symbol of the super-IP graph's seed
// and its generators are the nucleus generators (Section 3.1).
type Nucleus struct {
	Name     string
	Seed     symbols.Label
	Gens     []perm.Perm
	GenNames []string
}

// M returns the number of symbols in the nucleus seed (the super-symbol
// length m).
func (nc *Nucleus) M() int { return len(nc.Seed) }

// SuperIP specifies a super-IP graph (Section 3.1): L super-symbols of
// m = Nucleus.M() symbols each, nucleus generators acting on the leftmost
// super-symbol, and super-generators permuting whole super-symbols.
//
// If Symmetric is true the repeated seed S1 S1 ... S1 is replaced by the
// distinct-symbol seed S1 S2 ... Sl of Section 3.5, yielding a symmetric
// super-IP graph (a Cayley graph, hence vertex-symmetric and regular).
type SuperIP struct {
	Name          string
	L             int
	Nucleus       Nucleus
	SuperGens     []perm.Perm
	SuperGenNames []string
	Symmetric     bool

	// Lazily computed artifacts shared by every Ranker and Router of the
	// specification; lazy guards them, so the first constructions may run
	// concurrently.
	lazy sync.Mutex
	nuc  *nucleusInfo
	rank *rankTables
}

type nucleusInfo struct {
	g        *graph.Graph
	ix       *Index
	diameter int
	seed     symbols.Label
	gens     []perm.Perm
	next     []int32 // [d*len(gens)+g]: the state nucleus generator g takes state d to
}

// Validate checks the structural constraints of the super-IP definition:
// consistent sizes and block-structured super-generators, and that every
// super-symbol can reach the leftmost position (required by Section 3.1).
func (s *SuperIP) Validate() error {
	if s.L < 2 {
		return errors.New("core: super-IP graph needs l >= 2 super-symbols")
	}
	m := s.Nucleus.M()
	if m == 0 {
		return errors.New("core: empty nucleus seed")
	}
	if len(s.Nucleus.Gens) == 0 {
		return errors.New("core: nucleus has no generators")
	}
	for i, g := range s.Nucleus.Gens {
		if len(g) != m {
			return fmt.Errorf("core: nucleus generator %d has size %d, want %d", i, len(g), m)
		}
	}
	if len(s.SuperGens) == 0 {
		return errors.New("core: no super-generators")
	}
	for i, g := range s.SuperGens {
		if len(g) != s.L*m {
			return fmt.Errorf("core: super-generator %d has size %d, want %d", i, len(g), s.L*m)
		}
		if _, err := s.blockPerm(g); err != nil {
			return fmt.Errorf("core: super-generator %d: %v", i, err)
		}
	}
	// Every super-symbol must be able to reach the leftmost position.
	reach := s.leftmostReachable()
	for b := 0; b < s.L; b++ {
		if !reach[b] {
			return fmt.Errorf("core: super-symbol %d can never reach the leftmost position", b+1)
		}
	}
	return nil
}

// blockPerm extracts the block-level permutation bp of a super-generator:
// the i-th block of the output is the bp[i]-th block of the input. It errors
// if g does not permute whole blocks.
func (s *SuperIP) blockPerm(g perm.Perm) (perm.Perm, error) {
	m := s.Nucleus.M()
	bp := make(perm.Perm, s.L)
	for b := 0; b < s.L; b++ {
		src := g[b*m]
		if src%m != 0 {
			return nil, fmt.Errorf("block %d does not start at a block boundary (reads position %d)", b, src)
		}
		bp[b] = src / m
		for t := 1; t < m; t++ {
			if g[b*m+t] != src+t {
				return nil, fmt.Errorf("block %d is not moved contiguously", b)
			}
		}
	}
	if err := bp.Validate(); err != nil {
		return nil, err
	}
	return bp, nil
}

// BlockPerms returns the block-level permutations of all super-generators.
func (s *SuperIP) BlockPerms() ([]perm.Perm, error) {
	bps := make([]perm.Perm, len(s.SuperGens))
	for i, g := range s.SuperGens {
		bp, err := s.blockPerm(g)
		if err != nil {
			return nil, err
		}
		bps[i] = bp
	}
	return bps, nil
}

// leftmostReachable computes which original block indices can ever occupy
// the leftmost position under some sequence of super-generators.
func (s *SuperIP) leftmostReachable() []bool {
	bps, err := s.BlockPerms()
	if err != nil {
		return make([]bool, s.L)
	}
	// BFS over arrangements would be exponential; instead track the set of
	// blocks that can appear at position 0. arr[i] = original block at pos i;
	// applying bp yields arr'[0] = arr[bp[0]]. Reachability of "block b at
	// position 0" is a reachability problem on the L! arrangement space, but
	// a simpler sufficient computation works because super-generator sets in
	// practice are small: do BFS over arrangements with memoization, capped.
	reach := make([]bool, s.L)
	start := perm.Identity(s.L)
	seen := map[string]bool{arrKey(start): true}
	frontier := []perm.Perm{start}
	reach[start[0]] = true
	for len(frontier) > 0 {
		var next []perm.Perm
		for _, arr := range frontier {
			for _, bp := range bps {
				na := make(perm.Perm, s.L)
				for i := range na {
					na[i] = arr[bp[i]]
				}
				k := arrKey(na)
				if !seen[k] {
					seen[k] = true
					reach[na[0]] = true
					next = append(next, na)
				}
			}
		}
		frontier = next
	}
	return reach
}

func arrKey(arr perm.Perm) string {
	b := make([]byte, len(arr))
	for i, v := range arr {
		b[i] = byte(v)
	}
	return string(b)
}

// SeedLabel returns the seed of the full super-IP graph: l copies of the
// nucleus seed for a plain super-IP graph, or the distinct-symbol seed
// S1 S2 ... Sl for a symmetric one.
func (s *SuperIP) SeedLabel() symbols.Label {
	if s.Symmetric {
		return symbols.DistinctSeed(s.L, s.Nucleus.M())
	}
	return symbols.RepeatedSeed(s.L, s.Nucleus.Seed)
}

// nucleusSeed is the seed of the effective nucleus graph: the leftmost
// super-symbol of the full seed.
func (s *SuperIP) nucleusSeed() symbols.Label {
	return s.SeedLabel()[:s.Nucleus.M()]
}

// IPGraph assembles the full IP graph specification: nucleus generators
// lifted to act on the leftmost super-symbol, followed by the
// super-generators.
func (s *SuperIP) IPGraph() *IPGraph {
	m := s.Nucleus.M()
	k := s.L * m
	gens := make([]perm.Perm, 0, len(s.Nucleus.Gens)+len(s.SuperGens))
	names := make([]string, 0, cap(gens))
	for i, g := range s.Nucleus.Gens {
		gens = append(gens, perm.Lift(g, k))
		if s.Nucleus.GenNames != nil {
			names = append(names, s.Nucleus.GenNames[i])
		} else {
			names = append(names, "nuc"+g.String())
		}
	}
	for i, g := range s.SuperGens {
		gens = append(gens, g)
		if s.SuperGenNames != nil {
			names = append(names, s.SuperGenNames[i])
		} else {
			names = append(names, "super"+g.String())
		}
	}
	return &IPGraph{Name: s.Name, Seed: s.SeedLabel(), Gens: gens, GenNames: names}
}

// NumNucleusGens returns the number of nucleus generators (d_N in Thm 4.4).
func (s *SuperIP) NumNucleusGens() int { return len(s.Nucleus.Gens) }

// nucleus lazily builds the effective nucleus graph, its diameter and its
// state transition table.
func (s *SuperIP) nucleus() (*nucleusInfo, error) {
	s.lazy.Lock()
	defer s.lazy.Unlock()
	return s.nucleusLocked()
}

// nucleusLocked is nucleus for a caller that holds s.lazy.
func (s *SuperIP) nucleusLocked() (*nucleusInfo, error) {
	if s.nuc != nil {
		return s.nuc, nil
	}
	ipn := &IPGraph{
		Name: s.Nucleus.Name,
		Seed: s.nucleusSeed(),
		Gens: s.Nucleus.Gens,
	}
	// Nucleus graphs are small (M nodes); the sequential builder avoids
	// pointless per-level worker spawning.
	g, ix, err := ipn.Build(BuildOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	st := g.Symmetrized().AllPairs()
	if !st.Connected {
		return nil, fmt.Errorf("core: nucleus %s is not connected", s.Nucleus.Name)
	}
	next, err := nucleusTransitions(s.Name, ix, ipn.Gens)
	if err != nil {
		return nil, err
	}
	s.nuc = &nucleusInfo{g: g, ix: ix, diameter: int(st.Diameter), seed: ipn.Seed, gens: ipn.Gens, next: next}
	return s.nuc, nil
}

// NucleusSize returns M, the number of nodes of the (effective) nucleus
// graph.
func (s *SuperIP) NucleusSize() (int, error) {
	nuc, err := s.nucleus()
	if err != nil {
		return 0, err
	}
	return nuc.ix.N(), nil
}

// NucleusDiameter returns D_G, the diameter of the nucleus graph.
func (s *SuperIP) NucleusDiameter() (int, error) {
	nuc, err := s.nucleus()
	if err != nil {
		return 0, err
	}
	return nuc.diameter, nil
}

// NumArrangements returns the number of distinct super-symbol orderings
// reachable from the identity arrangement (l! for transposition or flip
// super-generators, l for cyclic shifts). For a plain super-IP graph the
// arrangement is unobservable; for a symmetric one it multiplies the size.
func (s *SuperIP) NumArrangements() (int, error) {
	bps, err := s.BlockPerms()
	if err != nil {
		return 0, err
	}
	group, err := perm.GroupClosure(bps, 0)
	if err != nil {
		return 0, err
	}
	return len(group), nil
}

// ExpectedSize returns the node count predicted by Theorem 3.2 (plain:
// N = M^l) and its Section 3.5 extension (symmetric: N = A * M^l where A is
// the number of reachable super-symbol arrangements).
func (s *SuperIP) ExpectedSize() (int, error) {
	m, err := s.NucleusSize()
	if err != nil {
		return 0, err
	}
	size := 1
	for i := 0; i < s.L; i++ {
		size *= m
	}
	if s.Symmetric {
		a, err := s.NumArrangements()
		if err != nil {
			return 0, err
		}
		size *= a
	}
	return size, nil
}

// Build enumerates the full super-IP graph. BuildOptions.Workers selects
// sequential vs parallel enumeration; the result is identical either way.
func (s *SuperIP) Build(opt BuildOptions) (*graph.Graph, *Index, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	return s.IPGraph().Build(opt)
}

// TheoreticalDiameter returns the diameter predicted by Theorem 4.1
// (plain: l*D_G + t) or Theorem 4.3 (symmetric: l*D_G + t_S).
func (s *SuperIP) TheoreticalDiameter() (int, error) {
	dg, err := s.NucleusDiameter()
	if err != nil {
		return 0, err
	}
	var t int
	if s.Symmetric {
		t, err = s.TSym()
	} else {
		var sched *Schedule
		sched, err = s.MinCoverSchedule()
		if err == nil {
			t = sched.T()
		}
	}
	if err != nil {
		return 0, err
	}
	return s.L*dg + t, nil
}
