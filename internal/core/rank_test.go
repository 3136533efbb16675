package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/perm"
	"repro/internal/symbols"
)

// rankerGrid returns named super-IP instances covering every Section 3
// family, plain and symmetric, small enough to cross-check exhaustively
// against the materialized graph.
func rankerGrid() map[string]*SuperIP {
	completeCN := func(l int, nuc Nucleus, symmetric bool) *SuperIP {
		m := nuc.M()
		gens := make([]perm.Perm, 0, l-1)
		for i := 1; i < l; i++ {
			gens = append(gens, perm.BlockLeftShift(l, m, i))
		}
		return &SuperIP{Name: "CN", L: l, Nucleus: nuc, SuperGens: gens, Symmetric: symmetric}
	}
	dirCN := func(l int, nuc Nucleus) *SuperIP {
		return &SuperIP{
			Name: "dirCN", L: l, Nucleus: nuc,
			SuperGens: []perm.Perm{perm.BlockLeftShift(l, nuc.M(), 1)},
		}
	}
	return map[string]*SuperIP{
		"HSN(3;Q2)":        hsn(3, nucleusQ(2), false),
		"sym-HSN(3;Q2)":    hsn(3, nucleusQ(2), true),
		"ringCN(3;Q2)":     ringCN(3, nucleusQ(2), false),
		"sym-ringCN(3;Q2)": ringCN(3, nucleusQ(2), true),
		"CN(4;Q2)":         completeCN(4, nucleusQ(2), false),
		"sym-CN(3;Q2)":     completeCN(3, nucleusQ(2), true),
		"dirCN(3;Q2)":      dirCN(3, nucleusQ(2)),
		"SFN(3;Q2)":        superFlip(3, nucleusQ(2), false),
		"sym-SFN(3;Q2)":    superFlip(3, nucleusQ(2), true),
		"HSN(2;Q3)":        hsn(2, nucleusQ(3), false),
		"sym-HSN(2;Q3)":    hsn(2, nucleusQ(3), true),
	}
}

// TestRankerBijection checks, exhaustively on every grid family, that Rank
// is a bijection from the materialized vertex set onto [0,N) and that Unrank
// inverts it.
func TestRankerBijection(t *testing.T) {
	for name, s := range rankerGrid() {
		_, ix, err := s.Build(BuildOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		r, err := s.Ranker()
		if err != nil {
			t.Fatalf("%s: ranker: %v", name, err)
		}
		if r.N() != int64(ix.N()) {
			t.Fatalf("%s: Ranker.N = %d, materialized N = %d", name, r.N(), ix.N())
		}
		seen := make([]bool, ix.N())
		var buf symbols.Label
		for id := int32(0); id < int32(ix.N()); id++ {
			lbl := ix.Label(id)
			rk, err := r.Rank(lbl)
			if err != nil {
				t.Fatalf("%s: Rank(%v): %v", name, lbl, err)
			}
			if rk < 0 || rk >= r.N() {
				t.Fatalf("%s: Rank(%v) = %d out of [0,%d)", name, lbl, rk, r.N())
			}
			if seen[rk] {
				t.Fatalf("%s: rank %d assigned twice", name, rk)
			}
			seen[rk] = true
			buf = r.Unrank(rk, buf)
			if !buf.Equal(lbl) {
				t.Fatalf("%s: Unrank(Rank(%v)) = %v", name, lbl, buf)
			}
		}
	}
}

// TestRankerModules checks that Module agrees with the nucleus-per-module
// partition: same module iff the labels agree on everything except the
// leftmost super-symbol, with dense module ids.
func TestRankerModules(t *testing.T) {
	for name, s := range rankerGrid() {
		_, ix, err := s.Build(BuildOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		r, err := s.Ranker()
		if err != nil {
			t.Fatalf("%s: ranker: %v", name, err)
		}
		m := s.Nucleus.M()
		bySuffix := map[string]int64{}
		seenMods := map[int64]bool{}
		for id := int32(0); id < int32(ix.N()); id++ {
			lbl := ix.Label(id)
			rk, err := r.Rank(lbl)
			if err != nil {
				t.Fatalf("%s: Rank(%v): %v", name, lbl, err)
			}
			mod, err := r.Module(rk)
			if err != nil {
				t.Fatalf("%s: Module(%d): %v", name, rk, err)
			}
			if mod < 0 || mod >= r.Modules() {
				t.Fatalf("%s: module %d out of [0,%d)", name, mod, r.Modules())
			}
			seenMods[mod] = true
			key := string(lbl[m:])
			if prev, ok := bySuffix[key]; ok {
				if prev != mod {
					t.Fatalf("%s: suffix %q maps to modules %d and %d", name, key, prev, mod)
				}
			} else {
				bySuffix[key] = mod
			}
		}
		if int64(len(bySuffix)) != r.Modules() || int64(len(seenMods)) != r.Modules() {
			t.Fatalf("%s: %d suffixes / %d module ids, want %d", name, len(bySuffix), len(seenMods), r.Modules())
		}
	}
}

// TestRankerRejectsNonVertices pins the error paths: wrong length, a block
// that is not a nucleus state, and (symmetric) an unreachable arrangement.
func TestRankerRejectsNonVertices(t *testing.T) {
	s := hsn(3, nucleusQ(2), false)
	r, err := s.Ranker()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rank(symbols.Label{1, 2}); err == nil {
		t.Fatal("short label accepted")
	}
	bad := s.SeedLabel().Clone()
	bad[0] = 9 // not a Q2 pair symbol
	if _, err := r.Rank(bad); err == nil {
		t.Fatal("non-nucleus block accepted")
	}

	// ring-CN symmetric: only cyclic arrangements are reachable, so a
	// transposed (non-cyclic) arrangement must be rejected.
	sy := ringCN(3, nucleusQ(2), true)
	ry, err := sy.Ranker()
	if err != nil {
		t.Fatal(err)
	}
	lbl := sy.SeedLabel().Clone()
	m := sy.Nucleus.M()
	for i := 0; i < m; i++ { // swap blocks 0 and 1: arrangement (1 0 2)
		lbl[i], lbl[m+i] = lbl[m+i], lbl[i]
	}
	if _, err := ry.Rank(lbl); err == nil {
		t.Fatal("unreachable arrangement accepted")
	}
}

// TestRankerRankAllocs checks that ranking a label allocates nothing, on a
// plain and on a symmetric instance.
func TestRankerRankAllocs(t *testing.T) {
	for _, s := range []*SuperIP{hsn(2, nucleusQ(5), false), hsn(3, nucleusQ(4), true)} {
		r, err := s.Ranker()
		if err != nil {
			t.Fatal(err)
		}
		x := r.Unrank(r.N()-1, nil)
		if n := testing.AllocsPerRun(100, func() { _, _ = r.Rank(x) }); n != 0 {
			t.Fatalf("%s (symmetric %v): Rank makes %.1f allocations, want 0", s.Name, s.Symmetric, n)
		}
	}
}

// TestRankerModuleArithmetic checks the closed-form module enumeration:
// ModuleSize * Modules covers N exactly, ModuleNode(m, ·) enumerates each
// module without repeats, and ModuleOfID inverts it — all without touching
// label space.
func TestRankerModuleArithmetic(t *testing.T) {
	for name, s := range rankerGrid() {
		r, err := s.Ranker()
		if err != nil {
			t.Fatalf("%s: ranker: %v", name, err)
		}
		size := r.ModuleSize()
		if size*r.Modules() != r.N() {
			t.Fatalf("%s: ModuleSize %d * Modules %d != N %d", name, size, r.Modules(), r.N())
		}
		seen := make([]bool, r.N())
		for mod := int64(0); mod < r.Modules(); mod++ {
			for off := int64(0); off < size; off++ {
				id := r.ModuleNode(mod, off)
				if id < 0 || id >= r.N() {
					t.Fatalf("%s: ModuleNode(%d,%d) = %d out of [0,%d)", name, mod, off, id, r.N())
				}
				if seen[id] {
					t.Fatalf("%s: ModuleNode(%d,%d) = %d emitted twice", name, mod, off, id)
				}
				seen[id] = true
				if got := r.ModuleOfID(id); got != mod {
					t.Fatalf("%s: ModuleOfID(ModuleNode(%d,%d)) = %d", name, mod, off, got)
				}
			}
		}
	}
}

// nucleusK3 is the complete graph K3 as a one-hot nucleus: the marked symbol
// 2 moves to any of three positions. Its plain state count M = 3 (and
// M = 3! = 6 under the distinct seed of a symmetric variant) is not a power
// of two, unlike every hypercube nucleus.
func nucleusK3() Nucleus {
	return Nucleus{
		Name: "K3",
		Seed: symbols.Label{2, 1, 1},
		Gens: []perm.Perm{perm.Transposition(3, 0, 1), perm.Transposition(3, 0, 2)},
	}
}

// stepOracle returns the label-space generator action: the rank of
// generator gen applied to the label of id.
func stepOracle(t testing.TB, s *SuperIP, r *Ranker, id int64, gen int) int64 {
	t.Helper()
	x := r.Unrank(id, nil)
	img := make(symbols.Label, len(x))
	s.IPGraph().Gens[gen].Apply(img, x)
	want, err := r.Rank(img)
	if err != nil {
		t.Fatalf("%s: generator %d image %v of node %d: %v", s.Name, gen, img, id, err)
	}
	return want
}

// TestStepMatchesApply checks, exhaustively on every grid family, on
// K3-nucleus instances and on sym-HSN(2;Q4) (a 4-bit digit), that the digit-space generator action is the label
// action: Step(id, g) == Rank(g applied to Unrank(id)) for every node and
// every generator, including the generators that fix a label.
func TestStepMatchesApply(t *testing.T) {
	grid := rankerGrid()
	grid["HSN(3;K3)"] = hsn(3, nucleusK3(), false)
	grid["sym-HSN(3;K3)"] = hsn(3, nucleusK3(), true)
	grid["sym-ringCN(4;K3)"] = ringCN(4, nucleusK3(), true)
	grid["SFN(4;K3)"] = superFlip(4, nucleusK3(), false)
	grid["sym-HSN(2;Q4)"] = hsn(2, nucleusQ(4), true)
	for name, s := range grid {
		r, err := s.Ranker()
		if err != nil {
			t.Fatalf("%s: ranker: %v", name, err)
		}
		gens := s.IPGraph().Gens
		for id := int64(0); id < r.N(); id++ {
			for g := range gens {
				if got, want := r.Step(id, g), stepOracle(t, s, r, id, g); got != want {
					t.Fatalf("%s: Step(%d, %d) = %d, label action gives %d", name, id, g, got, want)
				}
			}
		}
	}
}

// TestRankersShareStepTables checks that the step tables are built once per
// specification: every Ranker of one SuperIP reads the same tables, and so
// does its Router's nucleus transition table. The rankers and routers are
// built concurrently on a fresh SuperIP, so under -race the test also pins
// the locking of the lazily built artifacts.
func TestRankersShareStepTables(t *testing.T) {
	s := hsn(3, nucleusQ(2), true)
	const workers = 4
	rankers := make([]*Ranker, workers)
	routers := make([]*Router, workers)
	errs := make(chan error, 2*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if rankers[w], err = s.Ranker(); err != nil {
				errs <- err
			}
			if routers[w], err = NewRouter(s); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	a := rankers[0]
	for w, b := range rankers[1:] {
		if &a.nucNext[0] != &b.nucNext[0] || &a.arrNext[0] != &b.arrNext[0] || &a.superMoves[0] != &b.superMoves[0] {
			t.Fatalf("rankers 0 and %d of one specification built separate step tables", w+1)
		}
	}
	for w, r := range routers {
		if &r.nuc.next[0] != &a.nucNext[0] {
			t.Fatalf("router %d does not share the rankers' nucleus transition table", w)
		}
	}
}

// TestRankerRejectsEscapingGenerators pins the construction-time checks of
// the step tables: a nucleus generator that maps a state outside the
// nucleus index (checked where SuperIP builds its nucleus, so by Ranker and
// NewRouter alike), and a super-generator that maps an arrangement outside
// the subgroup (checked by Ranker), are errors, not panics at run time.
func TestRankerRejectsEscapingGenerators(t *testing.T) {
	// An index closed under Q2's first generator only: the second maps
	// its states outside it.
	q2 := nucleusQ(2)
	half := hsn(2, Nucleus{Name: "Q2/1", Seed: q2.Seed, Gens: q2.Gens[:1]}, false)
	nuc, err := half.nucleus()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nucleusTransitions("bad", nuc.ix, q2.Gens); err == nil ||
		!strings.Contains(err.Error(), "outside the nucleus") {
		t.Fatalf("transition table over an index not closed under the nucleus generators: err = %v", err)
	}

	// A one-element "subgroup" that a block transposition leaves.
	id := perm.Identity(3)
	idx := map[string]int64{arrKey(id): 0}
	swap := perm.Transposition(3, 0, 1)
	if _, err := arrangementTransitions("bad", []perm.Perm{id}, idx, []perm.Perm{swap}); err == nil ||
		!strings.Contains(err.Error(), "outside the subgroup") {
		t.Fatalf("arrangement table over a non-closed subgroup: err = %v", err)
	}
}
