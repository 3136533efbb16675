package core

import (
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
			mod, err := r.ModuleOf(lbl)
			if err != nil {
				t.Fatalf("%s: ModuleOf(%v): %v", name, lbl, err)
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
			rk, _ := r.Rank(lbl)
			viaID, err := r.Module(rk)
			if err != nil || viaID != mod {
				t.Fatalf("%s: Module(%d) = %d (%v), want %d", name, rk, viaID, err, mod)
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
