package core

import (
	"slices"
	"testing"
)

// FuzzStep checks the digit-space generator action against the label
// action on random instances: a family (HSN, ring-CN, CN, super-flip or
// directed CN, plain or symmetric), a nucleus (Q2, Q3 or K3, so radices
// that are and are not powers of two), l in [2, 4], a node and a generator.
func FuzzStep(f *testing.F) {
	f.Add(uint8(0), uint8(1), false, uint64(5), uint8(0))
	f.Add(uint8(1), uint8(2), true, uint64(1<<40), uint8(7))
	f.Add(uint8(13), uint8(0), true, uint64(77), uint8(3))
	f.Fuzz(func(t *testing.T, family, l uint8, symmetric bool, id uint64, gen uint8) {
		builders := []func(int, Nucleus, bool) *SuperIP{hsn, ringCN, completeCN, superFlip, dirCN}
		nuclei := []func() Nucleus{func() Nucleus { return nucleusQ(2) }, func() Nucleus { return nucleusQ(3) }, nucleusK3}
		build := builders[int(family)%len(builders)]
		nuc := nuclei[int(family)/len(builders)%len(nuclei)]()
		s := build(2+int(l)%3, nuc, symmetric)
		r, err := s.Ranker()
		if err != nil {
			t.Fatalf("%s: ranker: %v", s.Name, err)
		}
		u := int64(id % uint64(r.N()))
		g := int(gen) % len(s.IPGraph().Gens)
		if got, want := r.Step(u, g), stepOracle(t, s, r, u, g); got != want {
			t.Fatalf("%s (symmetric %v, l %d): Step(%d, %d) = %d, label action gives %d",
				s.Name, symmetric, s.L, u, g, got, want)
		}
	})
}

// FuzzWordID checks the route walk on ranks against the walk on labels on
// random instances drawn like FuzzStep's: a family, plain or symmetric, a
// nucleus, l in [2, 4], and a source and destination node. WordID must
// return Word's generator word on the unranked labels, errors included.
func FuzzWordID(f *testing.F) {
	f.Add(uint8(0), uint8(1), false, uint64(5), uint64(9))
	f.Add(uint8(1), uint8(2), true, uint64(1<<40), uint64(3))
	f.Add(uint8(13), uint8(0), true, uint64(77), uint64(77))
	f.Fuzz(func(t *testing.T, family, l uint8, symmetric bool, src, dst uint64) {
		builders := []func(int, Nucleus, bool) *SuperIP{hsn, ringCN, completeCN, superFlip, dirCN}
		nuclei := []func() Nucleus{func() Nucleus { return nucleusQ(2) }, func() Nucleus { return nucleusQ(3) }, nucleusK3}
		build := builders[int(family)%len(builders)]
		nuc := nuclei[int(family)/len(builders)%len(nuclei)]()
		s := build(2+int(l)%3, nuc, symmetric)
		rk, err := s.Ranker()
		if err != nil {
			t.Fatalf("%s: ranker: %v", s.Name, err)
		}
		r, err := NewRouter(s)
		if err != nil {
			t.Fatalf("%s: router: %v", s.Name, err)
		}
		u, v := int64(src%uint64(rk.N())), int64(dst%uint64(rk.N()))
		got, errID := r.WordID(u, v, nil)
		want, errLabel := r.Word(rk.Unrank(u, nil), rk.Unrank(v, nil), nil)
		if (errID == nil) != (errLabel == nil) || !slices.Equal(got, want) {
			t.Fatalf("%s (symmetric %v, l %d): WordID(%d, %d) = %v (err %v), Word on labels %v (err %v)",
				s.Name, symmetric, s.L, u, v, got, errID, want, errLabel)
		}
	})
}
