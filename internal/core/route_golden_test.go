package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
)

// routeGolden pins every route the Theorem 4.1/4.3 router produces on a
// fixed set of instances: a sha256 over each route's generator word and
// label sequence. A change to the router that alters any hop of any route
// changes the digest. The digests were recorded with the router that ran a
// fresh cover search on every route, the reference the schedule table must
// reproduce.
var routeGolden = map[string]string{
	"HSN(3;Q2)":                "e40dcbb5b922707381727714d9a0ca57aaf05e05dc4999c9f281b6d34df74fa0",
	"sym-HSN(3;Q2)":            "f0337284a0379c0a2cb934d96a3419e376358206ed6d5f1ea30468e1d34b47db",
	"ringCN(3;Q2)":             "d1927df62bfc9baf82fe141dfb318ec4502e0accc2e7a0b2eb9ac86cc1279ab8",
	"sym-ringCN(3;Q2)":         "9732f3abeeec15d9318d8c8f03f994edec4871ed2acf78ad6de754104bab84d2",
	"CN(4;Q2)":                 "cd1680703007ae0bebafb698db82a14b436e36fd7413e6a1212d1621cee4c5c6",
	"sym-CN(3;Q2)":             "9732f3abeeec15d9318d8c8f03f994edec4871ed2acf78ad6de754104bab84d2",
	"dirCN(3;Q2)":              "870cf243cf9feb7fbb8dd4a58d9e284fa74b3846aeaf9b967a35d4319b0193ab",
	"SFN(3;Q2)":                "e40dcbb5b922707381727714d9a0ca57aaf05e05dc4999c9f281b6d34df74fa0",
	"sym-SFN(3;Q2)":            "f0337284a0379c0a2cb934d96a3419e376358206ed6d5f1ea30468e1d34b47db",
	"sym-HSN(4;Q5) 4000 pairs": "e15e4e01e336cf86831f90e2317a3723240876c165b28507324bf8d3e6a2be67",
}

// hashRoute feeds one route into h: its hop count, generator indices and
// labels. The hop-count prefix and the fixed label length keep the
// concatenated routes of a run unambiguous.
func hashRoute(h hash.Hash, p *Path) {
	var b [binary.MaxVarintLen64]byte
	h.Write(b[:binary.PutUvarint(b[:], uint64(len(p.Gens)))])
	for _, g := range p.Gens {
		h.Write(b[:binary.PutUvarint(b[:], uint64(g))])
	}
	for _, lbl := range p.Labels {
		h.Write(lbl)
	}
}

// TestRouteGolden routes every ordered pair of the nine small Section 3
// family instances, plain and symmetric, and 4,000 seeded pairs of the
// 25,165,824-node sym-HSN(4;Q5), and compares the route digests against
// routeGolden.
func TestRouteGolden(t *testing.T) {
	const big = "sym-HSN(4;Q5) 4000 pairs"
	grid := rankerGrid()
	for name := range routeGolden {
		if name == big {
			continue
		}
		s, ok := grid[name]
		if !ok {
			t.Fatalf("%s: golden entry has no grid instance", name)
		}
		_, ix, err := s.Build(BuildOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		r, err := NewRouter(s)
		if err != nil {
			t.Fatalf("%s: router: %v", name, err)
		}
		h := sha256.New()
		for u := int32(0); u < int32(ix.N()); u++ {
			for v := int32(0); v < int32(ix.N()); v++ {
				p, err := r.Route(ix.Label(u), ix.Label(v))
				if err != nil {
					t.Fatalf("%s: route %d -> %d: %v", name, u, v, err)
				}
				hashRoute(h, p)
			}
		}
		checkRouteDigest(t, name, h)
	}

	s := hsn(4, nucleusQ(5), true)
	rk, err := s.Ranker()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	h := sha256.New()
	for i := 0; i < 4000; i++ {
		src := rk.Unrank(rng.Int63n(rk.N()), nil)
		dst := rk.Unrank(rng.Int63n(rk.N()), nil)
		p, err := r.Route(src, dst)
		if err != nil {
			t.Fatalf("%s: route %v -> %v: %v", big, src, dst, err)
		}
		hashRoute(h, p)
	}
	checkRouteDigest(t, big, h)
}

func checkRouteDigest(t *testing.T, name string, h hash.Hash) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != routeGolden[name] {
		t.Errorf("%s: route digest %s, want %s", name, got, routeGolden[name])
	}
}
