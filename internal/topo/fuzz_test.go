package topo

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/superip"
)

// fuzzNet lazily builds the one family the fuzzer routes on: small enough
// that each execution is microseconds, symmetric so κ = degree detours
// exist.
var fuzzNet struct {
	once sync.Once
	imp  *Implicit
	mk   func() *FaultAware // fresh router per fault configuration
}

func fuzzSetup(t testing.TB, fs *FaultSet) (*Implicit, *FaultAware) {
	fuzzNet.once.Do(func() {
		net := superip.HSN(2, superip.NucleusHypercube(2)).SymmetricVariant()
		imp, err := NewImplicit(net.Super())
		if err != nil {
			panic(err)
		}
		fuzzNet.imp = imp
	})
	inner, err := NewAlgebraic(superip.HSN(2, superip.NucleusHypercube(2)).SymmetricVariant().Super())
	if err != nil {
		t.Fatal(err)
	}
	return fuzzNet.imp, NewFaultAware(fuzzNet.imp, inner, fs)
}

// FuzzDetourDerivation is the safety fuzz target for the fault-aware
// router: under an arbitrary fault set, a successfully derived route must
// never cross a failed link or node, must start and end at the requested
// pair, and iterated NextHop must deliver over live links too. (A derivation
// error is acceptable — the fault set may genuinely disconnect the pair —
// but silently routing through a fault never is.)
func FuzzDetourDerivation(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0))
	f.Add(int64(42), uint8(7), uint8(3))
	f.Add(int64(-9), uint8(255), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, nLinks, nNodes uint8) {
		fs := NewFaultSet()
		imp, fa := fuzzSetup(t, fs)
		n := imp.N()
		rng := rand.New(rand.NewSource(seed))
		var buf []int64
		for i := 0; i < int(nLinks%32); i++ {
			u := rng.Int63n(n)
			buf = imp.Neighbors(u, buf)
			if len(buf) == 0 {
				continue
			}
			fs.FailLinkBoth(u, buf[rng.Intn(len(buf))])
		}
		src := rng.Int63n(n)
		dst := rng.Int63n(n - 1)
		if dst >= src {
			dst++
		}
		for i := 0; i < int(nNodes%4); i++ {
			u := rng.Int63n(n)
			if u != src && u != dst {
				fs.FailNode(u)
			}
		}
		p, err := fa.Path(src, dst)
		if err != nil {
			return // pair may be disconnected by the faults; that is fine
		}
		if p[0] != src || p[len(p)-1] != dst {
			t.Fatalf("route endpoints %d..%d, want %d..%d", p[0], p[len(p)-1], src, dst)
		}
		for i := 0; i+1 < len(p); i++ {
			if fs.Blocked(p[i], p[i+1]) {
				t.Fatalf("route %v crosses failed link %d -> %d", p, p[i], p[i+1])
			}
			ok := false
			buf = imp.Neighbors(p[i], buf)
			for _, w := range buf {
				if w == p[i+1] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("route step %d -> %d is not an edge", p[i], p[i+1])
			}
		}
		// NextHop must deliver without crossing faults either.
		cur := src
		for hop := 0; cur != dst; hop++ {
			if hop > 10*MaxDetourTTL+100 {
				t.Fatalf("NextHop not delivering for (%d, %d)", src, dst)
			}
			nxt, err := fa.NextHop(cur, dst)
			if err != nil {
				return // a NextHop re-derivation may legitimately fail mid-route
			}
			if fs.Blocked(cur, nxt) {
				t.Fatalf("NextHop crossed failed link %d -> %d", cur, nxt)
			}
			cur = nxt
		}
	})
}
