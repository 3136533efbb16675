package topo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/superip"
	"repro/internal/symbols"
)

// labelNeighbors is the label-space reference for Implicit.Neighbors: unrank
// u, apply every generator, drop the images equal to u's label, rank the
// rest, then sort and deduplicate.
func labelNeighbors(t testing.TB, imp *Implicit, gens []perm.Perm, u int64, buf []int64) []int64 {
	t.Helper()
	rk := imp.rk
	x := rk.Unrank(u, nil)
	img := x.Clone()
	buf = buf[:0]
	for gi, g := range gens {
		g.Apply(img, x)
		if img.Equal(x) {
			continue
		}
		id, err := rk.Rank(img)
		if err != nil {
			t.Fatalf("%s: generator %d image %v of node %d: %v", imp.nameStr, gi, img, u, err)
		}
		buf = append(buf, id)
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// digitGrid returns instances of the nine Section 3 families (HSN, ring-CN,
// CN and super-flip networks, plain and symmetric, and the directed CN): all
// nine at every level count l up to a per-nucleus limit, plus the 2^17-node
// sym-HSN(2;Q8). Besides the hypercube nuclei (M a power of two), the 3-ary
// 2-cube and Petersen nuclei (M = 9 and 10) give radices that are not.
func digitGrid() []*superip.Net {
	grid := []*superip.Net{superip.HSN(2, superip.NucleusHypercube(8)).SymmetricVariant()}
	for _, c := range []struct {
		nuc  superip.NucleusSpec
		maxL int
	}{
		{superip.NucleusHypercube(1), 5},
		{superip.NucleusHypercube(2), 4},
		{superip.NucleusHypercube(3), 3},
		{superip.NucleusKAryCube(3, 2), 3},
		{superip.NucleusPetersen(), 3},
		{superip.NucleusHypercube(5), 2},
	} {
		for l := 2; l <= c.maxL; l++ {
			for _, kind := range []superip.Kind{superip.KindHSN, superip.KindRingCN,
				superip.KindCompleteCN, superip.KindSuperFlip, superip.KindDirectedCN} {
				net := superip.New(kind, l, c.nuc, false)
				grid = append(grid, net)
				if kind != superip.KindDirectedCN && c.nuc.DistinctSeedSafe {
					grid = append(grid, net.SymmetricVariant())
				}
			}
		}
	}
	return grid
}

// TestDigitNeighborsMatchLabels checks digit-space Neighbors against the
// label-space reference on every node of every digitGrid instance, and on a
// seeded 50,000-node sample of the 25,165,824-node sym-HSN(4;Q5). Generators
// act on ids by left multiplication in the Cayley (coset) graph, the same
// rule at every vertex, so a sample of the large instance checks its tables
// as well as a sweep would.
func TestDigitNeighborsMatchLabels(t *testing.T) {
	// check compares the two on nodes node(0), ..., node(count-1).
	check := func(net *superip.Net, count int64, node func(i int64) int64) {
		imp, err := NewImplicit(net.Super())
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		gens := net.Super().IPGraph().Gens
		var got, want []int64
		for i := int64(0); i < count; i++ {
			u := node(i)
			got = imp.Neighbors(u, got)
			want = labelNeighbors(t, imp, gens, u, want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: node %d: digit neighbors %v, label neighbors %v", net.Name(), u, got, want)
			}
		}
	}
	for _, net := range digitGrid() {
		check(net, int64(net.N()), func(i int64) int64 { return i })
	}
	big := superip.HSN(4, superip.NucleusHypercube(5)).SymmetricVariant()
	rng := rand.New(rand.NewSource(18))
	check(big, 50000, func(int64) int64 { return rng.Int63n(int64(big.N())) })
}

// TestWordIDMatchesWord checks the route word computed on ranks
// (core.Router.WordID) against the one computed on the unranked labels
// (core.Router.Word), errors included, and the node ids WordID emits
// against that word replayed from the source through Ranker.Step, on 3,000
// seeded pairs of every digitGrid instance, every 50th pair a node routed
// to itself, and on a seeded 50,000-pair sample of the 25,165,824-node
// sym-HSN(4;Q5). Both walks read only the generator action, the same rule
// at every vertex of the Cayley (coset) graph, so a sample checks the digit
// walk as well as a sweep would.
func TestWordIDMatchesWord(t *testing.T) {
	check := func(net *superip.Net, pairs int, seed int64) {
		s := net.Super()
		r, err := core.NewRouter(s)
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		rk, err := s.Ranker()
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		rng := rand.New(rand.NewSource(seed))
		var byID, byLabel []int
		var path, replay []int64
		srcLbl, dstLbl := make(symbols.Label, rk.LabelLen()), make(symbols.Label, rk.LabelLen())
		for i := 0; i < pairs; i++ {
			src, dst := rng.Int63n(rk.N()), rng.Int63n(rk.N())
			if i%50 == 0 {
				dst = src
			}
			var errID, errLabel error
			byID, path, errID = r.WordID(src, dst, byID[:0], path[:0])
			byLabel, errLabel = r.Word(rk.Unrank(src, srcLbl), rk.Unrank(dst, dstLbl), byLabel[:0])
			if (errID == nil) != (errLabel == nil) || !slices.Equal(byID, byLabel) {
				t.Fatalf("%s: %d -> %d: WordID %v (err %v), Word %v (err %v)",
					net.Name(), src, dst, byID, errID, byLabel, errLabel)
			}
			replay = replay[:0]
			if errLabel == nil {
				replay = append(replay, src)
				for _, gi := range byLabel {
					replay = append(replay, rk.Step(replay[len(replay)-1], gi))
				}
			}
			if !slices.Equal(path, replay) {
				t.Fatalf("%s: %d -> %d: WordID ids %v, word replayed through Step %v",
					net.Name(), src, dst, path, replay)
			}
		}
	}
	for _, net := range digitGrid() {
		check(net, 3000, 20)
	}
	check(superip.HSN(4, superip.NucleusHypercube(5)).SymmetricVariant(), 50000, 20)
}

// TestAlgebraicPathGolden pins the routes of the route-symhsn45 benchmark
// workload: 4,000 pairs of the 25,165,824-node sym-HSN(4;Q5), drawn from
// seed 1 as cmd/ipbench draws them (a source, then a different
// destination), routed by Algebraic.Path over the implicit codec. Every
// route is hashed as little-endian uint64 ids, and the first 8 bytes of the
// sha256 must read the workload's digest.
func TestAlgebraicPathGolden(t *testing.T) {
	const want = "ce815439c4d5f67e"
	net := superip.HSN(4, superip.NucleusHypercube(5)).SymmetricVariant()
	a, err := NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(net.N())
	rng := rand.New(rand.NewSource(1))
	h := sha256.New()
	var buf []byte
	for i := 0; i < 4000; i++ {
		src := rng.Int63n(n)
		dst := rng.Int63n(n - 1)
		if dst >= src {
			dst++
		}
		p, err := a.Path(src, dst)
		if err != nil {
			t.Fatalf("pair %d: %d -> %d: %v", i, src, dst, err)
		}
		buf = buf[:0]
		for _, v := range p {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want {
		t.Errorf("%s: route digest %s, want %s", net.Name(), got, want)
	}
}

// TestAlgebraicRejectsBadIDs checks that Path and NextHop return an error,
// not a panic, for a node outside [0, N), on both codec paths: the id walk
// of an Implicit codec and the label walk of a labelCodec, whose range is
// its N.
func TestAlgebraicRejectsBadIDs(t *testing.T) {
	net := superip.HSN(2, superip.NucleusHypercube(2))
	imp, err := NewImplicit(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	for name, codec := range map[string]Labeled{"implicit": imp, "label": labelCodec{imp}} {
		a, err := NewAlgebraicWith(net.Super(), codec)
		if err != nil {
			t.Fatal(err)
		}
		n := imp.N()
		for _, pair := range [][2]int64{{-1, 5}, {5, -1}, {n, 0}, {0, n + 3}} {
			if p, err := a.Path(pair[0], pair[1]); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s: Path(%d, %d) = %v, %v; want a range error", name, pair[0], pair[1], p, err)
			}
			if v, err := a.NextHop(pair[0], pair[1]); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s: NextHop(%d, %d) = %d, %v; want a range error", name, pair[0], pair[1], v, err)
			}
		}
		if p, err := a.Path(0, n-1); err != nil || p[len(p)-1] != n-1 {
			t.Errorf("%s: Path(0, %d) after bad ids = %v, %v", name, n-1, p, err)
		}
	}
}

// TestDigitNeighborsConcurrent checks that Neighbors is safe for concurrent
// use: the step tables are built once per specification and shared by
// every ranker, so goroutines calling Neighbors on one shared Implicit and
// on Implicits of their own must all read the label-space adjacency.
func TestDigitNeighborsConcurrent(t *testing.T) {
	net := superip.HSN(3, superip.NucleusHypercube(2)).SymmetricVariant()
	s := net.Super()
	shared, err := NewImplicit(s)
	if err != nil {
		t.Fatal(err)
	}
	gens := s.IPGraph().Gens
	want := make([][]int64, shared.N())
	for u := range want {
		want[u] = labelNeighbors(t, shared, gens, int64(u), nil)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, 2*workers)
	for w := 0; w < 2*workers; w++ {
		imp := shared
		if w%2 == 1 {
			if imp, err = NewImplicit(s); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func(imp *Implicit, w int) {
			defer wg.Done()
			var buf []int64
			for i := int64(0); i < imp.N(); i++ {
				u := (i + int64(w)*37) % imp.N()
				if buf = imp.Neighbors(u, buf); !slices.Equal(buf, want[u]) {
					errs <- net.Name() + ": concurrent Neighbors disagree with the label reference"
					return
				}
			}
		}(imp, w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestDigitNeighborsRejectOutOfRange pins the loud failure of Neighbors and
// Step on a node id outside [0, N), and of Step on a generator outside
// [0, MaxDegree): arithmetic on an invalid rank would return garbage ids or
// index past the step tables.
func TestDigitNeighborsRejectOutOfRange(t *testing.T) {
	for _, net := range []*superip.Net{
		superip.HSN(2, superip.NucleusHypercube(2)),
		superip.HSN(2, superip.NucleusHypercube(2)).SymmetricVariant(),
	} {
		imp, err := NewImplicit(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []int64{-1, imp.N(), imp.N() + 5} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "out of range") ||
						!strings.Contains(msg, "neighbors of node") {
						t.Errorf("%s: Neighbors(%d) on %d nodes: panic %q, want a range error", net.Name(), u, imp.N(), msg)
					}
				}()
				imp.Neighbors(u, nil)
			}()
			wantPanic(t, fmt.Sprintf("%s: Step(%d, 0)", net.Name(), u), "step from node", func() { imp.Step(u, 0) })
		}
		for _, g := range []int{-1, imp.MaxDegree()} {
			wantPanic(t, fmt.Sprintf("%s: Step(0, %d)", net.Name(), g), "step along generator", func() { imp.Step(0, g) })
		}
	}
}

// wantPanic checks that f panics with a range error naming op.
func wantPanic(t *testing.T, call, op string, f func()) {
	t.Helper()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "out of range") || !strings.Contains(msg, op) {
			t.Errorf("%s: panic %q, want a range error naming %q", call, msg, op)
		}
	}()
	f()
}

// labelCodec is an id <-> label codec without Step, so Algebraic takes its
// label walk over it: the endpoints are unranked, the route word is computed
// on labels (core.Router.Word), replayed on labels and ranked hop by hop.
// Its N gives the label walk its id range.
type labelCodec struct{ imp *Implicit }

func (c labelCodec) Label(u int64) symbols.Label { return c.imp.Label(u) }
func (c labelCodec) ID(x symbols.Label) int64    { return c.imp.ID(x) }
func (c labelCodec) N() int64                    { return c.imp.N() }

// TestAlgebraicIDPathMatchesLabelReplay routes the same pairs over an
// Implicit codec, whose routes are walked on rank digits in one pass that
// emits the node ids (WordID), and over a labelCodec, whose routes are
// computed on labels (Word), replayed on labels and ranked hop by hop; the
// two paths must be the same walk.
func TestAlgebraicIDPathMatchesLabelReplay(t *testing.T) {
	for _, net := range []*superip.Net{
		superip.HSN(3, superip.NucleusHypercube(2)),
		superip.HSN(3, superip.NucleusHypercube(2)).SymmetricVariant(),
	} {
		imp, err := NewImplicit(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		byID, err := NewAlgebraicWith(net.Super(), imp)
		if err != nil {
			t.Fatal(err)
		}
		if !byID.ranked {
			t.Fatalf("%s: an Implicit codec must select the id walk", net.Name())
		}
		byLabel, err := NewAlgebraicWith(net.Super(), labelCodec{imp})
		if err != nil {
			t.Fatal(err)
		}
		if byLabel.ranked {
			t.Fatalf("%s: a codec without Step must keep the label replay", net.Name())
		}
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < pairsPerFamily; trial++ {
			src, dst := rng.Int63n(imp.N()), rng.Int63n(imp.N())
			if src == dst {
				continue
			}
			p, err := byID.Path(src, dst)
			if err != nil {
				t.Fatalf("%s: id walk %d -> %d: %v", net.Name(), src, dst, err)
			}
			q, err := byLabel.Path(src, dst)
			if err != nil {
				t.Fatalf("%s: label replay %d -> %d: %v", net.Name(), src, dst, err)
			}
			if !slices.Equal(p, q) {
				t.Fatalf("%s: %d -> %d: id walk %v, label replay %v", net.Name(), src, dst, p, q)
			}
		}
	}
}
