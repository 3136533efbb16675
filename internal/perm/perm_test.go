package perm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomPerm returns a uniformly random permutation on k positions.
func randomPerm(r *rand.Rand, k int) Perm {
	p := Identity(k)
	r.Shuffle(k, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// permuted returns a fresh label equal to p applied to src.
func permuted(p Perm, src []byte) []byte {
	dst := make([]byte, len(src))
	p.Apply(dst, src)
	return dst
}

func isIdentity(p Perm) bool { return p.Equal(Identity(len(p))) }

func TestIdentity(t *testing.T) {
	id := Identity(5)
	if err := id.Validate(); err != nil {
		t.Fatal(err)
	}
	label := []byte{10, 20, 30, 40, 50}
	got := permuted(id, label)
	for i := range label {
		if got[i] != label[i] {
			t.Fatalf("identity moved symbol at %d", i)
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		p  Perm
		ok bool
	}{
		{Perm{0, 1, 2}, true},
		{Perm{2, 1, 0}, true},
		{Perm{0, 0, 1}, false},
		{Perm{0, 1, 3}, false},
		{Perm{-1, 1, 0}, false},
		{Perm{}, true},
	}
	for i, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestPaperStarGeneratorExample(t *testing.T) {
	// From the paper: X = 612345 with generator pi1 = (1,2) yields 162345,
	// pi2 = (1,3) yields 216345, pi3 = (1,4) yields 312645,
	// pi4 = (1,5) yields 412365, pi5 = (1,6) yields 512346.
	x := []byte{6, 1, 2, 3, 4, 5}
	want := [][]byte{
		{1, 6, 2, 3, 4, 5},
		{2, 1, 6, 3, 4, 5},
		{3, 1, 2, 6, 4, 5},
		{4, 1, 2, 3, 6, 5},
		{5, 1, 2, 3, 4, 6},
	}
	for i := 2; i <= 6; i++ {
		g := Transposition(6, 0, i-1)
		got := permuted(g, x)
		w := want[i-2]
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("(1,%d) applied to 612345 = %v, want %v", i, got, w)
			}
		}
	}
}

func TestPaperSwapSuperGeneratorExample(t *testing.T) {
	// From the paper: the super-generator T(2,2n) maps a label to its second
	// half followed by its first half. With n=2 (so 2n=4, label length 8):
	// T(2,4) applied to "abcdefgh" gives "efghabcd".
	tt := BlockTransposition(2, 4, 0, 1)
	x := []byte{'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'}
	got := string(permuted(tt, x))
	if got != "efghabcd" {
		t.Fatalf("T(2,4) = %q, want %q", got, "efghabcd")
	}
}

func TestPaperCyclicShiftExample(t *testing.T) {
	// L(i,m) changes X1 X2 ... Xl into X(i+1) ... Xl X1 ... Xi.
	// R(i,m) changes X into X(l-i+1) ... Xl X1 ... X(l-i).
	l, m := 4, 2
	x := []byte{1, 1, 2, 2, 3, 3, 4, 4}
	left := BlockLeftShift(l, m, 1)
	if got := permuted(left, x); string(got) != string([]byte{2, 2, 3, 3, 4, 4, 1, 1}) {
		t.Fatalf("L(1,2) = %v", got)
	}
	right := BlockRightShift(l, m, 1)
	if got := permuted(right, x); string(got) != string([]byte{4, 4, 1, 1, 2, 2, 3, 3}) {
		t.Fatalf("R(1,2) = %v", got)
	}
	if !isIdentity(Compose(left, right)) {
		t.Fatal("L then R is not the identity")
	}
}

func TestPaperFlipExample(t *testing.T) {
	// F(2,m)(X1 X2 X3 X4) = X2 X1 X3 X4; F(3,m)(X1 X2 X3 X4) = X3 X2 X1 X4.
	l, m := 4, 2
	x := []byte{1, 1, 2, 2, 3, 3, 4, 4}
	f2 := BlockFlip(l, m, 2)
	if got := permuted(f2, x); string(got) != string([]byte{2, 2, 1, 1, 3, 3, 4, 4}) {
		t.Fatalf("F(2) = %v", got)
	}
	f3 := BlockFlip(l, m, 3)
	if got := permuted(f3, x); string(got) != string([]byte{3, 3, 2, 2, 1, 1, 4, 4}) {
		t.Fatalf("F(3) = %v", got)
	}
	if !isIdentity(Compose(f3, f3)) {
		t.Fatal("flips must be involutions")
	}
}

func TestComposeOrder(t *testing.T) {
	// Applying p then q must equal Compose(p, q) applied once.
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(12)
		p, q := randomPerm(r, k), randomPerm(r, k)
		x := make([]byte, k)
		for i := range x {
			x[i] = byte(r.Intn(256))
		}
		step := permuted(q, permuted(p, x))
		direct := permuted(Compose(p, q), x)
		for i := range step {
			if step[i] != direct[i] {
				t.Fatalf("trial %d: compose mismatch at %d", trial, i)
			}
		}
	}
}

func TestInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(16)
		p := randomPerm(r, k)
		return isIdentity(Compose(p, p.Inverse())) && isIdentity(Compose(p.Inverse(), p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCyclesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(12)
		p := randomPerm(r, k)
		q := Identity(k)
		for _, c := range p.Cycles() {
			if err := applyCycle(q, c); err != nil {
				return false
			}
		}
		return q.Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseCycles(t *testing.T) {
	p, err := ParseCycles("(1 2)", 6)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(Transposition(6, 0, 1)) {
		t.Fatalf("parse (1 2) = %v", []int(p))
	}
	p, err = ParseCycles("(1 3)(2 4)", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := Compose(Transposition(4, 0, 2), Transposition(4, 1, 3))
	if !p.Equal(want) {
		t.Fatalf("parse (1 3)(2 4) = %v, want %v", []int(p), []int(want))
	}
	if _, err := ParseCycles("(0 1)", 4); err == nil {
		t.Fatal("expected range error for 0 in 1-based notation")
	}
	if _, err := ParseCycles("(1 5)", 4); err == nil {
		t.Fatal("expected range error for 5 on 4 positions")
	}
	if _, err := ParseCycles("(1 2", 4); err == nil {
		t.Fatal("expected unterminated-cycle error")
	}
	id, err := ParseCycles("()", 3)
	if err != nil || !isIdentity(id) {
		t.Fatalf("parse () = %v, %v", id, err)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		k := 1 + r.Intn(12)
		p := randomPerm(r, k)
		q, err := ParseCycles(p.String(), k)
		if err != nil {
			t.Fatalf("parse %q: %v", p.String(), err)
		}
		if !q.Equal(p) {
			t.Fatalf("round trip of %q gave %v, want %v", p.String(), []int(q), []int(p))
		}
	}
}

func TestThreeCycleConvention(t *testing.T) {
	// In cycle (a b c), the symbol at a goes to b, b to c, c to a.
	p, err := ParseCycles("(1 2 3)", 3)
	if err != nil {
		t.Fatal(err)
	}
	got := permuted(p, []byte{'a', 'b', 'c'})
	if string(got) != "cab" {
		t.Fatalf("(1 2 3) applied to abc = %q, want cab", got)
	}
}

func TestRotation(t *testing.T) {
	p := Rotation(6, 2)
	got := permuted(p, []byte{'a', 'b', 'c', 'd', 'e', 'f'})
	if string(got) != "cdefab" {
		t.Fatalf("Rotation(6,2) = %q", got)
	}
	if !isIdentity(Rotation(6, 0)) || !isIdentity(Rotation(6, 6)) {
		t.Fatal("rotation by 0 or k must be identity")
	}
	if !isIdentity(Compose(Rotation(5, 2), Rotation(5, 3))) {
		t.Fatal("rotations by 2 and 3 on 5 positions must cancel")
	}
}

func TestLift(t *testing.T) {
	p := Transposition(3, 0, 2)
	q := Lift(p, 7)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	x := []byte{1, 2, 3, 4, 5, 6, 7}
	got := permuted(q, x)
	want := []byte{3, 2, 1, 4, 5, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Lift mismatch: got %v want %v", got, want)
		}
	}
}

func TestBlockTranspositionInvolution(t *testing.T) {
	for l := 2; l <= 5; l++ {
		for m := 1; m <= 4; m++ {
			for i := 0; i < l; i++ {
				for j := i + 1; j < l; j++ {
					p := BlockTransposition(l, m, i, j)
					if err := p.Validate(); err != nil {
						t.Fatalf("l=%d m=%d (%d,%d): %v", l, m, i, j, err)
					}
					if !isIdentity(Compose(p, p)) {
						t.Fatalf("l=%d m=%d (%d,%d): not an involution", l, m, i, j)
					}
				}
			}
		}
	}
}

func TestBlockShiftOrder(t *testing.T) {
	for l := 2; l <= 6; l++ {
		// The order is l: the l-th power is the first to be the identity.
		p := BlockLeftShift(l, 3, 1)
		q := p
		for n := 1; n < l; n++ {
			if isIdentity(q) {
				t.Fatalf("BlockLeftShift(%d,3,1) has order %d, want %d", l, n, l)
			}
			q = Compose(q, p)
		}
		if !isIdentity(q) {
			t.Fatalf("BlockLeftShift(%d,3,1)^%d is not the identity", l, l)
		}
	}
}

func TestClosedUnderInverse(t *testing.T) {
	l, m := 4, 2
	trans := []Perm{
		BlockTransposition(l, m, 0, 1),
		BlockTransposition(l, m, 0, 2),
		BlockTransposition(l, m, 0, 3),
	}
	if !ClosedUnderInverse(trans) {
		t.Fatal("transpositions are self-inverse; set must be closed")
	}
	onlyLeft := []Perm{BlockLeftShift(l, m, 1)}
	if ClosedUnderInverse(onlyLeft) {
		t.Fatal("a lone cyclic shift (l>2) is not inverse-closed")
	}
	ring := []Perm{BlockLeftShift(l, m, 1), BlockRightShift(l, m, 1)}
	if !ClosedUnderInverse(ring) {
		t.Fatal("{L,R} must be inverse-closed")
	}
}

func TestGroupClosureSymmetricGroup(t *testing.T) {
	// Star-graph generators (1,i) generate the full symmetric group.
	n := 5
	var gens []Perm
	for i := 1; i < n; i++ {
		gens = append(gens, Transposition(n, 0, i))
	}
	group, err := GroupClosure(gens, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1
	for i := 2; i <= n; i++ {
		want *= i
	}
	if len(group) != want {
		t.Fatalf("closure size = %d, want %d (= %d!)", len(group), want, n)
	}
}

func TestGroupClosureCyclicGroup(t *testing.T) {
	g := Rotation(6, 1)
	group, err := GroupClosure([]Perm{g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(group) != 6 {
		t.Fatalf("cyclic closure size = %d, want 6", len(group))
	}
}

func TestGroupClosureLimit(t *testing.T) {
	var gens []Perm
	for i := 1; i < 7; i++ {
		gens = append(gens, Transposition(7, 0, i))
	}
	if _, err := GroupClosure(gens, 100); err == nil {
		t.Fatal("expected limit error for S7 with limit 100")
	}
}

func TestGroupClosureErrors(t *testing.T) {
	if _, err := GroupClosure(nil, 0); err == nil {
		t.Fatal("expected error for empty generator set")
	}
	if _, err := GroupClosure([]Perm{Identity(3), Identity(4)}, 0); err == nil {
		t.Fatal("expected error for mixed sizes")
	}
}

func TestApplyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Identity(3).Apply(make([]byte, 2), make([]byte, 3))
}

func BenchmarkApply(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	p := randomPerm(r, 32)
	src := make([]byte, 32)
	dst := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(dst, src)
	}
}

func BenchmarkCompose(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	p := randomPerm(r, 32)
	q := randomPerm(r, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Compose(p, q)
	}
}
