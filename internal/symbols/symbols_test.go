package symbols

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/perm"
)

func TestRepeatedSeed(t *testing.T) {
	s := RepeatedSeed(3, Label{1, 2})
	if s.Key() != string([]byte{1, 2, 1, 2, 1, 2}) {
		t.Fatalf("RepeatedSeed = %v", s)
	}
	if s.HasDistinctSymbols() {
		t.Fatal("repeated seed cannot have distinct symbols")
	}
}

func TestDistinctSeed(t *testing.T) {
	s := DistinctSeed(3, 4)
	if len(s) != 12 {
		t.Fatalf("len = %d", len(s))
	}
	if !s.HasDistinctSymbols() {
		t.Fatal("DistinctSeed must have distinct symbols")
	}
	// S_i = (i-1)m+1 ... im per the paper.
	if s[0] != 1 || s[3] != 4 || s[4] != 5 || s[11] != 12 {
		t.Fatalf("DistinctSeed content = %v", s)
	}
}

func TestGroupAccess(t *testing.T) {
	s := Label{1, 2, 3, 4, 5, 6}
	g := s.Group(1, 2)
	if g[0] != 3 || g[1] != 4 {
		t.Fatalf("Group(1,2) = %v", g)
	}
}

func TestMultisetInvariantUnderPermutation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(12)
		x := make(Label, k)
		for i := range x {
			x[i] = byte(r.Intn(4))
		}
		p := perm.Identity(k)
		r.Shuffle(k, func(i, j int) { p[i], p[j] = p[j], p[i] })
		y := make(Label, k)
		p.Apply(y, x)
		return x.MultisetKey() == y.MultisetKey()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrouped(t *testing.T) {
	s := Label{1, 2, 2, 1}
	if got := s.Grouped(2); got != "12 21" {
		t.Fatalf("Grouped(2) = %q", got)
	}
	if got := s.Grouped(0); got != "1221" {
		t.Fatalf("Grouped(0) = %q", got)
	}
	big := Label{11}
	if got := big.String(); got != "[11]" {
		t.Fatalf("big symbol = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	x := Label{1, 2, 3}
	y := x.Clone()
	y[0] = 9
	if x[0] != 1 {
		t.Fatal("Clone aliases original")
	}
	if !x.Equal(Label{1, 2, 3}) || x.Equal(y) || x.Equal(Label{1, 2}) {
		t.Fatal("Equal misbehaves")
	}
}

func TestConstantAndIotaSeed(t *testing.T) {
	c := ConstantSeed(4, 7)
	for _, v := range c {
		if v != 7 {
			t.Fatalf("ConstantSeed = %v", c)
		}
	}
	i := IotaSeed(5)
	if !i.Equal(Label{1, 2, 3, 4, 5}) {
		t.Fatalf("IotaSeed = %v", i)
	}
}
