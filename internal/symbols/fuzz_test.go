package symbols

import (
	"bytes"
	"testing"
)

// FuzzLabelKey checks the label-identity invariants the interning machinery
// in internal/core relies on: Key is injective on label bytes (it IS the
// bytes), Clone preserves identity without aliasing, and MultisetKey is
// invariant under any reordering — in particular the rotations that
// cyclic-shift super-generators perform.
func FuzzLabelKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 2, 1, 2, 1, 2})       // repeated seed, HSN(3;"12")
	f.Add([]byte{1, 2, 3, 4, 5, 6})       // distinct seed, sym-HSN(3;m=2)
	f.Add([]byte{0, 0, 0, 255, 255, 255}) // extreme symbol values
	f.Add([]byte{7, 7, 7, 7})

	f.Fuzz(func(t *testing.T, b []byte) {
		x := Label(b)

		// Key round-trips: the key is exactly the label bytes.
		if got := Label(x.Key()); !x.Equal(got) {
			t.Fatalf("Key round-trip: %v -> %q -> %v", x, x.Key(), got)
		}

		// Clone is equal but does not alias.
		c := x.Clone()
		if !x.Equal(c) || x.Key() != c.Key() {
			t.Fatalf("Clone not equal: %v vs %v", x, c)
		}
		if len(c) > 0 {
			c[0] ^= 0xff
			if x.Equal(c) {
				t.Fatalf("Clone aliases the original: %v", x)
			}
			c[0] ^= 0xff
		}

		// Equal agrees with bytes.Equal.
		if x.Equal(c) != bytes.Equal(x, c) {
			t.Fatalf("Equal disagrees with bytes.Equal on %v", x)
		}

		// MultisetKey is invariant under rotation (an index permutation).
		if len(x) > 1 {
			rot := append(x[1:].Clone(), x[0])
			if x.MultisetKey() != rot.MultisetKey() {
				t.Fatalf("MultisetKey not rotation-invariant: %v vs %v", x, rot)
			}
			// ...and under reversal.
			rev := x.Clone()
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			if x.MultisetKey() != rev.MultisetKey() {
				t.Fatalf("MultisetKey not reversal-invariant: %v vs %v", x, rev)
			}
		}

		// HasDistinctSymbols must match a direct count.
		var seen [256]int
		distinct := true
		for _, v := range x {
			seen[v]++
			if seen[v] > 1 {
				distinct = false
			}
		}
		if x.HasDistinctSymbols() != distinct {
			t.Fatalf("HasDistinctSymbols(%v) = %v, want %v", x, x.HasDistinctSymbols(), distinct)
		}

		// Grouped/String must not panic for any group size.
		for _, gs := range []int{0, 1, 2, 3, len(x)} {
			_ = x.Grouped(gs)
		}
	})
}
