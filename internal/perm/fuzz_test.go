package perm

import (
	"testing"
)

// FuzzPermParse feeds arbitrary strings to the cycle-notation parser and, for
// every string it accepts, demands full round-trip coherence: the parsed
// permutation validates and re-renders to a string that parses back to the
// same permutation.
func FuzzPermParse(f *testing.F) {
	f.Add("", 4)
	f.Add("()", 4)
	f.Add("(1 2)", 4)
	f.Add("(1 2)(3 4)", 4)
	f.Add("(1 2 3 4)", 4)
	f.Add("(1 2 3)(4 5)", 6)
	f.Add("(2 1)", 2)
	f.Add("(1 9)", 4)       // out of range: must error, not panic
	f.Add("(1 1)", 4)       // repeated index: must error
	f.Add("(1 2", 4)        // unterminated
	f.Add("1 2)", 4)        // missing open
	f.Add("(a b)", 4)       // non-numeric
	f.Add("((1 2))", 4)     // nested
	f.Add("(0 1)", 4)       // cycle notation is 1-based; 0 must error
	f.Add("(-1 2)", 4)      // negative
	f.Add("(1 2)(2 3)", 4)  // overlapping cycles: must error
	f.Add("(1 2) (3 4)", 4) // interior spaces

	f.Fuzz(func(t *testing.T, s string, k int) {
		if k < 0 || k > 64 {
			t.Skip()
		}
		p, err := ParseCycles(s, k) // must never panic
		if err != nil {
			return
		}
		if len(p) != k {
			t.Fatalf("ParseCycles(%q, %d) returned size %d", s, k, len(p))
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseCycles(%q, %d) accepted invalid perm %v: %v", s, k, p, err)
		}

		// Cycle-notation round trip.
		back, err := ParseCycles(p.String(), k)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", p.String(), s, err)
		}
		if !p.Equal(back) {
			t.Fatalf("cycle round trip %q -> %v -> %q -> %v", s, p, p.String(), back)
		}

		// Inverse composes to the identity on both sides.
		inv := p.Inverse()
		if id := Identity(k); !Compose(p, inv).Equal(id) || !Compose(inv, p).Equal(id) {
			t.Fatalf("p * p^-1 != id for %v", p)
		}

		// Apply agrees with the definition y[i] = x[p[i]].
		x := make([]byte, k)
		for i := range x {
			x[i] = byte(i * 3)
		}
		y := make([]byte, k)
		p.Apply(y, x)
		for i := range y {
			if y[i] != x[p[i]] {
				t.Fatalf("Apply: y[%d] = %d, want x[p[%d]] = %d", i, y[i], i, x[p[i]])
			}
		}
	})
}
