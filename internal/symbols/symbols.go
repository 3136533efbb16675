// Package symbols implements the multiset node labels of the IP graph model.
//
// A node of an IP graph is identified by a Label: a fixed-length sequence of
// symbols in which — unlike the Cayley graph model — repeated symbols are
// allowed. The package provides the two seed shapes used throughout the
// paper: repeated seeds (l identical super-symbols of m symbols, used by
// plain super-IP graphs) and distinct seeds (all l*m symbols distinct, used
// by symmetric super-IP graphs).
package symbols

import (
	"fmt"
	"strings"
)

// Label is a node label of an IP graph: a sequence of (possibly repeated)
// symbols. Symbols are small non-negative integers stored as bytes.
type Label []byte

// Clone returns a copy of the label.
func (x Label) Clone() Label {
	y := make(Label, len(x))
	copy(y, x)
	return y
}

// Key returns a map key uniquely identifying the label.
func (x Label) Key() string { return string(x) }

// Equal reports whether two labels are identical.
func (x Label) Equal(y Label) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// String renders the label with super-symbol grouping when groupSize divides
// the length, e.g. "12 21 11". Symbols >= 10 are rendered in brackets.
func (x Label) String() string { return x.Grouped(0) }

// Grouped renders the label, inserting a space every groupSize symbols
// (groupSize <= 0 means no grouping).
func (x Label) Grouped(groupSize int) string {
	var b strings.Builder
	for i, v := range x {
		if groupSize > 0 && i > 0 && i%groupSize == 0 {
			b.WriteByte(' ')
		}
		if v < 10 {
			b.WriteByte('0' + v)
		} else {
			fmt.Fprintf(&b, "[%d]", v)
		}
	}
	return b.String()
}

// Group returns the i-th group (0-based) of m consecutive symbols, as a
// sub-slice of x (not a copy).
func (x Label) Group(i, m int) Label {
	return x[i*m : (i+1)*m]
}

// RepeatedSeed returns the seed label S1 S1 ... S1 (l copies) used by plain
// super-IP graphs, where S1 = base. For example RepeatedSeed(3, {1,2})
// yields 12 12 12, the seed of an HSN(3;G) whose nucleus seed is "12".
func RepeatedSeed(l int, base Label) Label {
	x := make(Label, 0, l*len(base))
	for i := 0; i < l; i++ {
		x = append(x, base...)
	}
	return x
}

// DistinctSeed returns the seed S1 S2 ... Sl with
// S_i = (i-1)m+1, (i-1)m+2, ..., im, used by symmetric super-IP graphs.
// All l*m symbols are distinct, so the resulting IP graph is a Cayley graph.
func DistinctSeed(l, m int) Label {
	x := make(Label, l*m)
	for i := range x {
		x[i] = byte(i + 1)
	}
	return x
}

// IotaSeed returns the label 1, 2, ..., k — the natural Cayley-graph seed.
func IotaSeed(k int) Label { return DistinctSeed(k, 1) }

// ConstantSeed returns the label consisting of k copies of symbol v.
func ConstantSeed(k int, v byte) Label {
	x := make(Label, k)
	for i := range x {
		x[i] = v
	}
	return x
}

// HasDistinctSymbols reports whether all symbols in x are distinct (the
// Cayley graph condition).
func (x Label) HasDistinctSymbols() bool {
	var seen [256]bool
	for _, v := range x {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// MultisetKey returns a canonical key of the multiset of symbols in x.
// Two labels reachable from one another by index permutations always have
// equal multiset keys.
func (x Label) MultisetKey() string {
	var count [256]int
	for _, v := range x {
		count[v]++
	}
	var b strings.Builder
	for v, c := range count {
		if c > 0 {
			fmt.Fprintf(&b, "%d:%d;", v, c)
		}
	}
	return b.String()
}
