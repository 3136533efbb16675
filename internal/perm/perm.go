// Package perm implements index permutations, the building blocks of the
// index-permutation (IP) graph model of Yeh and Parhami (ICPP 1999).
//
// A Perm p of size k acts on a label x of k symbols by *index permutation*:
// the result y satisfies y[i] = x[p[i]]. This matches the paper's convention,
// where a generator such as the cycle (1,2) maps the label x1 x2 x3 ... to
// x2 x1 x3 ..., and the super-generator T(2,2n) maps the label to its second
// half followed by its first half.
//
// Positions are 0-based internally. The cycle-notation parser and printer use
// 1-based positions to match the paper's notation.
package perm

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Perm is an index permutation in "source" one-line notation: applying p to a
// label x yields y with y[i] = x[p[i]]. A valid Perm of size k contains each
// of 0..k-1 exactly once.
type Perm []int

// Identity returns the identity permutation on k positions.
func Identity(k int) Perm {
	p := make(Perm, k)
	for i := range p {
		p[i] = i
	}
	return p
}

// Validate reports whether p is a valid permutation (each index 0..len(p)-1
// appears exactly once).
func (p Perm) Validate() error {
	seen := make([]bool, len(p))
	for i, v := range p {
		if v < 0 || v >= len(p) {
			return fmt.Errorf("perm: position %d maps to out-of-range index %d", i, v)
		}
		if seen[v] {
			return fmt.Errorf("perm: index %d appears more than once", v)
		}
		seen[v] = true
	}
	return nil
}

// IsIdentity reports whether p is the identity permutation.
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if v != i {
			return false
		}
	}
	return true
}

// Clone returns a copy of p.
func (p Perm) Clone() Perm {
	q := make(Perm, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are the same permutation.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Apply applies p to the label src, writing the permuted label to dst.
// dst and src must have length len(p) and must not alias.
func (p Perm) Apply(dst, src []byte) {
	if len(dst) != len(p) || len(src) != len(p) {
		panic("perm: Apply length mismatch")
	}
	for i, v := range p {
		dst[i] = src[v]
	}
}

// Permuted returns a fresh label equal to p applied to src.
func (p Perm) Permuted(src []byte) []byte {
	dst := make([]byte, len(src))
	p.Apply(dst, src)
	return dst
}

// Compose returns the permutation "p then q": applying the result to a label
// is the same as applying p first and then q.
//
// Derivation: y = p(x) has y[i] = x[p[i]]; z = q(y) has
// z[i] = y[q[i]] = x[p[q[i]]], so (p then q)[i] = p[q[i]].
func Compose(p, q Perm) Perm {
	if len(p) != len(q) {
		panic("perm: Compose size mismatch")
	}
	r := make(Perm, len(p))
	for i := range r {
		r[i] = p[q[i]]
	}
	return r
}

// Inverse returns the permutation that undoes p.
func (p Perm) Inverse() Perm {
	inv := make(Perm, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// Power returns p applied n times (n may be negative, meaning the inverse
// applied -n times; n == 0 yields the identity).
func (p Perm) Power(n int) Perm {
	base := p
	if n < 0 {
		base = p.Inverse()
		n = -n
	}
	result := Identity(len(p))
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			result = Compose(result, base)
		}
		base = Compose(base, base)
	}
	return result
}

// Order returns the order of p in the symmetric group: the least n >= 1 with
// p^n = identity. It is the LCM of the cycle lengths.
func (p Perm) Order() int {
	order := 1
	for _, c := range p.Cycles() {
		order = lcm(order, len(c))
	}
	return order
}

// Sign returns +1 for even permutations and -1 for odd permutations.
func (p Perm) Sign() int {
	sign := 1
	for _, c := range p.Cycles() {
		if len(c)%2 == 0 {
			sign = -sign
		}
	}
	return sign
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// Cycles returns the cycle decomposition of p, excluding fixed points.
// Each cycle lists 0-based positions in symbol-movement order: the symbol at
// cycle[j] moves to cycle[j+1] (and the last entry's symbol moves to the
// first). This matches the convention of FromCycles and ParseCycles, so
// FromCycles(len(p), p.Cycles()...) reconstructs p.
func (p Perm) Cycles() [][]int {
	var cycles [][]int
	inv := p.Inverse()
	seen := make([]bool, len(p))
	for i := range p {
		if seen[i] || p[i] == i {
			seen[i] = true
			continue
		}
		var c []int
		for j := i; !seen[j]; j = inv[j] {
			seen[j] = true
			c = append(c, j)
		}
		cycles = append(cycles, c)
	}
	return cycles
}

// String renders p in 1-based cycle notation, e.g. "(1 2)(3 5 4)". The
// identity is rendered as "()".
func (p Perm) String() string {
	cycles := p.Cycles()
	if len(cycles) == 0 {
		return "()"
	}
	var b strings.Builder
	for _, c := range cycles {
		b.WriteByte('(')
		for j, v := range c {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(v + 1))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// OneLine renders p in one-line notation, e.g. "[1 0 2]".
func (p Perm) OneLine() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = strconv.Itoa(v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// ParseCycles parses 1-based cycle notation such as "(1 2)(3 4 5)" into a
// permutation on k positions. Whitespace and commas both separate entries
// within a cycle. Positions not mentioned are fixed points.
func ParseCycles(s string, k int) (Perm, error) {
	p := Identity(k)
	s = strings.TrimSpace(s)
	if s == "" || s == "()" {
		return p, nil
	}
	for len(s) > 0 {
		if s[0] != '(' {
			return nil, fmt.Errorf("perm: expected '(' at %q", s)
		}
		end := strings.IndexByte(s, ')')
		if end < 0 {
			return nil, errors.New("perm: unterminated cycle")
		}
		fields := strings.FieldsFunc(s[1:end], func(r rune) bool {
			return r == ' ' || r == ',' || r == '\t'
		})
		if len(fields) > 0 {
			cycle := make([]int, len(fields))
			for i, f := range fields {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("perm: bad cycle entry %q: %v", f, err)
				}
				if v < 1 || v > k {
					return nil, fmt.Errorf("perm: cycle entry %d out of range 1..%d", v, k)
				}
				cycle[i] = v - 1
			}
			if err := applyCycle(p, cycle); err != nil {
				return nil, err
			}
		}
		s = strings.TrimSpace(s[end+1:])
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// FromCycles builds a permutation on k positions from 0-based cycles.
func FromCycles(k int, cycles ...[]int) (Perm, error) {
	p := Identity(k)
	for _, c := range cycles {
		cc := make([]int, len(c))
		copy(cc, c)
		if err := applyCycle(p, cc); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// applyCycle composes the cycle (c0 c1 ... cn) into p. The cycle moves the
// symbol at position c[j] to position c[j+1]... in the paper's convention a
// cycle (i j) simply exchanges the symbols at positions i and j; for longer
// cycles (a b c) the symbol at a goes to b, b to c, c to a.
func applyCycle(p Perm, c []int) error {
	if len(c) < 2 {
		return nil
	}
	for _, v := range c {
		if v < 0 || v >= len(p) {
			return fmt.Errorf("perm: cycle entry %d out of range 0..%d", v, len(p)-1)
		}
	}
	// Build the cycle as a standalone permutation in source notation:
	// symbol at c[j] moves to c[j+1], i.e. result[c[j+1]] = x[c[j]],
	// so q[c[(j+1)%n]] = c[j].
	q := Identity(len(p))
	n := len(c)
	for j := 0; j < n; j++ {
		q[c[(j+1)%n]] = c[j]
	}
	r := Compose(p, q)
	copy(p, r)
	return nil
}

// Transposition returns the permutation on k positions that exchanges the
// symbols at 0-based positions i and j.
func Transposition(k, i, j int) Perm {
	p := Identity(k)
	p[i], p[j] = p[j], p[i]
	return p
}

// BlockTransposition returns the super-generator T that exchanges the i-th
// and j-th blocks (0-based) of m consecutive symbols in a label of l blocks.
// In the paper's notation, BlockTransposition(l, m, 0, i-1) is T(i,m),
// written (1,i)_m.
func BlockTransposition(l, m, i, j int) Perm {
	p := Identity(l * m)
	for s := 0; s < m; s++ {
		p[i*m+s], p[j*m+s] = p[j*m+s], p[i*m+s]
	}
	return p
}

// BlockLeftShift returns the super-generator L(s,m) that cyclically shifts
// the l blocks of m symbols left by s block positions:
// the label X1 X2 ... Xl becomes X(s+1) ... Xl X1 ... Xs.
func BlockLeftShift(l, m, s int) Perm {
	s = ((s % l) + l) % l
	p := make(Perm, l*m)
	for b := 0; b < l; b++ {
		src := (b + s) % l
		for t := 0; t < m; t++ {
			p[b*m+t] = src*m + t
		}
	}
	return p
}

// BlockRightShift returns the super-generator R(s,m) = L(s,m)^-1, shifting
// the l blocks of m symbols right by s block positions.
func BlockRightShift(l, m, s int) Perm {
	return BlockLeftShift(l, m, -s)
}

// BlockFlip returns the flip super-generator F(i,m) that reverses the order
// of the first i blocks of m symbols (the symbols inside each block keep
// their order): X1 X2 ... Xi X(i+1) ... becomes Xi ... X2 X1 X(i+1) ...
func BlockFlip(l, m, i int) Perm {
	p := Identity(l * m)
	for b := 0; b < i; b++ {
		src := i - 1 - b
		for t := 0; t < m; t++ {
			p[b*m+t] = src*m + t
		}
	}
	return p
}

// Rotation returns the permutation rotating all k positions left by s:
// the label x1 x2 ... xk becomes x(s+1) ... xk x1 ... xs.
func Rotation(k, s int) Perm {
	return BlockLeftShift(k, 1, s)
}

// Lift embeds a permutation p on m positions into a permutation on k >= m
// positions that acts as p on the first m positions and fixes the rest.
// This is how nucleus generators of a super-IP graph act on full labels.
func Lift(p Perm, k int) Perm {
	if len(p) > k {
		panic("perm: Lift target smaller than source")
	}
	q := Identity(k)
	copy(q[:len(p)], p)
	return q
}

// ClosedUnderInverse reports whether for every generator in gens its inverse
// is also present (possibly itself). IP graphs with inverse-closed generator
// sets are undirected.
func ClosedUnderInverse(gens []Perm) bool {
	for _, g := range gens {
		inv := g.Inverse()
		found := false
		for _, h := range gens {
			if h.Equal(inv) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// GroupClosure returns the subgroup of the symmetric group generated by gens,
// as a sorted-by-one-line-notation slice. It panics if the closure would
// exceed limit elements (pass 0 for no limit). Useful for checking Cayley
// graph sizes on small generator sets.
func GroupClosure(gens []Perm, limit int) ([]Perm, error) {
	if len(gens) == 0 {
		return nil, errors.New("perm: no generators")
	}
	k := len(gens[0])
	for _, g := range gens {
		if len(g) != k {
			return nil, errors.New("perm: mixed generator sizes")
		}
	}
	seen := map[string]Perm{}
	id := Identity(k)
	seen[keyOf(id)] = id
	frontier := []Perm{id}
	for len(frontier) > 0 {
		var next []Perm
		for _, p := range frontier {
			for _, g := range gens {
				q := Compose(p, g)
				key := keyOf(q)
				if _, ok := seen[key]; !ok {
					seen[key] = q
					next = append(next, q)
					if limit > 0 && len(seen) > limit {
						return nil, fmt.Errorf("perm: group closure exceeds limit %d", limit)
					}
				}
			}
		}
		frontier = next
	}
	out := make([]Perm, 0, len(seen))
	for _, p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for t := range a {
			if a[t] != b[t] {
				return a[t] < b[t]
			}
		}
		return false
	})
	return out, nil
}

func keyOf(p Perm) string {
	b := make([]byte, len(p))
	for i, v := range p {
		b[i] = byte(v)
	}
	return string(b)
}

// ParseOneLine parses one-line notation as emitted by OneLine, e.g.
// "[1 0 2]".
func ParseOneLine(s string) (Perm, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return nil, fmt.Errorf("perm: one-line notation must be bracketed, got %q", s)
	}
	fields := strings.Fields(s[1 : len(s)-1])
	p := make(Perm, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("perm: bad entry %q: %v", f, err)
		}
		p[i] = v
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Conjugate returns q^-1 * p * q (apply q, then p, then q inverse) — the
// permutation that "does p in q's coordinate frame". Conjugating a nucleus
// generator by a super-symbol swap is exactly how the dilation-3 embedding
// reaches non-leftmost super-symbols.
func Conjugate(p, q Perm) Perm {
	return Compose(Compose(q, p), q.Inverse())
}

// IsInvolution reports whether p is its own inverse.
func (p Perm) IsInvolution() bool {
	return Compose(p, p).IsIdentity()
}

// Support returns the positions moved by p, in increasing order.
func (p Perm) Support() []int {
	var s []int
	for i, v := range p {
		if v != i {
			s = append(s, i)
		}
	}
	return s
}

// PositionOrbits returns the orbits of the group generated by gens acting
// on positions: the partition of 0..k-1 into classes reachable from one
// another. A generator set whose action is transitive on positions has a
// single orbit.
func PositionOrbits(gens []Perm) [][]int {
	if len(gens) == 0 {
		return nil
	}
	k := len(gens[0])
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, g := range gens {
		for i, v := range g {
			union(i, v)
		}
	}
	classes := map[int][]int{}
	for i := 0; i < k; i++ {
		r := find(i)
		classes[r] = append(classes[r], i)
	}
	var out [][]int
	for i := 0; i < k; i++ {
		if find(i) == i {
			out = append(out, classes[i])
		}
	}
	return out
}
