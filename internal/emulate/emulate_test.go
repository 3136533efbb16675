package emulate

import (
	"math/rand"
	"sort"
	"testing"
)

func randomValues(n int, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(r.Intn(1000))
	}
	return v
}

func TestAllReduceDirect(t *testing.T) {
	m := NewDirectHypercube(6, 3)
	in := randomValues(m.N(), 1)
	if err := m.SetValues(in); err != nil {
		t.Fatal(err)
	}
	if err := AllReduceSum(m); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range in {
		want += v
	}
	for u, v := range m.Values() {
		if v != want {
			t.Fatalf("node %d holds %d, want %d", u, v, want)
		}
	}
	c := m.Cost()
	if c.Steps != 6 || c.OnModuleSteps != 3 || c.OffModuleSteps != 3 {
		t.Fatalf("direct cost = %+v", c)
	}
}

func TestAllReduceEmulated(t *testing.T) {
	for _, tc := range []struct{ l, n int }{{2, 2}, {2, 3}, {3, 2}, {2, 4}} {
		m, err := NewHSNMachine(tc.l, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		in := randomValues(m.N(), int64(tc.l*10+tc.n))
		if err := m.SetValues(in); err != nil {
			t.Fatal(err)
		}
		if err := AllReduceSum(m); err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, v := range in {
			want += v
		}
		for u, v := range m.Values() {
			if v != want {
				t.Fatalf("HSN(%d;Q%d) node %d holds %d, want %d", tc.l, tc.n, u, v, want)
			}
		}
		// Slowdown claim: at most 3x the direct hypercube's steps, and
		// exactly n on-module + 3n(l-1) steps split 1:2 on/off for the
		// non-leftmost dimensions.
		c := m.Cost()
		dims := tc.l * tc.n
		if c.Steps > 3*dims {
			t.Fatalf("HSN emulation took %d steps for %d exchanges (slowdown > 3)", c.Steps, dims)
		}
		wantSteps := tc.n + 3*tc.n*(tc.l-1)
		if c.Steps != wantSteps {
			t.Fatalf("steps = %d, want %d", c.Steps, wantSteps)
		}
		if c.OffModuleSteps != 2*tc.n*(tc.l-1) {
			t.Fatalf("off-module steps = %d, want %d", c.OffModuleSteps, 2*tc.n*(tc.l-1))
		}
	}
}

func TestEmulatedMatchesDirect(t *testing.T) {
	// The emulated machine must produce bit-identical results and step
	// counts to the direct hypercube, exchange by exchange, for combine
	// functions that read bit d of the node id and, as bitonic sort's
	// does, bits other than d.
	direct := NewDirectHypercube(6, 3)
	emu, err := NewHSNMachine(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := randomValues(direct.N(), 7)
	if err := direct.SetValues(in); err != nil {
		t.Fatal(err)
	}
	if err := emu.SetValues(in); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 6; d++ {
		for _, combine := range []func(own, recv int64, node int) int64{
			func(own, recv int64, node int) int64 {
				if node&(1<<d) != 0 {
					return own*3 - recv
				}
				return own + 2*recv
			},
			func(own, recv int64, node int) int64 {
				// Reads bits of node other than d, as bitonic sort does.
				return own + recv*int64(node&^(1<<d)%7) - int64(node>>(d+1))
			},
		} {
			if err := direct.Exchange(d, combine); err != nil {
				t.Fatal(err)
			}
			if err := emu.Exchange(d, combine); err != nil {
				t.Fatal(err)
			}
			dv, ev := direct.Values(), emu.Values()
			for u := range dv {
				if dv[u] != ev[u] {
					t.Fatalf("dim %d, node %d: direct %d vs emulated %d", d, u, dv[u], ev[u])
				}
			}
		}
	}
	// Two exchanges a dimension: 1 step each on the direct machine; on
	// the HSN 1 for the three leftmost dimensions and 3 for the others.
	if got := direct.Cost().Steps; got != 12 {
		t.Fatalf("direct steps = %d, want 12", got)
	}
	if got := emu.Cost().Steps; got != 2*(3+3*3) {
		t.Fatalf("emulated steps = %d, want %d", got, 2*(3+3*3))
	}
}

func TestPrefixSum(t *testing.T) {
	for _, m := range []Machine{
		NewDirectHypercube(5, 2),
		mustHSN(t, 2, 3),
	} {
		in := randomValues(m.N(), 3)
		if err := m.SetValues(in); err != nil {
			t.Fatal(err)
		}
		if err := PrefixSum(m); err != nil {
			t.Fatal(err)
		}
		var run int64
		out := m.Values()
		for u := 0; u < m.N(); u++ {
			run += in[u]
			if out[u] != run {
				t.Fatalf("prefix at %d = %d, want %d", u, out[u], run)
			}
		}
	}
}

func mustHSN(t *testing.T, l, n int) *HSNMachine {
	t.Helper()
	m, err := NewHSNMachine(l, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExchangeErrors(t *testing.T) {
	for _, m := range []Machine{NewDirectHypercube(3, 1), mustHSN(t, 2, 2)} {
		for _, d := range []int{-1, m.Dim(), m.Dim() + 3} {
			if err := m.Exchange(d, nil); err == nil {
				t.Fatalf("Q%d: dimension %d out of range must fail", m.Dim(), d)
			}
		}
		if err := m.SetValues(make([]int64, 3)); err == nil {
			t.Fatalf("Q%d: wrong value count must fail", m.Dim())
		}
	}
}

func TestBitonicSort(t *testing.T) {
	for _, m := range []Machine{
		NewDirectHypercube(6, 3),
		mustHSN(t, 2, 3),
		mustHSN(t, 3, 2),
	} {
		in := randomValues(m.N(), 9)
		if err := m.SetValues(in); err != nil {
			t.Fatal(err)
		}
		if err := BitonicSort(m); err != nil {
			t.Fatal(err)
		}
		out := m.Values()
		want := append([]int64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for u := range out {
			if out[u] != want[u] {
				t.Fatalf("N=%d: sorted[%d] = %d, want %d", m.N(), u, out[u], want[u])
			}
		}
		// Cost bound: <= 3 * dim*(dim+1)/2 steps on the HSN.
		dim := m.Dim()
		if m.Cost().Steps > 3*dim*(dim+1)/2 {
			t.Fatalf("bitonic sort took %d steps, bound %d", m.Cost().Steps, 3*dim*(dim+1)/2)
		}
	}
}

// TestBitonicSortDimError checks that an out-of-range exchange with
// bitonic sort's node-reading combine fails on both machines before it
// moves a value or counts a step.
func TestBitonicSortDimError(t *testing.T) {
	for _, m := range []Machine{NewDirectHypercube(3, 1), mustHSN(t, 2, 2)} {
		in := randomValues(m.N(), 5)
		if err := m.SetValues(in); err != nil {
			t.Fatal(err)
		}
		keepMin := func(own, recv int64, node int) int64 {
			if (node&1 == 0) == (own <= recv) {
				return own
			}
			return recv
		}
		for _, d := range []int{-1, m.Dim()} {
			if err := m.Exchange(d, keepMin); err == nil {
				t.Fatalf("Q%d: exchange on dimension %d must fail", m.Dim(), d)
			}
		}
		if c := m.Cost(); c != (Cost{}) {
			t.Fatalf("Q%d: failed exchanges cost %+v", m.Dim(), c)
		}
		for u, v := range m.Values() {
			if v != in[u] {
				t.Fatalf("Q%d: failed exchange moved node %d: %d, want %d", m.Dim(), u, v, in[u])
			}
		}
	}
}
