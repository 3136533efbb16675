package topo

import (
	"fmt"
	"testing"
)

// checkPorts is the Porter oracle on every node of tp: for every v in
// [-2, N+2), Port(u, v) must be v's index in Neighbors(u), and -1 when v is
// not a neighbor (u itself and out-of-range ids included). An out-of-range
// u has no ports.
func checkPorts(t *testing.T, name string, tp Topology) {
	t.Helper()
	p, ok := tp.(Porter)
	if !ok {
		t.Fatalf("%s: %T does not implement Porter", name, tp)
	}
	n := tp.N()
	idx := make(map[int64]int)
	var buf []int64
	for u := int64(0); u < n; u++ {
		buf = tp.Neighbors(u, buf)
		clear(idx)
		for i, v := range buf {
			idx[v] = i
		}
		for v := int64(-2); v < n+2; v++ {
			want, isNbr := idx[v]
			if !isNbr {
				want = -1
			}
			if got := p.Port(u, v); got != want {
				t.Fatalf("%s: Port(%d, %d) = %d, want %d (neighbors %v)", name, u, v, got, want, buf)
			}
		}
		if got := p.Port(u, u); got != -1 {
			t.Fatalf("%s: Port(%d, %d) = %d, want -1", name, u, u, got)
		}
	}
	for _, u := range []int64{-1, n, n + 1} {
		if got := p.Port(u, 0); got != -1 {
			t.Fatalf("%s: Port(%d, 0) = %d for an out-of-range node, want -1", name, u, got)
		}
	}
}

// TestHypercubePortOracle checks HypercubeTopo's bit-count ports against the
// index in Neighbors on every node of Q_n for n <= 10.
func TestHypercubePortOracle(t *testing.T) {
	for dim := 0; dim <= 10; dim++ {
		checkPorts(t, fmt.Sprintf("Q%d", dim), HypercubeTopo{Dim: dim})
	}
}

// TestMaterializedPortOracle checks Materialized's in-place row search
// against the index in Neighbors on every node of the built property-grid
// families, the directed CN family included.
func TestMaterializedPortOracle(t *testing.T) {
	for _, net := range propertyGrid() {
		g, err := net.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", net.Name(), err)
		}
		checkPorts(t, net.Name(), NewMaterialized(g))
	}
}

// FuzzHypercubePort checks HypercubeTopo.Port against the index in
// Neighbors for arbitrary ids, and for u's neighbor across an arbitrary bit.
func FuzzHypercubePort(f *testing.F) {
	f.Add(uint8(10), int64(5), int64(7), uint8(3))
	f.Add(uint8(62), int64(1)<<61, int64(0), uint8(61))
	f.Add(uint8(0), int64(0), int64(1), uint8(0))
	f.Add(uint8(3), int64(-1), int64(8), uint8(2))
	f.Fuzz(func(t *testing.T, d uint8, u, v int64, bit uint8) {
		ht := HypercubeTopo{Dim: int(d % 63)}
		var buf []int64
		for _, w := range []int64{v, u ^ int64(1)<<(bit%63)} {
			want := -1
			if u >= 0 && u < ht.N() {
				buf = ht.Neighbors(u, buf)
				for i, x := range buf {
					if x == w {
						want = i
					}
				}
			}
			if got := ht.Port(u, w); got != want {
				t.Fatalf("Q%d: Port(%d, %d) = %d, want %d", ht.Dim, u, w, got, want)
			}
		}
	})
}
