package netsim

import (
	"math/rand"
	"testing"
)

// arc is a link table key in the tests' Go-map model.
type arc struct{ u, v int64 }

// checkLinkTable checks t against its model: the entry count, every model
// arc's link, and the linear-probing invariant that every entry is reachable
// from its home slot without crossing an empty slot.
func checkLinkTable(t *testing.T, tb *linkTable, model map[arc]*elink) {
	t.Helper()
	if tb.n != len(model) {
		t.Fatalf("table holds %d entries, model %d", tb.n, len(model))
	}
	if 2*tb.n > len(tb.slots) {
		t.Fatalf("%d entries in %d slots: above half load", tb.n, len(tb.slots))
	}
	mask := len(tb.slots) - 1
	used := 0
	for i, s := range tb.slots {
		if s.u == -1 {
			continue
		}
		used++
		if s.lk.u != s.u || s.lk.v != s.v {
			t.Fatalf("slot %d holds arc (%d, %d) with the link %d->%d", i, s.u, s.v, s.lk.u, s.lk.v)
		}
		for j := tb.home(s.u, s.v); j != i; j = (j + 1) & mask {
			if tb.slots[j].u == -1 {
				t.Fatalf("arc (%d, %d) in slot %d is cut off from its home %d by the empty slot %d",
					s.u, s.v, i, tb.home(s.u, s.v), j)
			}
		}
	}
	if used != tb.n {
		t.Fatalf("%d slots in use, count %d", used, tb.n)
	}
	for a, lk := range model {
		if got := tb.get(a.u, a.v); got != lk {
			t.Fatalf("get(%d, %d) = %p, want %p", a.u, a.v, got, lk)
		}
	}
}

// tableOp applies one put-or-delete of arc a to both tb and model (a put
// when a is absent, a delete when present) and checks get on the arc and on
// its reverse.
func tableOp(t *testing.T, tb *linkTable, model map[arc]*elink, a arc, put bool) {
	t.Helper()
	if rev := (arc{a.v, a.u}); tb.get(rev.u, rev.v) != model[rev] {
		t.Fatalf("get(%d, %d) = %p, want %p", rev.u, rev.v, tb.get(rev.u, rev.v), model[rev])
	}
	if lk, ok := model[a]; ok {
		if got := tb.get(a.u, a.v); got != lk {
			t.Fatalf("get(%d, %d) = %p, want %p", a.u, a.v, got, lk)
		}
		if !put {
			tb.del(a.u, a.v)
			delete(model, a)
			if got := tb.get(a.u, a.v); got != nil {
				t.Fatalf("get(%d, %d) after del = %p", a.u, a.v, got)
			}
		}
		return
	}
	if got := tb.get(a.u, a.v); got != nil {
		t.Fatalf("get(%d, %d) = %p for an absent arc", a.u, a.v, got)
	}
	if put {
		lk := &elink{u: a.u, v: a.v}
		tb.put(lk)
		model[a] = lk
	}
}

// collidingArcs returns, for every table size from minLinkSlots to
// maxSlots, perSize arcs whose home slot at that size is one of the last two
// slots or slot 0, so their probe runs collide and wrap around the table
// end. Half of them share their tail node with another, as a node's links
// do, and every arc's reverse is in the pool too.
func collidingArcs(maxSlots, perSize int) []arc {
	var arcs []arc
	for size := minLinkSlots; size <= maxSlots; size *= 2 {
		var lt linkTable
		lt.alloc(size)
		found := 0
		for x := int64(0); found < perSize; x++ {
			a := arc{x / 8, x % 8}
			if x%2 == 1 {
				a = arc{x, x / 3}
			}
			if h := lt.home(a.u, a.v); h == 0 || h >= size-2 {
				arcs = append(arcs, a, arc{a.v, a.u})
				found++
			}
		}
	}
	return arcs
}

// TestLinkTableModel runs seeded put/get/del sequences against a Go map:
// half the arcs collide and wrap around the table end at some size, and the
// table grows from 64 to 2048 slots and shrinks back to empty in every run.
func TestLinkTableModel(t *testing.T) {
	pool := collidingArcs(2048, 12)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, model := newLinkTable(), map[arc]*elink{}
		const steps = 12000
		for i := 0; i < steps; i++ {
			a := arc{rng.Int63n(1 << 9), rng.Int63n(1 << 3)}
			if rng.Intn(2) == 0 {
				a = pool[rng.Intn(len(pool))]
			}
			// Grow for the first half, drain in the second.
			put := rng.Intn(10) < 8
			if i >= steps/2 {
				put = rng.Intn(10) < 2
			}
			tableOp(t, &tb, model, a, put)
			if i%500 == 0 {
				checkLinkTable(t, &tb, model)
			}
		}
		checkLinkTable(t, &tb, model)
		if len(tb.slots) < 2048 {
			t.Errorf("seed %d: table grew only to %d slots", seed, len(tb.slots))
		}
		for a := range model {
			tableOp(t, &tb, model, a, false)
		}
		checkLinkTable(t, &tb, model)
	}
}

// FuzzLinkTable drives the table with a byte-coded put/delete sequence
// against a Go map. Each op is two bytes: the low bit of the first picks put
// or delete, the rest index a pool of colliding, wrapping arcs or, for large
// indices, name an arc directly.
func FuzzLinkTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 1, 1})
	f.Add([]byte{0, 0, 2, 0, 4, 0, 1, 0, 3, 0, 5, 0})
	f.Add([]byte{255, 255, 254, 254, 0, 200, 1, 200})
	pool := collidingArcs(1024, 8)
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb, model := newLinkTable(), map[arc]*elink{}
		for i := 0; i+1 < len(ops); i += 2 {
			x := int(ops[i]>>1)<<8 | int(ops[i+1])
			a := arc{int64(x >> 3), int64(x & 7)}
			if x < 2*len(pool) {
				a = pool[x%len(pool)]
			}
			tableOp(t, &tb, model, a, ops[i]&1 == 0)
		}
		checkLinkTable(t, &tb, model)
	})
}
