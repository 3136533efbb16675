package netsim

import (
	"math/rand"
	"testing"
)

// checkLinkTable checks t against its model: the entry count, every model
// key's link, and the linear-probing invariant that every entry is reachable
// from its home slot without crossing an empty slot.
func checkLinkTable(t *testing.T, tb *linkTable, model map[int64]*elink) {
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
		if s.key == -1 {
			continue
		}
		used++
		for j := tb.home(s.key); j != i; j = (j + 1) & mask {
			if tb.slots[j].key == -1 {
				t.Fatalf("key %d in slot %d is cut off from its home %d by the empty slot %d",
					s.key, i, tb.home(s.key), j)
			}
		}
	}
	if used != tb.n {
		t.Fatalf("%d slots in use, count %d", used, tb.n)
	}
	for k, lk := range model {
		if got := tb.get(k); got != lk {
			t.Fatalf("get(%d) = %p, want %p", k, got, lk)
		}
	}
}

// tableOp applies one put-or-delete of key to both tb and model (a put when
// key is absent, a delete when present) and checks get on the key.
func tableOp(t *testing.T, tb *linkTable, model map[int64]*elink, key int64, put bool) {
	t.Helper()
	if lk, ok := model[key]; ok {
		if got := tb.get(key); got != lk {
			t.Fatalf("get(%d) = %p, want %p", key, got, lk)
		}
		if !put {
			tb.del(key)
			delete(model, key)
			if got := tb.get(key); got != nil {
				t.Fatalf("get(%d) after del = %p", key, got)
			}
		}
		return
	}
	if got := tb.get(key); got != nil {
		t.Fatalf("get(%d) = %p for an absent key", key, got)
	}
	if put {
		lk := &elink{key: key}
		tb.put(key, lk)
		model[key] = lk
	}
}

// collidingKeys returns, for every table size from minLinkSlots to maxSlots,
// perSize keys whose home slot at that size is one of the last two slots or
// slot 0, so their probe runs collide and wrap around the table end.
func collidingKeys(maxSlots, perSize int) []int64 {
	var keys []int64
	for size := minLinkSlots; size <= maxSlots; size *= 2 {
		var lt linkTable
		lt.alloc(size)
		found := 0
		for k := int64(0); found < perSize; k++ {
			if h := lt.home(k); h == 0 || h >= size-2 {
				keys = append(keys, k)
				found++
			}
		}
	}
	return keys
}

// TestLinkTableModel runs seeded put/get/del sequences against a Go map:
// half the keys collide and wrap around the table end at some size, and the
// table grows from 64 to 2048 slots and shrinks back to empty in every run.
func TestLinkTableModel(t *testing.T) {
	pool := collidingKeys(2048, 24)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, model := newLinkTable(), map[int64]*elink{}
		const steps = 12000
		for i := 0; i < steps; i++ {
			key := rng.Int63n(1 << 12)
			if rng.Intn(2) == 0 {
				key = pool[rng.Intn(len(pool))]
			}
			// Grow for the first half, drain in the second.
			put := rng.Intn(10) < 8
			if i >= steps/2 {
				put = rng.Intn(10) < 2
			}
			tableOp(t, &tb, model, key, put)
			if i%500 == 0 {
				checkLinkTable(t, &tb, model)
			}
		}
		checkLinkTable(t, &tb, model)
		if len(tb.slots) < 2048 {
			t.Errorf("seed %d: table grew only to %d slots", seed, len(tb.slots))
		}
		for k := range model {
			tableOp(t, &tb, model, k, false)
		}
		checkLinkTable(t, &tb, model)
	}
}

// FuzzLinkTable drives the table with a byte-coded put/delete sequence
// against a Go map. Each op is two bytes: the low bit of the first picks put
// or delete, the rest index a pool of colliding, wrapping keys or, for
// large indices, name a key directly.
func FuzzLinkTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 1, 1})
	f.Add([]byte{0, 0, 2, 0, 4, 0, 1, 0, 3, 0, 5, 0})
	f.Add([]byte{255, 255, 254, 254, 0, 200, 1, 200})
	pool := collidingKeys(1024, 16)
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb, model := newLinkTable(), map[int64]*elink{}
		for i := 0; i+1 < len(ops); i += 2 {
			x := int(ops[i]>>1)<<8 | int(ops[i+1])
			key := int64(x)
			if x < 2*len(pool) {
				key = pool[x%len(pool)]
			}
			tableOp(t, &tb, model, key, ops[i]&1 == 0)
		}
		checkLinkTable(t, &tb, model)
	})
}
