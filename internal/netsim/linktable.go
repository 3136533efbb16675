package netsim

import "math/bits"

// linkTable maps the non-negative link keys of a sparse link store to their
// FIFOs: an open-addressed table with linear probing, Fibonacci hashing,
// backward-shift deletion (so no tombstones), -1 as the empty key, and a
// doubling whenever an insert would fill more than half the slots.
type linkTable struct {
	slots []linkSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

type linkSlot struct {
	key int64
	lk  *elink
}

// minLinkSlots is the slot count of a new table: a power of two.
const minLinkSlots = 64

func newLinkTable() linkTable {
	var t linkTable
	t.alloc(minLinkSlots)
	return t
}

// alloc replaces the slots by size empty ones.
func (t *linkTable) alloc(size int) {
	t.slots = make([]linkSlot, size)
	for i := range t.slots {
		t.slots[i].key = -1
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// home is key's first probe slot.
func (t *linkTable) home(key int64) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift)
}

// get returns key's link, or nil.
func (t *linkTable) get(key int64) *elink {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return t.slots[i].lk
		case -1:
			return nil
		}
	}
}

// put stores lk under key, which must be absent.
func (t *linkTable) put(key int64, lk *elink) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.alloc(2 * len(old))
		for _, s := range old {
			if s.key >= 0 {
				t.insert(s.key, s.lk)
			}
		}
	}
	t.insert(key, lk)
	t.n++
}

// insert places key in the first empty slot of its probe sequence.
func (t *linkTable) insert(key int64, lk *elink) {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != -1 {
		i = (i + 1) & mask
	}
	t.slots[i] = linkSlot{key, lk}
}

// del removes key, which must be present, and shifts every later entry of
// its probe run that may fill the hole back toward its home slot.
func (t *linkTable) del(key int64) {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != key {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].key != -1; j = (j + 1) & mask {
		// The entry at j may move to the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = linkSlot{key: -1}
	t.n--
}
