package netsim

import "math/bits"

// linkTable maps the arcs (u, v) of a sparse link store to their FIFOs: an
// open-addressed table with linear probing, Fibonacci hashing of the pair,
// backward-shift deletion (so no tombstones), u = -1 as the empty slot, and
// a doubling whenever an insert would fill more than half the slots. Node
// ids are non-negative, so no arc collides with the empty mark.
type linkTable struct {
	slots []linkSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

type linkSlot struct {
	u, v int64
	lk   *elink
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
		t.slots[i].u = -1
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// home is arc (u, v)'s first probe slot.
func (t *linkTable) home(u, v int64) int {
	const phi = 0x9E3779B97F4A7C15
	return int((uint64(u)*phi + uint64(v)) * phi >> t.shift)
}

// get returns arc (u, v)'s link, or nil.
func (t *linkTable) get(u, v int64) *elink {
	mask := len(t.slots) - 1
	for i := t.home(u, v); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.u == u && s.v == v {
			return s.lk
		}
		if s.u == -1 {
			return nil
		}
	}
}

// put stores lk under its arc (lk.u, lk.v), which must be absent.
func (t *linkTable) put(lk *elink) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.alloc(2 * len(old))
		for _, s := range old {
			if s.u >= 0 {
				t.insert(s)
			}
		}
	}
	t.insert(linkSlot{lk.u, lk.v, lk})
	t.n++
}

// insert places s in the first empty slot of its probe sequence.
func (t *linkTable) insert(s linkSlot) {
	mask := len(t.slots) - 1
	i := t.home(s.u, s.v)
	for t.slots[i].u != -1 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// del removes arc (u, v), which must be present, and shifts every later
// entry of its probe run that may fill the hole back toward its home slot.
func (t *linkTable) del(u, v int64) {
	mask := len(t.slots) - 1
	i := t.home(u, v)
	for t.slots[i].u != u || t.slots[i].v != v {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].u != -1; j = (j + 1) & mask {
		// The entry at j may move to the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(t.slots[j].u, t.slots[j].v))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = linkSlot{u: -1}
	t.n--
}
