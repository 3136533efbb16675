package core

// Parallel level-synchronous IP-graph enumeration.
//
// The sequential builder (buildSeq) assigns node ids in BFS discovery order:
// nodes are dequeued in id order, generators applied in declaration order,
// and a label's id is fixed the first time it appears. Because BFS from a
// single seed dequeues whole levels in order, the first appearance of a
// level-(d+1) label is the lexicographically least (parent rank within level
// d, generator index) pair that produces it. The parallel builder exploits
// exactly that characterization: it expands one level at a time with many
// workers, then assigns ids to the level's new labels in (parent rank,
// generator index) order of their first occurrence. The result — ids, label
// bytes, and arc order — is therefore *identical* to buildSeq, not merely
// isomorphic, for every worker count and schedule. The determinism and
// parity tests in parallel_test.go pin this, including under -race.
//
// Each level runs four phases separated by barriers, so no locks are needed:
//
//  1. Expansion (parallel over frontier chunks): workers claim chunks of the
//     frontier with an atomic cursor, apply every generator, hash the label
//     once, and probe the intern table its hash picks, read-only. Hits
//     resolve their arc slot immediately; misses are buffered per (worker,
//     table) as candidates that carry the hash and the label's place in
//     the worker's level-reused candidate bytes.
//  2. Dedup (parallel over tables): each table's candidates from all
//     workers, owned by exactly one goroutine, go through the table's
//     reused probe table, keeping the minimum slot per distinct label (a
//     schedule-independent reduction). The slots that produced a label are
//     chained through one level-sized next array.
//  3. Id assignment (sequential, cheap): new labels from all tables are
//     sorted by their minimum slot — slots are unique, so the order is
//     total — and their bytes are appended to the index in that canonical
//     order.
//  4. Publication (parallel over tables): each table inserts its new
//     (fingerprint, id) slots and writes the assigned id into every arc
//     slot of the label's chain.
//
// The intern tables are only read during phase 1 and only written during
// phase 4, with barriers in between, so tables need no mutex at all. Every
// buffer is kept from level to level: the build allocates per level and per
// table growth, not per node.

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// expandChunk is the number of frontier nodes a worker claims at a time.
const expandChunk = 128

// buildCandidate is a frontier expansion that missed the intern tables:
// slot identifies the (parent rank, generator) position within the level,
// and the label is the worker's ord-th candidate label of the level.
type buildCandidate struct {
	hash uint64
	slot int32
	ord  int32
}

// buildWorker is one expansion worker's level-reused state.
type buildWorker struct {
	buf     []byte
	labels  []byte             // candidate label bytes of the current level
	buckets [][]buildCandidate // candidates per intern table
	used    int64              // candidate bytes over the whole build
}

// newLabel is one distinct label first discovered in the current level. The
// arc slots that produced it form a chain from head through the level's
// next array.
type newLabel struct {
	hash    uint64
	label   []byte
	minSlot int32
	head    int32
	id      int32
}

// winner names a level's new label by its minimum slot, its intern table
// and its index in that table's dedup entries.
type winner struct {
	minSlot, table, entry int32
}

// dedupTable is one intern table's phase-2 state, reused level to level:
// the level's distinct new labels and an open-addressed probe table of
// entries+1 over them.
type dedupTable struct {
	entries []newLabel
	probe   []int32
}

func (ip *IPGraph) buildParallel(opt BuildOptions, workers int) (*graph.Graph, *Index, error) {
	k := len(ip.Seed)
	G := len(ip.Gens)

	tableBits := uint(0)
	for 1<<tableBits < 4*workers && tableBits < 9 {
		tableBits++
	}
	ix := newIndex(k, tableBits)
	ix.add(ip.Seed)
	tableCount := len(ix.tables)

	arcs := make([]int32, 0, 1024*G)
	var next []int32 // next[slot]: the following slot of its label's chain, or -1
	ws := make([]buildWorker, workers)
	for w := range ws {
		ws[w] = buildWorker{buf: make([]byte, k), buckets: make([][]buildCandidate, tableCount)}
	}
	dedup := make([]dedupTable, tableCount)
	var winners []winner

	// Instrumentation (BuildOptions.Observe) is computed only when asked
	// for: the stamp helper returns the zero time on unobserved builds, so
	// the hot path pays a nil check per *level*, nothing per node.
	observe := opt.Observe != nil
	stamp := func() time.Time {
		if observe {
			return time.Now()
		}
		return time.Time{}
	}
	levelNo := 0

	// The frontier is the id range [lo, lo+nf): a level's new labels get
	// consecutive ids.
	for lo, nf := int32(0), 1; nf > 0; levelNo++ {
		if nf > ((1<<31)-1)/G {
			return nil, nil, fmt.Errorf("core: %s: frontier of %d nodes overflows the level slot space", ip.Name, nf)
		}
		arcBase := len(arcs)
		arcs = slices.Grow(arcs, nf*G)[:arcBase+nf*G]
		level := arcs[arcBase:]
		if cap(next) < nf*G {
			next = make([]int32, nf*G)
		}
		t0 := stamp()

		// Phase 1: expansion. The intern tables are read-only here.
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := range ws {
			wg.Add(1)
			go func(wk *buildWorker) {
				defer wg.Done()
				buf := wk.buf
				for {
					start := int(cursor.Add(expandChunk)) - expandChunk
					if start >= nf {
						return
					}
					end := min(start+expandChunk, nf)
					for r := start; r < end; r++ {
						x := ix.Label(lo + int32(r))
						for j, g := range ip.Gens {
							g.Apply(buf, x)
							slot := int32(r*G + j)
							h := labelHash(buf)
							if id := ix.lookup(buf, h); id >= 0 {
								level[slot] = id
								continue
							}
							t := h & ix.mask
							ord := int32(len(wk.labels) / k)
							wk.buckets[t] = append(wk.buckets[t], buildCandidate{hash: h, slot: slot, ord: ord})
							wk.labels = append(wk.labels, buf...)
						}
					}
				}
			}(&ws[w])
		}
		wg.Wait()
		t1 := stamp()

		// Phase 2: per-table dedup. Each table is owned by one goroutine,
		// and the slots of different candidates are distinct, so the writes
		// to next never overlap.
		var tableCursor atomic.Int64
		for range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					t := int(tableCursor.Add(1)) - 1
					if t >= tableCount {
						return
					}
					dedup[t].collect(ws, t, k, next)
				}
			}()
		}
		wg.Wait()
		t2 := stamp()

		// Phase 3: canonical id assignment. Slots are unique across entries,
		// so sorting by minimum slot is a total, schedule-independent order —
		// the same order sequential BFS would have discovered these labels in.
		winners = winners[:0]
		for t := range dedup {
			for i, e := range dedup[t].entries {
				winners = append(winners, winner{minSlot: e.minSlot, table: int32(t), entry: int32(i)})
			}
		}
		slices.SortFunc(winners, func(a, b winner) int { return cmp.Compare(a.minSlot, b.minSlot) })
		base := int32(ix.N())
		if opt.Limit > 0 && int(base)+len(winners) > opt.Limit {
			return nil, nil, ip.limitErr(opt.Limit, int(base)+len(winners))
		}
		for i, w := range winners {
			e := &dedup[w.table].entries[w.entry]
			e.id = base + int32(i)
			ix.labels = append(ix.labels, e.label...)
		}
		t3 := stamp()

		// Phase 4: publish ids into the intern tables and resolve arc slots.
		tableCursor.Store(0)
		for range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					t := int(tableCursor.Add(1)) - 1
					if t >= tableCount {
						return
					}
					it := &ix.tables[t]
					it.reserve(len(dedup[t].entries))
					for _, e := range dedup[t].entries {
						it.insert(internSlot{fp: uint32(e.hash >> 32), ref: e.id + 1})
						for slot := e.head; slot >= 0; slot = next[slot] {
							level[slot] = e.id
						}
					}
				}
			}()
		}
		wg.Wait()

		if observe {
			t4 := time.Now()
			ls := LevelStats{
				Level:            levelNo,
				FrontierNodes:    nf,
				NewNodes:         len(winners),
				TotalNodes:       ix.N(),
				ArcSlots:         nf * G,
				Expand:           t1.Sub(t0),
				Dedup:            t2.Sub(t1),
				Assign:           t3.Sub(t2),
				Publish:          t4.Sub(t3),
				InternArenaBytes: int64(len(ix.labels)),
				Shards:           tableCount,
			}
			for w := range ws {
				ls.CandidateArenaBytes += ws[w].used + int64(len(ws[w].labels))
			}
			for _, t := range ix.tables {
				ls.MaxShardLoad = max(ls.MaxShardLoad, t.count)
			}
			opt.Observe(ls)
		}

		lo, nf = base, len(winners)
		// Keep every buffer's capacity for the next level.
		for w := range ws {
			wk := &ws[w]
			wk.used += int64(len(wk.labels))
			wk.labels = wk.labels[:0]
			for t := range wk.buckets {
				wk.buckets[t] = wk.buckets[t][:0]
			}
		}
	}
	return ip.finish(ix, arcs)
}

// collect merges table t's candidates from every worker into d.entries,
// one entry per distinct label with its minimum slot, and chains every
// candidate's slot into its entry through next.
func (d *dedupTable) collect(ws []buildWorker, t, k int, next []int32) {
	d.entries = d.entries[:0]
	n := 0
	for w := range ws {
		n += len(ws[w].buckets[t])
	}
	if n == 0 {
		return
	}
	size := initialTableSlots
	for size < 2*n {
		size <<= 1
	}
	if cap(d.probe) < size {
		d.probe = make([]int32, size)
	} else {
		d.probe = d.probe[:size]
		clear(d.probe)
	}
	shift, mask := slotShift(size), uint32(size-1)
	for w := range ws {
		labels := ws[w].labels
		for _, c := range ws[w].buckets[t] {
			lo := int(c.ord) * k
			label := labels[lo : lo+k : lo+k]
			i := uint32(c.hash>>32) >> shift
			for {
				ref := d.probe[i]
				if ref == 0 {
					d.entries = append(d.entries, newLabel{hash: c.hash, label: label, minSlot: c.slot, head: c.slot})
					d.probe[i] = int32(len(d.entries))
					next[c.slot] = -1
					break
				}
				if e := &d.entries[ref-1]; e.hash == c.hash && bytes.Equal(e.label, label) {
					e.minSlot = min(e.minSlot, c.slot)
					next[c.slot] = e.head
					e.head = c.slot
					break
				}
				i = (i + 1) & mask
			}
		}
	}
}
