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
//     frontier with an atomic cursor, apply every generator, and probe the
//     hash-sharded intern tables read-only. Hits resolve their arc slot
//     immediately; misses are buffered per (worker, shard) as candidates,
//     with label bytes copied into a per-worker arena (no per-node Clone).
//  2. Shard dedup (parallel over shards): each shard — owned by exactly one
//     goroutine — merges its candidates from all workers, keeping the
//     minimum slot per distinct label (a schedule-independent reduction).
//  3. Id assignment (sequential, cheap): new labels from all shards are
//     sorted by their minimum slot — slots are unique, so the order is
//     total — and appended to the index in that canonical order. Label
//     bytes move to a permanent arena; the candidate arenas become garbage.
//  4. Publication (parallel over shards): each shard inserts its labels
//     into its intern map and writes the assigned ids into every arc slot
//     that produced the label.
//
// The intern tables are only read during phase 1 and only written during
// phase 4, with barriers in between, so shards need no mutex at all.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/symbols"
)

// expandChunk is the number of frontier nodes a worker claims at a time.
const expandChunk = 128

// labelArena hands out label-sized byte slices carved from large blocks,
// replacing one allocation per discovered label with one per block.
type labelArena struct {
	block     []byte
	blockSize int
	used      int64 // bytes handed out so far (LevelStats accounting)
}

func (a *labelArena) copyOf(b []byte) []byte {
	a.used += int64(len(b))
	if len(a.block) < len(b) {
		if a.blockSize < len(b) {
			a.blockSize = 1 << 16
			for a.blockSize < len(b) {
				a.blockSize <<= 1
			}
		}
		a.block = make([]byte, a.blockSize)
	}
	dst := a.block[:len(b):len(b)]
	a.block = a.block[len(b):]
	copy(dst, b)
	return dst
}

// buildCandidate is a frontier expansion that missed the intern tables:
// slot identifies the (parent rank, generator) position within the level.
type buildCandidate struct {
	slot  int32
	label []byte
}

// newLabel is one distinct label first discovered in the current level.
type newLabel struct {
	minSlot int32
	id      int32
	label   []byte
	slots   []int32 // every arc slot of the level that produced this label
}

func (ip *IPGraph) buildParallel(opt BuildOptions, workers int) (*graph.Graph, *Index, error) {
	k := len(ip.Seed)
	G := len(ip.Gens)

	shardCount := 1
	for shardCount < 4*workers && shardCount < 512 {
		shardCount <<= 1
	}
	ix := newIndex(shardCount)
	ix.add(ip.Seed)

	arcs := make([]int32, 0, 1024*G)
	frontier := []int32{0}

	arenas := make([]*labelArena, workers)
	buckets := make([][][]buildCandidate, workers) // [worker][shard]candidates
	for w := range arenas {
		arenas[w] = &labelArena{}
		buckets[w] = make([][]buildCandidate, shardCount)
	}
	shardNew := make([][]*newLabel, shardCount)
	permArena := &labelArena{blockSize: 1 << 20} // permanent storage for interned labels

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

	for len(frontier) > 0 {
		nf := len(frontier)
		if nf > ((1<<31)-1)/G {
			return nil, nil, fmt.Errorf("core: %s: frontier of %d nodes overflows the level slot space", ip.Name, nf)
		}
		level := make([]int32, nf*G)
		t0 := stamp()

		// Phase 1: expansion. The intern tables are read-only here.
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := make([]byte, k)
				bkt := buckets[w]
				arena := arenas[w]
				for {
					start := int(cursor.Add(expandChunk)) - expandChunk
					if start >= nf {
						return
					}
					end := start + expandChunk
					if end > nf {
						end = nf
					}
					for r := start; r < end; r++ {
						x := ix.labels[frontier[r]]
						for j, g := range ip.Gens {
							g.Apply(buf, x)
							slot := int32(r*G + j)
							s := uint32(labelHash(buf)) & ix.mask
							if id, ok := ix.shards[s][string(buf)]; ok {
								level[slot] = id
							} else {
								bkt[s] = append(bkt[s], buildCandidate{slot: slot, label: arena.copyOf(buf)})
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		t1 := stamp()

		// Phase 2: per-shard dedup. Each shard is owned by one goroutine.
		var shardCursor atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s := int(shardCursor.Add(1)) - 1
					if s >= shardCount {
						return
					}
					var entries []*newLabel
					var m map[string]*newLabel
					for w2 := 0; w2 < workers; w2++ {
						for _, c := range buckets[w2][s] {
							if m == nil {
								m = make(map[string]*newLabel)
							}
							if e, ok := m[string(c.label)]; ok {
								if c.slot < e.minSlot {
									e.minSlot = c.slot
								}
								e.slots = append(e.slots, c.slot)
							} else {
								e := &newLabel{minSlot: c.slot, label: c.label, slots: []int32{c.slot}}
								m[string(e.label)] = e
								entries = append(entries, e)
							}
						}
					}
					shardNew[s] = entries
				}
			}()
		}
		wg.Wait()
		t2 := stamp()

		// Phase 3: canonical id assignment. Slots are unique across entries,
		// so sorting by minimum slot is a total, schedule-independent order —
		// the same order sequential BFS would have discovered these labels in.
		total := 0
		for _, es := range shardNew {
			total += len(es)
		}
		winners := make([]*newLabel, 0, total)
		for _, es := range shardNew {
			winners = append(winners, es...)
		}
		sort.Slice(winners, func(i, j int) bool { return winners[i].minSlot < winners[j].minSlot })
		base := int32(len(ix.labels))
		if opt.Limit > 0 && int(base)+len(winners) > opt.Limit {
			return nil, nil, ip.limitErr(opt.Limit, int(base)+len(winners))
		}
		for i, e := range winners {
			e.id = base + int32(i)
			e.label = permArena.copyOf(e.label)
			ix.labels = append(ix.labels, symbols.Label(e.label))
		}
		t3 := stamp()

		// Phase 4: publish ids into the shard maps and resolve arc slots.
		shardCursor.Store(0)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s := int(shardCursor.Add(1)) - 1
					if s >= shardCount {
						return
					}
					m := ix.shards[s]
					for _, e := range shardNew[s] {
						m[string(e.label)] = e.id
						for _, slot := range e.slots {
							level[slot] = e.id
						}
					}
					shardNew[s] = nil
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
				TotalNodes:       len(ix.labels),
				ArcSlots:         nf * G,
				Expand:           t1.Sub(t0),
				Dedup:            t2.Sub(t1),
				Assign:           t3.Sub(t2),
				Publish:          t4.Sub(t3),
				InternArenaBytes: permArena.used,
				Shards:           shardCount,
			}
			for _, a := range arenas {
				ls.CandidateArenaBytes += a.used
			}
			for _, m := range ix.shards {
				if len(m) > ls.MaxShardLoad {
					ls.MaxShardLoad = len(m)
				}
			}
			opt.Observe(ls)
		}
		levelNo++

		arcs = append(arcs, level...)
		frontier = frontier[:0]
		for i := range winners {
			frontier = append(frontier, base+int32(i))
		}
		// Drop candidate label references so the per-level arena blocks are
		// collectable, then keep the bucket capacity for the next level.
		for w := range buckets {
			for s := range buckets[w] {
				clear(buckets[w][s])
				buckets[w][s] = buckets[w][s][:0]
			}
		}
	}
	return ip.finish(ix, arcs)
}
