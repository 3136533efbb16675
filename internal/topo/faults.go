package topo

import (
	"maps"
	"sync"
	"sync/atomic"
)

// FaultSet is the id-space liveness oracle shared between a fault-aware
// router and a degraded-mode simulator: failed links and nodes are recorded
// as plain int64 ids, so membership is O(1) and nothing about the topology is
// ever materialized. It is the liveness store of every degraded netsim run,
// built graphs included. Entries are reference-counted, so overlapping
// schedules (two faults striking the same component before either heals)
// compose, and every mutation bumps a monotonic epoch counter, which is what
// routers use to invalidate cached source routes: a cached route verified
// at epoch e is known fault-free for as long as Epoch() still returns e.
//
// Link faults are directed arcs. On an undirected topology the caller fails
// both directions (FailLinkBoth); keeping the primitive directed lets the
// same structure serve directed families like dir-CN.
//
// A FaultSet is safe for concurrent use. The live faults form an immutable
// snapshot: a mutation serializes on a mutex, copies the link or node counts
// it changes (O(live faults)), publishes the new snapshot and only then
// bumps the epoch, so a reader that sees epoch e also sees every fault of e. LinkDown, NodeDown, Blocked
// and Len read one snapshot through a single atomic load and take no lock,
// so a simulator applying scheduled faults can share the set with routers
// running in other goroutines.
type FaultSet struct {
	mu    sync.Mutex // serializes writers
	epoch atomic.Uint64
	live  atomic.Pointer[faultSnap]
}

// faultSnap is one immutable state of a FaultSet: the failure count of
// every failed directed link and node. A nil map has no failures.
type faultSnap struct {
	links map[[2]int64]int
	nodes map[int64]int
}

// NewFaultSet returns an empty fault set at epoch 0.
func NewFaultSet() *FaultSet {
	fs := &FaultSet{}
	fs.live.Store(&faultSnap{})
	return fs
}

// Epoch returns the current fault epoch. It increases by one on every
// mutation (fail or repair) and never decreases.
func (fs *FaultSet) Epoch() uint64 { return fs.epoch.Load() }

// mutate publishes a copy of the live snapshot with change applied and
// bumps the epoch. The copy shares both count maps with the snapshot it
// replaces, so change must replace, never write into, a map it edits.
func (fs *FaultSet) mutate(change func(*faultSnap)) {
	fs.mu.Lock()
	next := *fs.live.Load()
	change(&next)
	fs.live.Store(&next)
	fs.epoch.Add(1)
	fs.mu.Unlock()
}

// fail returns a copy of counts with one more failure of each key.
func fail[K comparable](counts map[K]int, keys ...K) map[K]int {
	out := make(map[K]int, len(counts)+len(keys))
	maps.Copy(out, counts)
	for _, k := range keys {
		out[k]++
	}
	return out
}

// repair returns a copy of counts with one failure fewer of each key; a key
// with none is left alone.
func repair[K comparable](counts map[K]int, keys ...K) map[K]int {
	out := maps.Clone(counts)
	for _, k := range keys {
		if c := out[k]; c > 1 {
			out[k] = c - 1
		} else if c == 1 {
			delete(out, k)
		}
	}
	return out
}

// FailLink marks the directed link u -> v failed (reference-counted).
func (fs *FaultSet) FailLink(u, v int64) {
	fs.mutate(func(s *faultSnap) { s.links = fail(s.links, [2]int64{u, v}) })
}

// RepairLink removes one failure of the directed link u -> v. Repairing a
// live link is a no-op.
func (fs *FaultSet) RepairLink(u, v int64) {
	fs.mutate(func(s *faultSnap) { s.links = repair(s.links, [2]int64{u, v}) })
}

// FailLinkBoth fails both directions of the link {u, v} — the undirected
// fault primitive.
func (fs *FaultSet) FailLinkBoth(u, v int64) {
	fs.mutate(func(s *faultSnap) { s.links = fail(s.links, [2]int64{u, v}, [2]int64{v, u}) })
}

// RepairLinkBoth repairs both directions of the link {u, v}.
func (fs *FaultSet) RepairLinkBoth(u, v int64) {
	fs.mutate(func(s *faultSnap) { s.links = repair(s.links, [2]int64{u, v}, [2]int64{v, u}) })
}

// FailNode marks node u failed (reference-counted).
func (fs *FaultSet) FailNode(u int64) {
	fs.mutate(func(s *faultSnap) { s.nodes = fail(s.nodes, u) })
}

// RepairNode removes one failure of node u. Repairing a live node is a
// no-op.
func (fs *FaultSet) RepairNode(u int64) {
	fs.mutate(func(s *faultSnap) { s.nodes = repair(s.nodes, u) })
}

// LinkDown reports whether the directed link u -> v is failed. A down
// endpoint does not imply a down link; use Blocked for the combined check.
func (fs *FaultSet) LinkDown(u, v int64) bool {
	_, down := fs.live.Load().links[[2]int64{u, v}]
	return down
}

// NodeDown reports whether node u is failed.
func (fs *FaultSet) NodeDown(u int64) bool {
	_, down := fs.live.Load().nodes[u]
	return down
}

// Blocked reports whether a packet at u can NOT be forwarded to v: the link
// is down or the receiving node is down. (The sending node's own liveness is
// the caller's concern — a packet cannot sit at a dead node in the first
// place.)
func (fs *FaultSet) Blocked(u, v int64) bool {
	s := fs.live.Load()
	_, linkDown := s.links[[2]int64{u, v}]
	_, nodeDown := s.nodes[v]
	return linkDown || nodeDown
}

// Len returns the number of distinct failed directed links and nodes.
func (fs *FaultSet) Len() (links, nodes int) {
	s := fs.live.Load()
	return len(s.links), len(s.nodes)
}
