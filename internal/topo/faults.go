package topo

import (
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
// A FaultSet is safe for concurrent use: queries take a read lock and the
// epoch is read atomically, so a simulator applying scheduled faults can
// share the set with routers running in other goroutines.
type FaultSet struct {
	mu    sync.RWMutex
	epoch atomic.Uint64
	links map[[2]int64]int
	nodes map[int64]int
}

// NewFaultSet returns an empty fault set at epoch 0.
func NewFaultSet() *FaultSet {
	return &FaultSet{links: map[[2]int64]int{}, nodes: map[int64]int{}}
}

// Epoch returns the current fault epoch. It increases by one on every
// mutation (fail or repair) and never decreases.
func (fs *FaultSet) Epoch() uint64 { return fs.epoch.Load() }

// FailLink marks the directed link u -> v failed (reference-counted).
func (fs *FaultSet) FailLink(u, v int64) {
	fs.mu.Lock()
	fs.links[[2]int64{u, v}]++
	fs.epoch.Add(1)
	fs.mu.Unlock()
}

// RepairLink removes one failure of the directed link u -> v. Repairing a
// live link is a no-op.
func (fs *FaultSet) RepairLink(u, v int64) {
	fs.mu.Lock()
	k := [2]int64{u, v}
	if c := fs.links[k]; c > 1 {
		fs.links[k] = c - 1
	} else if c == 1 {
		delete(fs.links, k)
	}
	fs.epoch.Add(1)
	fs.mu.Unlock()
}

// FailLinkBoth fails both directions of the link {u, v} — the undirected
// fault primitive.
func (fs *FaultSet) FailLinkBoth(u, v int64) {
	fs.mu.Lock()
	fs.links[[2]int64{u, v}]++
	fs.links[[2]int64{v, u}]++
	fs.epoch.Add(1)
	fs.mu.Unlock()
}

// RepairLinkBoth repairs both directions of the link {u, v}.
func (fs *FaultSet) RepairLinkBoth(u, v int64) {
	fs.mu.Lock()
	for _, k := range [2][2]int64{{u, v}, {v, u}} {
		if c := fs.links[k]; c > 1 {
			fs.links[k] = c - 1
		} else if c == 1 {
			delete(fs.links, k)
		}
	}
	fs.epoch.Add(1)
	fs.mu.Unlock()
}

// FailNode marks node u failed (reference-counted).
func (fs *FaultSet) FailNode(u int64) {
	fs.mu.Lock()
	fs.nodes[u]++
	fs.epoch.Add(1)
	fs.mu.Unlock()
}

// RepairNode removes one failure of node u. Repairing a live node is a
// no-op.
func (fs *FaultSet) RepairNode(u int64) {
	fs.mu.Lock()
	if c := fs.nodes[u]; c > 1 {
		fs.nodes[u] = c - 1
	} else if c == 1 {
		delete(fs.nodes, u)
	}
	fs.epoch.Add(1)
	fs.mu.Unlock()
}

// LinkDown reports whether the directed link u -> v is failed. A down
// endpoint does not imply a down link; use Blocked for the combined check.
func (fs *FaultSet) LinkDown(u, v int64) bool {
	fs.mu.RLock()
	_, down := fs.links[[2]int64{u, v}]
	fs.mu.RUnlock()
	return down
}

// NodeDown reports whether node u is failed.
func (fs *FaultSet) NodeDown(u int64) bool {
	fs.mu.RLock()
	_, down := fs.nodes[u]
	fs.mu.RUnlock()
	return down
}

// Blocked reports whether a packet at u can NOT be forwarded to v: the link
// is down or the receiving node is down. (The sending node's own liveness is
// the caller's concern — a packet cannot sit at a dead node in the first
// place.)
func (fs *FaultSet) Blocked(u, v int64) bool {
	fs.mu.RLock()
	_, linkDown := fs.links[[2]int64{u, v}]
	_, nodeDown := fs.nodes[v]
	fs.mu.RUnlock()
	return linkDown || nodeDown
}

// Len returns the number of distinct failed directed links and nodes.
func (fs *FaultSet) Len() (links, nodes int) {
	fs.mu.RLock()
	links, nodes = len(fs.links), len(fs.nodes)
	fs.mu.RUnlock()
	return links, nodes
}

// Reset clears all faults and bumps the epoch once.
func (fs *FaultSet) Reset() {
	fs.mu.Lock()
	fs.links = map[[2]int64]int{}
	fs.nodes = map[int64]int{}
	fs.epoch.Add(1)
	fs.mu.Unlock()
}
