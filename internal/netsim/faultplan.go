// Fault scheduling for the packet simulator: a FaultPlan is a deterministic
// list of link/node failure (and repair) events applied to the topology at
// specific cycles while a simulation runs. Plans are either hand-built
// (LinkDown/NodeDown) or drawn from an MTBF-style random process
// (RandomFaults.PlanTopo) with a fixed seed, so every degraded-mode run is
// reproducible. One generator and one check (ValidateTopo) serve every
// topology: a built graph is addressed through topo.NewMaterialized.
package netsim

import (
	"fmt"
	"math/rand"
	"sort"
)

// FaultKind distinguishes link faults from node faults.
type FaultKind uint8

const (
	// LinkFault disables one link; on undirected graphs both directions die.
	LinkFault FaultKind = iota
	// NodeFault disables a node: it stops injecting, forwarding, and
	// receiving, and every packet queued at it is dropped.
	NodeFault
)

func (k FaultKind) String() string {
	if k == NodeFault {
		return "node"
	}
	return "link"
}

// FaultEvent is one scheduled failure. A Repair cycle > Cycle makes the
// fault transient (the component heals at Repair); Repair <= Cycle means the
// fault is permanent.
type FaultEvent struct {
	Cycle  int
	Kind   FaultKind
	U, V   int64 // link endpoints; V ignored for node faults
	Repair int
}

// Transient reports whether the event heals.
func (e FaultEvent) Transient() bool { return e.Repair > e.Cycle }

// FaultPlan is an ordered schedule of failures injected during a run.
type FaultPlan struct {
	Events []FaultEvent
}

// LinkDown schedules link (u,v) to fail at cycle, healing at repair
// (repair <= cycle means permanent). Returns the plan for chaining.
func (p *FaultPlan) LinkDown(cycle int, u, v int64, repair int) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{Cycle: cycle, Kind: LinkFault, U: u, V: v, Repair: repair})
	return p
}

// NodeDown schedules node u to fail at cycle, healing at repair
// (repair <= cycle means permanent). Returns the plan for chaining.
func (p *FaultPlan) NodeDown(cycle int, u int64, repair int) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{Cycle: cycle, Kind: NodeFault, U: u, Repair: repair})
	return p
}

// Len returns the number of scheduled fault events.
func (p *FaultPlan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Events)
}

// ValidateTopo checks every event against an id-space topology — endpoints
// in range, link events on actual edges (via the Neighbors oracle), and
// non-negative cycles — without ever materializing the graph, so fault plans
// for implicit multi-million-node instances are validated in O(events ·
// degree).
func (p *FaultPlan) ValidateTopo(t Topology) error {
	if p == nil {
		return nil
	}
	n := t.N()
	var buf []int64
	for i, e := range p.Events {
		if e.Cycle < 0 {
			return fmt.Errorf("netsim: fault %d at negative cycle %d", i, e.Cycle)
		}
		if e.U < 0 || e.U >= n {
			return fmt.Errorf("netsim: fault %d: node %d out of range", i, e.U)
		}
		if e.Kind == LinkFault {
			if e.V < 0 || e.V >= n {
				return fmt.Errorf("netsim: fault %d: node %d out of range", i, e.V)
			}
			buf = t.Neighbors(e.U, buf)
			found := false
			for _, v := range buf {
				if v == e.V {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("netsim: fault %d: no link %d-%d in the topology", i, e.U, e.V)
			}
		}
	}
	return nil
}

// sorted returns the events ordered by strike cycle (stable), leaving the
// plan itself untouched.
func (p *FaultPlan) sorted() []FaultEvent {
	if p == nil {
		return nil
	}
	evs := append([]FaultEvent(nil), p.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Cycle < evs[j].Cycle })
	return evs
}

// RandomFaults parameterizes an MTBF-style random fault process.
type RandomFaults struct {
	// MTBF is the mean number of cycles between fault arrivals network-wide
	// (geometric inter-arrival: each cycle strikes with probability 1/MTBF).
	MTBF float64
	// RepairTime is how many cycles a fault lasts before healing; 0 makes
	// every fault permanent.
	RepairTime int
	// NodeFraction is the probability that a fault kills a node instead of
	// a link (0 = link faults only).
	NodeFraction float64
	// Start and Horizon bound the strike window [Start, Horizon).
	Start, Horizon int
	// MaxFaults caps the number of generated events (0 = unlimited).
	MaxFaults int
	// Seed makes the plan deterministic.
	Seed int64
}

// check rejects parameters no schedule can follow; a NaN MTBF or
// NodeFraction fails every comparison, so it is rejected too.
func (r RandomFaults) check() error {
	if !(r.MTBF > 0) {
		return fmt.Errorf("netsim: RandomFaults.MTBF must be positive, got %v", r.MTBF)
	}
	if !(r.NodeFraction >= 0 && r.NodeFraction <= 1) {
		return fmt.Errorf("netsim: RandomFaults.NodeFraction %v out of [0,1]", r.NodeFraction)
	}
	if r.Horizon <= r.Start {
		return fmt.Errorf("netsim: RandomFaults window [%d,%d) is empty", r.Start, r.Horizon)
	}
	// A negative repair time would read as permanent and a negative cap as
	// unlimited: both say something other than what was asked.
	if r.RepairTime < 0 {
		return fmt.Errorf("netsim: RandomFaults.RepairTime must be >= 0, got %d", r.RepairTime)
	}
	if r.MaxFaults < 0 {
		return fmt.Errorf("netsim: RandomFaults.MaxFaults must be >= 0, got %d", r.MaxFaults)
	}
	return nil
}

// PlanTopo draws a deterministic fault schedule for an id-space topology:
// the same topology, seed and parameters always produce the same plan. No
// edge list is ever built, so it works on implicit multi-million-node
// instances as well as on a built graph wrapped by topo.NewMaterialized.
// Links are sampled node-first (a uniform node, then a uniform neighbor),
// which is a uniform edge draw on regular topologies; nodes are drawn
// uniformly from 1..N-1, so node 0 is never killed (keeping at least one
// stable observer). Repeat strikes on a component already down are
// independent events (the simulator reference-counts overlaps).
func (r RandomFaults) PlanTopo(t Topology) (*FaultPlan, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	n := t.N()
	rng := rand.New(rand.NewSource(r.Seed))
	plan := &FaultPlan{}
	prob := 1 / r.MTBF
	buf := make([]int64, 0, t.MaxDegree())
	for cycle := r.Start; cycle < r.Horizon; cycle++ {
		if r.MaxFaults > 0 && plan.Len() >= r.MaxFaults {
			break
		}
		if rng.Float64() >= prob {
			continue
		}
		repair := 0
		if r.RepairTime > 0 {
			repair = cycle + r.RepairTime
		}
		if rng.Float64() < r.NodeFraction && n > 1 {
			plan.NodeDown(cycle, 1+rng.Int63n(n-1), repair)
			continue
		}
		// Sample a link: uniform node, then uniform neighbor. Isolated
		// nodes (impossible on the connected super-IP families) would make
		// this strike a no-op, which keeps the stream deterministic.
		u := rng.Int63n(n)
		buf = t.Neighbors(u, buf)
		if len(buf) == 0 {
			continue
		}
		plan.LinkDown(cycle, u, buf[rng.Intn(len(buf))], repair)
	}
	return plan, nil
}
