// Fault scheduling for the packet simulator: a FaultPlan is a deterministic
// list of link/node failure (and repair) events applied to the topology at
// specific cycles while a simulation runs. Plans are either hand-built
// (LinkDown/NodeDown) or generated from an MTBF-style random process
// (RandomFaults.Plan) with a fixed seed, so every degraded-mode run is
// reproducible.
package netsim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/topo"
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
	U, V   int32 // link endpoints; V ignored for node faults
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
func (p *FaultPlan) LinkDown(cycle int, u, v int32, repair int) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{Cycle: cycle, Kind: LinkFault, U: u, V: v, Repair: repair})
	return p
}

// NodeDown schedules node u to fail at cycle, healing at repair
// (repair <= cycle means permanent). Returns the plan for chaining.
func (p *FaultPlan) NodeDown(cycle int, u int32, repair int) *FaultPlan {
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

// Validate checks every event against a materialized graph. It is a thin
// wrapper over ValidateTopo, kept for callers that already hold the built
// graph.
func (p *FaultPlan) Validate(g *graph.Graph) error {
	return p.ValidateTopo(topo.NewMaterialized(g))
}

// ValidateTopo checks every event against an id-space topology — endpoints
// in range, link events on actual edges (via the Neighbors oracle), and
// non-negative cycles — without ever materializing the graph, so fault plans
// for implicit multi-million-node instances are validated in O(events ·
// degree). Note FaultEvent ids are int32: on topologies with more than 2^31
// nodes a plan can only name the first 2^31 of them.
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
		if e.U < 0 || int64(e.U) >= n {
			return fmt.Errorf("netsim: fault %d: node %d out of range", i, e.U)
		}
		if e.Kind == LinkFault {
			if e.V < 0 || int64(e.V) >= n {
				return fmt.Errorf("netsim: fault %d: node %d out of range", i, e.V)
			}
			buf = t.Neighbors(int64(e.U), buf)
			found := false
			for _, v := range buf {
				if v == int64(e.V) {
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
	return nil
}

// Plan draws a deterministic fault schedule for g. The same graph, seed, and
// parameters always produce the same plan. Node 0 is never killed by a node
// fault (keeping at least one stable observer); links are drawn uniformly
// from the edge list, nodes uniformly from 1..N-1, and repeat strikes on a
// component already scheduled down at that cycle are simply re-drawn as
// independent events (the simulator handles overlap by reference counting).
func (r RandomFaults) Plan(g *graph.Graph) (*FaultPlan, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.Seed))
	edges := g.EdgeList()
	plan := &FaultPlan{}
	prob := 1 / r.MTBF
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
		if rng.Float64() < r.NodeFraction && g.N() > 1 {
			plan.NodeDown(cycle, int32(1+rng.Intn(g.N()-1)), repair)
		} else if len(edges) > 0 {
			e := edges[rng.Intn(len(edges))]
			plan.LinkDown(cycle, e[0], e[1], repair)
		}
	}
	return plan, nil
}

// PlanTopo draws a deterministic fault schedule for an id-space topology —
// no edge list is ever built, so it works on implicit multi-million-node
// instances. Links are sampled node-first (a uniform node, then a uniform
// neighbor), which matches Plan's uniform-edge draw exactly on regular
// topologies; the RNG stream differs from Plan's, so the two generators
// produce different (but individually reproducible) schedules. Node 0 is
// never killed, as in Plan. Topologies with more than 2^31 nodes are
// rejected: FaultEvent ids are int32.
func (r RandomFaults) PlanTopo(t Topology) (*FaultPlan, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	n := t.N()
	if n > int64(1)<<31 {
		return nil, fmt.Errorf("netsim: topology has %d nodes; fault events address at most 2^31", n)
	}
	rng := rand.New(rand.NewSource(r.Seed))
	plan := &FaultPlan{}
	prob := 1 / r.MTBF
	var buf []int64
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
			plan.NodeDown(cycle, int32(1+rng.Int63n(n-1)), repair)
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
		plan.LinkDown(cycle, int32(u), int32(buf[rng.Intn(len(buf))]), repair)
	}
	return plan, nil
}
