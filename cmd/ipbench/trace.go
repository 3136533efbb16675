package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/symbols"
	"repro/internal/topo"
)

// layer names the stack layer a wrapped call belongs to.
type layer int

const (
	layerUnrank  layer = iota // core.Ranker.Unrank, reached through topo.Labeled.Label
	layerRank                 // core.Ranker.Rank, reached through topo.Labeled.ID
	layerRoute                // core.Router: PathRouter.Path, or a NextHop that computed a route
	layerNextHop              // topo router: NextHop self time
	layerNbrs                 // topo.Implicit.Neighbors (or the hypercube's)
	numLayers
)

var layerNames = [numLayers]string{"unrank", "rank", "route", "nexthop", "neighbors"}

// sampleEvery is the span sampling period of -traceout: one call in
// sampleEvery becomes a trace event, so the file stays small on runs with
// millions of wrapped calls.
const sampleEvery = 4096

// tracer sums, per layer, the calls and self time of the wrapped calls made
// on one goroutine. Self time is a call's duration minus that of the wrapped
// calls nested in it. A tracer is not safe for concurrent use: the sharded
// workload gives every lane its own and merges them after the run.
type tracer struct {
	lane   int
	origin time.Time
	calls  [numLayers]int64
	selfNs [numLayers]int64
	// routes counts route computations: wrapped Path calls plus NextHop
	// calls that reached the ranker, which only a route computation does.
	routes int64
	stack  []frame
	n      int64
	spans  []span
}

type frame struct {
	l       layer
	start   time.Time
	childNs int64
	ranked  bool // a codec call ended directly inside this frame
}

type span struct {
	Name   string
	Parent string
	Lane   int
	Start  time.Duration
	Dur    time.Duration
}

func newTracer(lane int, origin time.Time) *tracer {
	return &tracer{lane: lane, origin: origin}
}

func (t *tracer) begin(l layer) {
	t.stack = append(t.stack, frame{l: l, start: time.Now()})
}

func (t *tracer) end() {
	now := time.Now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(f.start).Nanoseconds()
	t.calls[f.l]++
	// topo.Algebraic.NextHop is opaque from outside: a call that reached the
	// ranker computed a Theorem 4.1/4.3 route on a cache miss, so its self
	// time is route computation, not cache bookkeeping.
	owner := f.l
	if f.ranked && f.l == layerNextHop {
		owner = layerRoute
	}
	if owner == layerRoute {
		t.routes++
	}
	t.selfNs[owner] += d - f.childNs
	parent := "run"
	if n := len(t.stack); n > 0 {
		p := &t.stack[n-1]
		p.childNs += d
		p.ranked = p.ranked || f.l == layerUnrank || f.l == layerRank
		parent = layerNames[p.l]
	}
	t.n++
	if t.n%sampleEvery == 0 {
		t.spans = append(t.spans, span{
			Name: layerNames[f.l], Parent: parent, Lane: t.lane,
			Start: f.start.Sub(t.origin), Dur: time.Duration(d),
		})
	}
}

// busyNs is the wrapped time of the tracer: the sum of every layer's self
// time, which is the time spent inside outermost wrapped calls.
func (t *tracer) busyNs() int64 {
	var s int64
	for _, v := range t.selfNs {
		s += v
	}
	return s
}

// merge sums several lane tracers into one.
func merge(ts []*tracer) *tracer {
	out := &tracer{}
	for _, t := range ts {
		for l := range t.calls {
			out.calls[l] += t.calls[l]
			out.selfNs[l] += t.selfNs[l]
		}
		out.routes += t.routes
		out.spans = append(out.spans, t.spans...)
	}
	return out
}

// writeChromeTrace writes the sampled spans as Chrome trace-event JSON
// (load it in chrome://tracing or Perfetto).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Args: map[string]string{"parent": s.Parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// tracedCodec times the ranker calls topo.Algebraic makes through its
// id <-> label codec. Wrapping a separate topo.NewImplicit and handing it to
// topo.NewAlgebraicWith builds exactly what topo.NewAlgebraic builds.
type tracedCodec struct {
	in topo.Labeled
	tr *tracer
}

func (c tracedCodec) Label(u int64) symbols.Label {
	c.tr.begin(layerUnrank)
	x := c.in.Label(u)
	c.tr.end()
	return x
}

func (c tracedCodec) ID(x symbols.Label) int64 {
	c.tr.begin(layerRank)
	id := c.in.ID(x)
	c.tr.end()
	return id
}

// tracedTopo times Neighbors on the topology the engine and the fault-aware
// router query.
type tracedTopo struct {
	in topo.Topology
	tr *tracer
}

func (t tracedTopo) N() int64       { return t.in.N() }
func (t tracedTopo) MaxDegree() int { return t.in.MaxDegree() }
func (t tracedTopo) Directed() bool { return t.in.Directed() }

func (t tracedTopo) Neighbors(u int64, buf []int64) []int64 {
	t.tr.begin(layerNbrs)
	buf = t.in.Neighbors(u, buf)
	t.tr.end()
	return buf
}

// tracedPath times Path on a PathRouter: the routes the route workload asks
// for, and the inner router topo.FaultAware derives routes with.
type tracedPath struct {
	in topo.PathRouter
	tr *tracer
}

func (r tracedPath) NextHop(cur, dst int64) (int64, error) { return r.in.NextHop(cur, dst) }

func (r tracedPath) Path(src, dst int64) ([]int64, error) {
	r.tr.begin(layerRoute)
	p, err := r.in.Path(src, dst)
	r.tr.end()
	return p, err
}

// tracedRouter times NextHop on the router the engine calls. The engine
// type-asserts its router for NextHopFlagged, RerouteCounts and RouterStats;
// dropping any of them would silently zero DeliveredDegraded, the reroute
// counts or the router telemetry, so all three are forwarded. Where the
// inner router lacks one, the wrapper answers what the engine assumes when
// the assertion fails.
type tracedRouter struct {
	in topo.Router
	tr *tracer
}

var _ interface {
	topo.Router
	NextHopFlagged(cur, dst int64) (int64, bool, error)
	RerouteCounts() (reroutes, detourHops uint64)
	RouterStats() topo.RouterStats
} = tracedRouter{}

func (r tracedRouter) NextHop(cur, dst int64) (int64, error) {
	r.tr.begin(layerNextHop)
	nh, err := r.in.NextHop(cur, dst)
	r.tr.end()
	return nh, err
}

func (r tracedRouter) NextHopFlagged(cur, dst int64) (int64, bool, error) {
	f, ok := r.in.(interface {
		NextHopFlagged(cur, dst int64) (int64, bool, error)
	})
	if !ok {
		nh, err := r.NextHop(cur, dst)
		return nh, false, err
	}
	r.tr.begin(layerNextHop)
	nh, detoured, err := f.NextHopFlagged(cur, dst)
	r.tr.end()
	return nh, detoured, err
}

func (r tracedRouter) RerouteCounts() (reroutes, detourHops uint64) {
	if c, ok := r.in.(interface{ RerouteCounts() (uint64, uint64) }); ok {
		return c.RerouteCounts()
	}
	return 0, 0
}

func (r tracedRouter) RouterStats() topo.RouterStats {
	if s, ok := r.in.(interface{ RouterStats() topo.RouterStats }); ok {
		return s.RouterStats()
	}
	return topo.RouterStats{}
}
