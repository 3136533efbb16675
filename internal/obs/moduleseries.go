// Module-aggregated time series. Where TimeSeries keeps one row of state per
// active directed link, ModuleSeries folds every event into the module of
// the node it happened at (the module map is the topo.Modular view of a
// hierarchical network: a node's level-1 cluster). State is therefore
// bounded by the number of modules that carried traffic — never by node or
// link count — which is what keeps a 25M-node sym-HSN(4;Q5) run observable:
// the whole collector is a few ints per active module.
//
// Per module the collector splits link activity into the two classes the
// paper's cost model prices differently: intra-module hops (both endpoints
// in the same module, the "cheap" local links) and inter-module hops (the
// off-module links that dominate ID-cost). Queue depth is tracked as a
// conservation count — enqueues minus transmission starts minus queue
// kills — so it needs no per-link state.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ModuleSeries samples per-module load every Every cycles. Create with
// NewModuleSeries, attach as (part of) the run's Probe, then Flush and
// export.
type ModuleSeries struct {
	NopProbe
	every    int
	moduleOf func(int64) int64

	mods map[int64]*moduleState

	lastTick   int
	lastSample int
	flushed    bool

	rows []moduleSeriesRow
}

// moduleState is the per-module accumulator: a gauge (queued) plus window
// and run-total counters.
type moduleState struct {
	queued int // packets currently queued at nodes of this module

	winIntraBusy, winInterBusy int64
	winInjected, winDelivered  int64

	intraBusy, interBusy int64
	intraHops, interHops int64
	injected, delivered  int64
}

type moduleSeriesRow struct {
	cycle, width         int
	module               int64
	queued               int
	intraBusy, interBusy int64
	injected, delivered  int64
}

// ModuleLoad summarizes one module over the whole run.
type ModuleLoad struct {
	Module               int64
	IntraHops, InterHops int64 // transmissions within / leaving the module
	IntraBusy, InterBusy int64 // link-busy cycles by class
	Injected, Delivered  int64 // packets sourced at / accepted by the module
}

// NewModuleSeries builds a module-aggregated collector sampling every
// `every` cycles (values < 1 are clamped to 1). moduleOf maps a node id to
// its module id — pass the Module method of a topo.Modular topology, or any
// coarsening of the id space (it must be total: every id the run touches
// gets some module).
func NewModuleSeries(moduleOf func(int64) int64, every int) *ModuleSeries {
	if every < 1 {
		every = 1
	}
	if moduleOf == nil {
		moduleOf = func(int64) int64 { return 0 }
	}
	return &ModuleSeries{every: every, moduleOf: moduleOf, mods: map[int64]*moduleState{}}
}

func (ms *ModuleSeries) mod(u int64) *moduleState {
	m := ms.moduleOf(u)
	st, ok := ms.mods[m]
	if !ok {
		st = &moduleState{}
		ms.mods[m] = st
	}
	return st
}

// Tick snapshots a window whenever the sample period elapses (Probe hook).
func (ms *ModuleSeries) Tick(cycle int) {
	ms.lastTick = cycle
	if cycle > ms.lastSample && cycle%ms.every == 0 {
		ms.snapshot(cycle)
	}
}

// Inject attributes sourced packets to the source's module (Probe hook).
func (ms *ModuleSeries) Inject(_ int, _ int64, src, _ int64, _ bool) {
	st := ms.mod(src)
	st.winInjected++
	st.injected++
}

// Enqueue grows the module's queued gauge (Probe hook).
func (ms *ModuleSeries) Enqueue(_ int, _ int64, at, _ int64, _ int) {
	ms.mod(at).queued++
}

// Hop shrinks the sender module's queued gauge and accumulates busy cycles
// into the intra- or inter-module class (Probe hook).
func (ms *ModuleSeries) Hop(_ int, _ int64, from, to int64, occupy, _ int) {
	st := ms.mod(from)
	st.queued--
	if ms.moduleOf(from) == ms.moduleOf(to) {
		st.winIntraBusy += int64(occupy)
		st.intraBusy += int64(occupy)
		st.intraHops++
	} else {
		st.winInterBusy += int64(occupy)
		st.interBusy += int64(occupy)
		st.interHops++
	}
}

// Deliver attributes accepted packets to the destination's module
// (Probe hook).
func (ms *ModuleSeries) Deliver(_ int, _ int64, node int64, _ int, _ bool) {
	st := ms.mod(node)
	st.winDelivered++
	st.delivered++
}

// Drop keeps the queued gauge honest when a node dies with packets still
// queued (Probe hook).
func (ms *ModuleSeries) Drop(_ int, _ int64, at int64, reason DropReason) {
	if reason == DropQueueKilled {
		ms.mod(at).queued--
	}
}

func (ms *ModuleSeries) snapshot(cycle int) {
	width := cycle - ms.lastSample
	if width <= 0 {
		return
	}
	ids := make([]int64, 0, len(ms.mods))
	for m := range ms.mods {
		ids = append(ids, m)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, m := range ids {
		st := ms.mods[m]
		if st.queued == 0 && st.winIntraBusy == 0 && st.winInterBusy == 0 &&
			st.winInjected == 0 && st.winDelivered == 0 {
			continue
		}
		ms.rows = append(ms.rows, moduleSeriesRow{
			cycle: cycle, width: width, module: m,
			queued: st.queued, intraBusy: st.winIntraBusy, interBusy: st.winInterBusy,
			injected: st.winInjected, delivered: st.winDelivered,
		})
		st.winIntraBusy, st.winInterBusy = 0, 0
		st.winInjected, st.winDelivered = 0, 0
	}
	ms.lastSample = cycle
}

// Flush snapshots the final partial window so the exported busy columns sum
// to the run totals. Call once after the run; further calls are no-ops.
func (ms *ModuleSeries) Flush() {
	if ms.flushed {
		return
	}
	ms.flushed = true
	ms.snapshot(ms.lastTick + 1)
}

// ActiveModules returns how many distinct modules saw at least one event —
// the collector's memory footprint is proportional to this.
func (ms *ModuleSeries) ActiveModules() int { return len(ms.mods) }

// TopModules returns the n busiest modules (by total busy cycles, inter
// breaking ties), hottest first — the "which cluster is the hotspot"
// summary. n <= 0 or n larger than the active-module count returns all.
func (ms *ModuleSeries) TopModules(n int) []ModuleLoad {
	ids := make([]int64, 0, len(ms.mods))
	for m := range ms.mods {
		ids = append(ids, m)
	}
	sort.Slice(ids, func(a, b int) bool {
		sa, sb := ms.mods[ids[a]], ms.mods[ids[b]]
		ta, tb := sa.intraBusy+sa.interBusy, sb.intraBusy+sb.interBusy
		if ta != tb {
			return ta > tb
		}
		if sa.interBusy != sb.interBusy {
			return sa.interBusy > sb.interBusy
		}
		return ids[a] < ids[b]
	})
	if n <= 0 || n > len(ids) {
		n = len(ids)
	}
	out := make([]ModuleLoad, 0, n)
	for _, m := range ids[:n] {
		st := ms.mods[m]
		out = append(out, ModuleLoad{Module: m,
			IntraHops: st.intraHops, InterHops: st.interHops,
			IntraBusy: st.intraBusy, InterBusy: st.interBusy,
			Injected: st.injected, Delivered: st.delivered})
	}
	return out
}

// WriteCSV exports the series: one row per (window, active module) with the
// window-end cycle, window width, module id, the queued-packet gauge at the
// window end, the busy cycles by link class, and the packets injected and
// delivered in the window. Modules idle through a whole window are omitted.
func (ms *ModuleSeries) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "cycle,width,module,queued,intrabusy,interbusy,injected,delivered"); err != nil {
		return err
	}
	for _, r := range ms.rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d\n",
			r.cycle, r.width, r.module, r.queued, r.intraBusy, r.interBusy,
			r.injected, r.delivered); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL exports the series as JSON lines ("kind":"moduleagg").
func (ms *ModuleSeries) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range ms.rows {
		if err := enc.Encode(map[string]any{
			"kind": "moduleagg", "cycle": r.cycle, "width": r.width,
			"module": r.module, "queued": r.queued,
			"intrabusy": r.intraBusy, "interbusy": r.interBusy,
			"injected": r.injected, "delivered": r.delivered,
		}); err != nil {
			return err
		}
	}
	return nil
}
