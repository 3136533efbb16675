// Per-link time series. The collector watches Enqueue/Hop
// events to maintain, for every directed link, the current queue depth and
// the busy cycles accumulated in the current sample window, and snapshots
// them every Every cycles. Busy time is attributed to the window in which a
// transmission starts, so summing the exported busy columns over all windows
// exactly reproduces the total link occupancy of the run (no truncation at
// window boundaries) — the invariant the consistency tests rely on.
//
// Link state is allocated lazily on first Enqueue/Hop, so the collector
// holds memory proportional to the links that actually carried traffic, not
// the size of the topology — it attaches to a 25M-node implicit run as
// readily as to a 64-node materialized one. The per-module view of the same
// run is ModuleSeries; the off-module queue of a module can also be summed
// from the exported link rows (offmodule, queue).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TimeSeries samples per-link load every Every cycles. Create with
// NewTimeSeries, attach as the run's Probe, then Flush and export.
type TimeSeries struct {
	NopProbe
	every    int
	moduleOf func(int64) int64 // nil: no link is off-module

	src, dst []int64          // per link index
	off      []bool           // off-module link?
	idx      map[[2]int64]int // (u, v) -> link index
	qlen     []int            // current queue depth
	winBusy  []int64          // busy cycles accumulated this window
	busy     []int64          // total busy cycles
	hops     []int64          // total transmissions

	lastTick   int
	lastSample int
	flushed    bool

	linkRows []linkRow
}

type linkRow struct {
	cycle, width int // window is [cycle-width, cycle)
	link         int
	qlen         int
	busy         int64
}

// LinkLoad summarizes one directed link over the whole run.
type LinkLoad struct {
	U, V      int64
	OffModule bool
	Hops      int64   // transmissions carried
	Busy      int64   // cycles the link was occupied
	Util      float64 // Busy / observed cycles
}

// NewTimeSeries builds a collector sampling every `every` cycles (values
// < 1 are clamped to 1). moduleOf maps a node id to its module id and may
// be nil; with it the collector flags off-module links in exports. For a materialized run with a
// metrics.Partition pass func(u int64) int64 { return int64(part.Of[u]) };
// for an implicit topo.Modular topology pass its Module method.
func NewTimeSeries(moduleOf func(int64) int64, every int) *TimeSeries {
	if every < 1 {
		every = 1
	}
	return &TimeSeries{every: every, moduleOf: moduleOf, idx: map[[2]int64]int{}}
}

// link returns the state index of directed link u->v, allocating it on
// first sight.
func (ts *TimeSeries) link(u, v int64) int {
	if i, ok := ts.idx[[2]int64{u, v}]; ok {
		return i
	}
	i := len(ts.src)
	ts.idx[[2]int64{u, v}] = i
	ts.src = append(ts.src, u)
	ts.dst = append(ts.dst, v)
	ts.off = append(ts.off, ts.moduleOf != nil && ts.moduleOf(u) != ts.moduleOf(v))
	ts.qlen = append(ts.qlen, 0)
	ts.winBusy = append(ts.winBusy, 0)
	ts.busy = append(ts.busy, 0)
	ts.hops = append(ts.hops, 0)
	return i
}

// Tick snapshots a window whenever the sample period elapses (Probe hook).
func (ts *TimeSeries) Tick(cycle int) {
	ts.lastTick = cycle
	if cycle > ts.lastSample && cycle%ts.every == 0 {
		ts.snapshot(cycle)
	}
}

// Enqueue tracks queue growth (Probe hook).
func (ts *TimeSeries) Enqueue(_ int, _ int64, at, next int64, qlen int) {
	ts.qlen[ts.link(at, next)] = qlen
}

// Hop tracks transmissions and link occupancy (Probe hook).
func (ts *TimeSeries) Hop(_ int, _ int64, from, to int64, occupy, qlen int) {
	i := ts.link(from, to)
	ts.qlen[i] = qlen
	ts.winBusy[i] += int64(occupy)
	ts.busy[i] += int64(occupy)
	ts.hops[i]++
}

// Drop clears the outgoing-link depths of a node whose queues were killed
// (Probe hook). Both simulators kill every queue of a dead node in the same
// cycle, so zeroing them on the first kill is exact and repeats are no-ops.
func (ts *TimeSeries) Drop(_ int, _ int64, at int64, reason DropReason) {
	if reason != DropQueueKilled {
		return
	}
	for i, u := range ts.src {
		if u == at {
			ts.qlen[i] = 0
		}
	}
}

func (ts *TimeSeries) snapshot(cycle int) {
	width := cycle - ts.lastSample
	if width <= 0 {
		return
	}
	for i := range ts.src {
		if ts.qlen[i] != 0 || ts.winBusy[i] != 0 {
			ts.linkRows = append(ts.linkRows, linkRow{cycle: cycle, width: width,
				link: i, qlen: ts.qlen[i], busy: ts.winBusy[i]})
		}
		ts.winBusy[i] = 0
	}
	ts.lastSample = cycle
}

// Flush snapshots the final partial window so that the exported busy
// columns sum to the total link occupancy of the run. Call once after the
// run; further calls are no-ops.
func (ts *TimeSeries) Flush() {
	if ts.flushed {
		return
	}
	ts.flushed = true
	ts.snapshot(ts.lastTick + 1)
}

// ObservedCycles returns how many cycles the run simulated (as seen by
// Tick), the denominator of the overall utilizations.
func (ts *TimeSeries) ObservedCycles() int { return ts.lastTick + 1 }

// TotalBusy returns the summed busy cycles over all links, which for a
// period-1 single-flit run equals the total number of hops taken by all
// packets (measured or not).
func (ts *TimeSeries) TotalBusy() int64 {
	var sum int64
	for _, b := range ts.busy {
		sum += b
	}
	return sum
}

// TopLinks returns the n busiest active directed links (by total busy
// cycles), hottest first — the "where does queueing happen" summary. n <= 0
// or n larger than the active-link count returns all of them.
func (ts *TimeSeries) TopLinks(n int) []LinkLoad {
	order := make([]int, len(ts.src))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if ts.busy[order[a]] != ts.busy[order[b]] {
			return ts.busy[order[a]] > ts.busy[order[b]]
		}
		if ts.src[order[a]] != ts.src[order[b]] {
			return ts.src[order[a]] < ts.src[order[b]]
		}
		return ts.dst[order[a]] < ts.dst[order[b]]
	})
	if n <= 0 || n > len(order) {
		n = len(order)
	}
	cycles := float64(ts.ObservedCycles())
	out := make([]LinkLoad, 0, n)
	for _, i := range order[:n] {
		util := 0.0
		if cycles > 0 {
			util = float64(ts.busy[i]) / cycles
		}
		out = append(out, LinkLoad{U: ts.src[i], V: ts.dst[i], OffModule: ts.off[i],
			Hops: ts.hops[i], Busy: ts.busy[i], Util: util})
	}
	return out
}

// WriteCSV exports the per-link series: one row per (window, active link)
// with the window-end cycle, window width, link endpoints, the off-module
// flag, the sampled queue depth, the busy cycles accumulated in the window,
// and the window utilization busy/width (which can exceed 1 when a
// multi-cycle transmission starts near the window end — occupancy is
// attributed to the starting window so the columns sum exactly). Links idle
// through a whole window are omitted.
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "cycle,width,src,dst,offmodule,queue,busy,util"); err != nil {
		return err
	}
	for _, r := range ts.linkRows {
		i := r.link
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%t,%d,%d,%.4f\n",
			r.cycle, r.width, ts.src[i], ts.dst[i], ts.off[i], r.qlen, r.busy,
			float64(r.busy)/float64(r.width)); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL exports the per-link series as JSON lines ("kind":"link"), for
// downstream tooling that prefers streaming JSON over CSV.
func (ts *TimeSeries) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range ts.linkRows {
		i := r.link
		if err := enc.Encode(map[string]any{
			"kind": "link", "cycle": r.cycle, "width": r.width,
			"src": ts.src[i], "dst": ts.dst[i], "offmodule": ts.off[i],
			"queue": r.qlen, "busy": r.busy,
			"util": float64(r.busy) / float64(r.width),
		}); err != nil {
			return err
		}
	}
	return nil
}
