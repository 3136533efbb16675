// Sampled packet-lifecycle tracing in the Chrome trace-event JSON format
// (load the output in chrome://tracing or https://ui.perfetto.dev). Each
// sampled packet becomes one nestable async track ("b" at injection, "n"
// instants per queueing event, "e" at delivery or drop),
// each transmission of a sampled packet becomes a complete ("X") slice on
// the sending node's row, and fault/repair/reroute events land on a
// dedicated fault-timeline process so reroute storms can be read against
// the fault schedule. Simulated cycles map 1:1 to trace
// microseconds.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Pids of the two trace processes.
const (
	tracePidPackets = 0 // packet lifecycle + per-node link activity
	tracePidFaults  = 1 // fault/repair/reroute timeline
)

// traceEvent is one Chrome trace-event object.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int64          `json:"tid"`
	ID    int64          `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Trace collects Chrome trace events for a deterministic sample of packets:
// a packet is traced when its id is a multiple of SampleEvery
// (SampleEvery <= 1 traces everything). Fault-timeline events are always
// recorded. The zero value traces every packet.
type Trace struct {
	NopProbe
	// SampleEvery traces every SampleEvery-th packet id (<= 1 = all).
	SampleEvery int

	events []traceEvent
}

func (t *Trace) sampled(id int64) bool {
	return t.SampleEvery <= 1 || id%int64(t.SampleEvery) == 0
}

// Len returns how many trace events were recorded.
func (t *Trace) Len() int { return len(t.events) }

// Inject opens the packet's async track (Probe hook).
func (t *Trace) Inject(cycle int, id int64, src, dst int64, measured bool) {
	if !t.sampled(id) {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: fmt.Sprintf("pkt %d", id), Cat: "packet", Ph: "b",
		Ts: int64(cycle), Pid: tracePidPackets, Tid: src, ID: id,
		Args: map[string]any{"src": src, "dst": dst, "measured": measured},
	})
}

// Enqueue marks the packet joining a link FIFO (Probe hook).
func (t *Trace) Enqueue(cycle int, id int64, at, next int64, qlen int) {
	if !t.sampled(id) {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: fmt.Sprintf("pkt %d", id), Cat: "packet", Ph: "n",
		Ts: int64(cycle), Pid: tracePidPackets, Tid: at, ID: id,
		Args: map[string]any{"event": "enqueue", "at": at, "next": next, "queue": qlen},
	})
}

// Hop records the link transmission as a slice on the sender's row
// (Probe hook).
func (t *Trace) Hop(cycle int, id int64, from, to int64, occupy, _ int) {
	if !t.sampled(id) {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: fmt.Sprintf("%d->%d", from, to), Cat: "link", Ph: "X",
		Ts: int64(cycle), Dur: int64(occupy), Pid: tracePidPackets, Tid: from,
		Args: map[string]any{"pkt": id},
	})
}

// Deliver closes the packet's async track (Probe hook).
func (t *Trace) Deliver(cycle int, id int64, node int64, latency int, measured bool) {
	if !t.sampled(id) {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: fmt.Sprintf("pkt %d", id), Cat: "packet", Ph: "e",
		Ts: int64(cycle), Pid: tracePidPackets, Tid: node, ID: id,
		Args: map[string]any{"latency": latency, "measured": measured},
	})
}

// Drop closes the packet's async track: a drop, like a delivery, ends the
// packet (Probe hook).
func (t *Trace) Drop(cycle int, id int64, at int64, reason DropReason) {
	if !t.sampled(id) {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: fmt.Sprintf("pkt %d", id), Cat: "packet", Ph: "e",
		Ts: int64(cycle), Pid: tracePidPackets, Tid: at, ID: id,
		Args: map[string]any{"dropped": reason.String()},
	})
}

// Fault records topology changes on the fault-timeline process (Probe hook).
func (t *Trace) Fault(cycle int, u, v int64, node, down bool) {
	what := "link"
	target := fmt.Sprintf("%d-%d", u, v)
	if node {
		what = "node"
		target = fmt.Sprintf("%d", u)
	}
	verb := "down"
	if !down {
		verb = "repair"
	}
	t.events = append(t.events, traceEvent{
		Name: fmt.Sprintf("%s %s %s", what, target, verb), Cat: "fault",
		Ph: "i", Scope: "g", Ts: int64(cycle), Pid: tracePidFaults, Tid: 0,
	})
}

// Reroute records routing-table rebuilds on the fault timeline (Probe hook).
func (t *Trace) Reroute(cycle int, dst int64, lag int) {
	t.events = append(t.events, traceEvent{
		Name: fmt.Sprintf("reroute dst %d", dst), Cat: "reroute",
		Ph: "i", Scope: "t", Ts: int64(cycle), Pid: tracePidFaults, Tid: 1,
		Args: map[string]any{"lag": lag},
	})
}

// WriteJSON emits the collected events as a Chrome trace-event file:
// {"traceEvents": [...]} with metadata naming the two processes.
func (t *Trace) WriteJSON(w io.Writer) error {
	meta := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: tracePidPackets,
			Args: map[string]any{"name": "packets"}},
		{Name: "process_name", Ph: "M", Pid: tracePidFaults,
			Args: map[string]any{"name": "faults+reroutes"}},
	}
	out := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: append(meta, t.events...), DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
