// EventLog: the per-lane probe buffer behind the sharded simulator's
// deterministic fan-in. Each lane of netsim.RunSharded records its probe
// events into a private EventLog while the lanes run concurrently; at every
// window barrier the coordinator replays the logs cycle by cycle, lane by
// lane, into the user's single Probe. The replay order — Tick(c), then lane
// 0's events of cycle c in emission order, then lane 1's, ... — depends only
// on the lane partition, never on how many worker threads executed the
// lanes, so an instrumented sharded run streams one deterministic event
// sequence regardless of Shards. Collectors like Progress see exactly one
// Tick per cycle and aggregate across all lanes for free.
package obs

// EventKind discriminates the buffered probe calls of an EventLog.
type EventKind uint8

const (
	EvInject EventKind = iota
	EvEnqueue
	EvHop
	EvDeliver
	EvDrop
	EvFault
	EvReroute
)

// Event is one buffered probe call. The int64 and int fields are overloaded
// per kind exactly as in the Probe method signatures (U and V carry the node
// arguments in order, A and B the int arguments in order, Flag/Flag2 the
// bools, Reason the drop reason).
type Event struct {
	Kind        EventKind
	Cycle       int
	ID          int64
	U, V        int64
	A, B        int
	Flag, Flag2 bool
	Reason      DropReason
}

// EventLog is a Probe that buffers every event except Tick (the replaying
// coordinator owns the clock and emits its own Ticks). Events must be
// appended in nondecreasing cycle order, which every engine-driven run
// guarantees. The zero value is ready to use. Not safe for concurrent use:
// one EventLog belongs to one lane.
type EventLog struct {
	events []Event
	cursor int
}

// Len returns the number of buffered (not yet Reset) events.
func (l *EventLog) Len() int { return len(l.events) }

// ReplayCycle forwards the buffered events of cycle c to p, in emission
// order, advancing the internal cursor past them. Calls must walk cycles in
// the same nondecreasing order the events were recorded in; events of
// earlier cycles the caller skipped are not replayed.
func (l *EventLog) ReplayCycle(c int, p Probe) {
	for l.cursor < len(l.events) && l.events[l.cursor].Cycle <= c {
		ev := &l.events[l.cursor]
		l.cursor++
		if ev.Cycle < c {
			continue
		}
		switch ev.Kind {
		case EvInject:
			p.Inject(ev.Cycle, ev.ID, ev.U, ev.V, ev.Flag)
		case EvEnqueue:
			p.Enqueue(ev.Cycle, ev.ID, ev.U, ev.V, ev.A)
		case EvHop:
			p.Hop(ev.Cycle, ev.ID, ev.U, ev.V, ev.A, ev.B)
		case EvDeliver:
			p.Deliver(ev.Cycle, ev.ID, ev.U, ev.A, ev.Flag)
		case EvDrop:
			p.Drop(ev.Cycle, ev.ID, ev.U, ev.Reason)
		case EvFault:
			p.Fault(ev.Cycle, ev.U, ev.V, ev.Flag, ev.Flag2)
		case EvReroute:
			p.Reroute(ev.Cycle, ev.U, ev.A)
		}
	}
}

// Reset drops all buffered events and rewinds the cursor, keeping the
// backing array for the next window.
func (l *EventLog) Reset() {
	l.events = l.events[:0]
	l.cursor = 0
}

// Tick is dropped: the replaying coordinator emits the canonical Ticks.
func (l *EventLog) Tick(int) {}

func (l *EventLog) Inject(cycle int, id int64, src, dst int64, measured bool) {
	l.events = append(l.events, Event{Kind: EvInject, Cycle: cycle, ID: id, U: src, V: dst, Flag: measured})
}

func (l *EventLog) Enqueue(cycle int, id int64, at, next int64, qlen int) {
	l.events = append(l.events, Event{Kind: EvEnqueue, Cycle: cycle, ID: id, U: at, V: next, A: qlen})
}

func (l *EventLog) Hop(cycle int, id int64, from, to int64, occupy, qlen int) {
	l.events = append(l.events, Event{Kind: EvHop, Cycle: cycle, ID: id, U: from, V: to, A: occupy, B: qlen})
}

func (l *EventLog) Deliver(cycle int, id int64, node int64, latency int, measured bool) {
	l.events = append(l.events, Event{Kind: EvDeliver, Cycle: cycle, ID: id, U: node, A: latency, Flag: measured})
}

func (l *EventLog) Drop(cycle int, id int64, at int64, reason DropReason) {
	l.events = append(l.events, Event{Kind: EvDrop, Cycle: cycle, ID: id, U: at, Reason: reason})
}

func (l *EventLog) Fault(cycle int, u, v int64, node, down bool) {
	l.events = append(l.events, Event{Kind: EvFault, Cycle: cycle, U: u, V: v, Flag: node, Flag2: down})
}

func (l *EventLog) Reroute(cycle int, dst int64, lag int) {
	l.events = append(l.events, Event{Kind: EvReroute, Cycle: cycle, U: dst, A: lag})
}
