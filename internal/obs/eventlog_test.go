package obs

import (
	"fmt"
	"reflect"
	"testing"
)

// echoProbe records a compact string per event, for replay-order checks.
type echoProbe struct{ got []string }

func (e *echoProbe) Tick(c int) { e.got = append(e.got, fmt.Sprintf("tick:%d", c)) }
func (e *echoProbe) Inject(c int, id int64, src, dst int64, m bool) {
	e.got = append(e.got, fmt.Sprintf("inject:%d:%d:%d:%d:%v", c, id, src, dst, m))
}
func (e *echoProbe) Enqueue(c int, id int64, at, next int64, q int) {
	e.got = append(e.got, fmt.Sprintf("enqueue:%d:%d:%d:%d:%d", c, id, at, next, q))
}
func (e *echoProbe) Hop(c int, id int64, from, to int64, occ, q int) {
	e.got = append(e.got, fmt.Sprintf("hop:%d:%d:%d:%d:%d:%d", c, id, from, to, occ, q))
}
func (e *echoProbe) Deliver(c int, id int64, node int64, lat int, m bool) {
	e.got = append(e.got, fmt.Sprintf("deliver:%d:%d:%d:%d:%v", c, id, node, lat, m))
}
func (e *echoProbe) Drop(c int, id int64, at int64, r DropReason) {
	e.got = append(e.got, fmt.Sprintf("drop:%d:%d:%d:%s", c, id, at, r))
}
func (e *echoProbe) Fault(c int, u, v int64, node, down bool) {
	e.got = append(e.got, fmt.Sprintf("fault:%d:%d:%d:%v:%v", c, u, v, node, down))
}

// TestEventLogReplayCycle checks that a buffered stream replays exactly, in
// order, cycle by cycle — with Ticks dropped at record time (the replaying
// coordinator owns the clock) — and that Reset rewinds for the next window.
func TestEventLogReplayCycle(t *testing.T) {
	l := &EventLog{}
	// A window's worth of events, cycles 0..2, every kind represented.
	l.Tick(0) // must be dropped
	l.Inject(0, 1, 2, 3, true)
	l.Enqueue(0, 1, 2, 5, 4)
	l.Hop(1, 1, 2, 5, 6, 3)
	l.Fault(1, 9, -1, true, true)
	l.Drop(1, 1, 9, DropDeadRouter)
	l.Deliver(2, 7, 3, 11, false)
	if l.Len() != 6 {
		t.Fatalf("Len = %d, want 6 (Tick must not be buffered)", l.Len())
	}

	e := &echoProbe{}
	for c := 0; c < 3; c++ {
		e.Tick(c)
		l.ReplayCycle(c, e)
	}
	want := []string{
		"tick:0", "inject:0:1:2:3:true", "enqueue:0:1:2:5:4",
		"tick:1", "hop:1:1:2:5:6:3", "fault:1:9:-1:true:true", "drop:1:1:9:dead-router",
		"tick:2", "deliver:2:7:3:11:false",
	}
	if !reflect.DeepEqual(e.got, want) {
		t.Fatalf("replay order:\n got %q\nwant %q", e.got, want)
	}

	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Len after Reset = %d", l.Len())
	}
	l.Deliver(3, 8, 4, 2, true)
	e2 := &echoProbe{}
	l.ReplayCycle(3, e2)
	if want := []string{"deliver:3:8:4:2:true"}; !reflect.DeepEqual(e2.got, want) {
		t.Fatalf("post-Reset replay: got %q, want %q", e2.got, want)
	}
}

// TestRouterStatsAdd pins the lane-merge semantics: every counter sums,
// including the CacheOccupancy gauge (lanes own separate routers, so the
// total cached population is the meaningful run-level value).
func TestRouterStatsAdd(t *testing.T) {
	a := RouterStats{CacheHits: 3, CacheMisses: 1, CacheOccupancy: 5, Reroutes: 2, DetourHops: 7}
	a.DetourDepth[0] = 2
	b := RouterStats{CacheHits: 10, CacheEvicted: 4, CacheOccupancy: 6, EpochPurges: 1}
	b.DetourDepth[0] = 1
	b.DetourDepth[3] = 5
	sum := a.Add(b)
	want := RouterStats{CacheHits: 13, CacheMisses: 1, CacheEvicted: 4, CacheOccupancy: 11,
		EpochPurges: 1, Reroutes: 2, DetourHops: 7}
	want.DetourDepth[0] = 3
	want.DetourDepth[3] = 5
	if sum != want {
		t.Fatalf("Add:\n got %+v\nwant %+v", sum, want)
	}
}
