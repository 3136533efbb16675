package obs

// Tests for the module-aggregated collector: event folding into modules,
// the intra/inter link-class split, the queued-gauge conservation
// discipline, TopModules ordering, export formats, and the memory bound
// (state per active module, not per node or link).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// TestModuleSeriesFoldsEvents drives a hand-built event sequence and checks
// every aggregate: two modules (ids u/10), one intra-module hop, one
// inter-module hop, injection and delivery attribution, and the queued
// gauge returning to zero once everything delivered.
func TestModuleSeriesFoldsEvents(t *testing.T) {
	ms := NewModuleSeries(func(u int64) int64 { return u / 10 }, 4)

	// Packet 1: injected at 3, hops 3 -> 5 (intra mod 0), 5 -> 12 (inter),
	// delivered at 12 (mod 1).
	ms.Tick(0)
	ms.Inject(0, 1, 3, 12, true)
	ms.Enqueue(0, 1, 3, 5, 0)
	ms.Tick(1)
	ms.Hop(1, 1, 3, 5, 1, 0)
	ms.Enqueue(1, 1, 5, 12, 0)
	ms.Tick(2)
	ms.Hop(2, 1, 5, 12, 4, 0) // off-module link: 4 busy cycles
	ms.Tick(3)
	ms.Deliver(3, 1, 12, 3, true)
	ms.Flush()

	if got := ms.ActiveModules(); got != 2 {
		t.Fatalf("ActiveModules = %d, want 2", got)
	}
	if got := moduleBusy(ms); got != 5 {
		t.Fatalf("TotalBusy = %d, want 1 intra + 4 inter", got)
	}
	top := ms.TopModules(0)
	if len(top) != 2 || top[0].Module != 0 {
		t.Fatalf("TopModules = %+v, want module 0 hottest", top)
	}
	m0 := top[0]
	if m0.IntraHops != 1 || m0.InterHops != 1 || m0.IntraBusy != 1 || m0.InterBusy != 4 ||
		m0.Injected != 1 || m0.Delivered != 0 {
		t.Fatalf("module 0 aggregates wrong: %+v", m0)
	}
	m1 := top[1]
	if m1.IntraHops != 0 || m1.InterHops != 0 || m1.Injected != 0 || m1.Delivered != 1 {
		t.Fatalf("module 1 aggregates wrong: %+v", m1)
	}
}

// TestModuleSeriesQueueConservation checks the queued gauge: enqueues minus
// hops minus queue kills, per module, with the gauge zero once traffic
// drains and negative never exported mid-run for a well-formed sequence.
func TestModuleSeriesQueueConservation(t *testing.T) {
	ms := NewModuleSeries(func(u int64) int64 { return u % 2 }, 2)
	// Two packets through module 0, one killed in queue.
	ms.Enqueue(0, 1, 2, 4, 0)
	ms.Enqueue(0, 2, 2, 4, 1)
	ms.Tick(1)
	ms.Hop(1, 1, 2, 4, 1, 1)
	ms.Drop(1, 2, 2, DropQueueKilled)
	ms.Drop(1, 3, 2, DropHopLimit) // non-queue drop must not touch the gauge
	ms.Flush()
	var buf bytes.Buffer
	if err := ms.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Every exported queued value for module 0 must be the running gauge;
	// after the hop and the kill it is zero, so no row shows a residue.
	sc := bufio.NewScanner(&buf)
	sc.Scan() // header
	for sc.Scan() {
		f := strings.Split(sc.Text(), ",")
		if f[3] != "0" {
			t.Fatalf("queued residue exported: %q", sc.Text())
		}
	}
}

// TestModuleSeriesExports checks both export formats agree with each other
// and with the aggregates: CSV rows parse back to the JSONL rows, busy
// columns sum to the modules' busy cycles, and idle modules are omitted.
func TestModuleSeriesExports(t *testing.T) {
	ms := NewModuleSeries(func(u int64) int64 { return u / 4 }, 2)
	for c := 0; c < 10; c++ {
		ms.Tick(c)
		ms.Enqueue(c, int64(c), int64(c%8), int64((c+1)%8), 0)
		ms.Hop(c, int64(c), int64(c%8), int64((c+1)%8), 1+c%3, 0)
	}
	ms.Flush()

	var csv, jsonl bytes.Buffer
	if err := ms.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := ms.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "cycle,width,module,queued,intrabusy,interbusy,injected,delivered" {
		t.Fatalf("CSV header changed: %q", lines[0])
	}
	var busySum int64
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if len(f) != 8 {
			t.Fatalf("CSV row has %d fields: %q", len(f), l)
		}
		intra, err := strconv.ParseInt(f[4], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		inter, err := strconv.ParseInt(f[5], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		busySum += intra + inter
	}
	if busySum != moduleBusy(ms) {
		t.Fatalf("exported busy %d != module busy %d", busySum, moduleBusy(ms))
	}

	var jsonRows int
	dec := json.NewDecoder(&jsonl)
	for dec.More() {
		var row map[string]any
		if err := dec.Decode(&row); err != nil {
			t.Fatal(err)
		}
		if row["kind"] != "moduleagg" {
			t.Fatalf("JSONL row kind = %v", row["kind"])
		}
		jsonRows++
	}
	if jsonRows != len(lines)-1 {
		t.Fatalf("JSONL has %d rows, CSV %d", jsonRows, len(lines)-1)
	}
}

// TestModuleSeriesMemoryBoundedByModules is the memory-bound check: a wide
// id space folded into few modules keeps state per module, and nil moduleOf
// degrades to a single module instead of panicking.
func TestModuleSeriesMemoryBoundedByModules(t *testing.T) {
	ms := NewModuleSeries(func(u int64) int64 { return (u >> 40) & 3 }, 8)
	for i := 0; i < 4096; i++ {
		u := int64(i) << 40 // ids far past int32
		ms.Inject(i, int64(i), u, u+1, true)
		ms.Enqueue(i, int64(i), u, u+1, 0)
		ms.Hop(i, int64(i), u, u+1, 1, 0)
		ms.Deliver(i, int64(i), u+1, 1, true)
	}
	if got := ms.ActiveModules(); got != 4 {
		t.Fatalf("4096 distinct nodes folded into %d modules, want 4", got)
	}

	all := NewModuleSeries(nil, 8)
	all.Inject(0, 1, int64(1)<<40, 2, true)
	if got := all.ActiveModules(); got != 1 {
		t.Fatalf("nil moduleOf should fold everything into one module, got %d", got)
	}
}

// moduleBusy sums the busy cycles of both link classes over every module.
func moduleBusy(ms *ModuleSeries) int64 {
	var sum int64
	for _, m := range ms.TopModules(0) {
		sum += m.IntraBusy + m.InterBusy
	}
	return sum
}
