package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestLatencyHistQuantiles(t *testing.T) {
	h := &LatencyHist{}
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for v := 1; v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 || h.max != 100 {
		t.Fatalf("count %d max %d", h.Count(), h.max)
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean %v, want exact 50.5 (tracked outside buckets)", h.Mean())
	}
	p50, p95, p99, max := h.Summary()
	if !(p50 <= p95 && p95 <= p99 && p99 <= float64(max)) {
		t.Fatalf("quantiles out of order: %v %v %v %d", p50, p95, p99, max)
	}
	// Log-bucket interpolation bounds the error by the bucket width: the
	// median of 1..100 lies in bucket [32,63].
	if p50 < 32 || p50 > 63 {
		t.Fatalf("p50 = %v outside its bucket [32,63]", p50)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("Quantile(1) = %v, want the max 100", q)
	}
	if q := h.Quantile(0); q > 1 {
		t.Fatalf("Quantile(0) = %v, want the low bucket", q)
	}
	// Out-of-range q is clamped, negative latencies observed as 0.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("q clamping broken")
	}
	h.Observe(-5)
	if h.Quantile(0) != 0 {
		t.Fatal("negative latency should clamp into bucket 0")
	}
}

func TestLatencyHistDeliverHookFiltersUnmeasured(t *testing.T) {
	h := &LatencyHist{}
	h.Deliver(10, 1, 0, 7, true)
	h.Deliver(11, 2, 0, 9, false) // warmup traffic: ignored
	if h.Count() != 1 || h.max != 7 {
		t.Fatalf("unmeasured delivery leaked into the histogram: %+v", h)
	}
}

func TestLatencyHistWriteText(t *testing.T) {
	h := &LatencyHist{}
	var empty bytes.Buffer
	if err := h.WriteText(&empty); err != nil || !strings.Contains(empty.String(), "no samples") {
		t.Fatalf("empty render: %v %q", err, empty.String())
	}
	for v := 0; v < 40; v++ {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := h.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "p95=") {
		t.Fatalf("histogram render missing bars or footer:\n%s", out)
	}
}

func TestMultiComposition(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi must collapse to nil (keeps the simulator fast path)")
	}
	h := &LatencyHist{}
	if Multi(nil, h) != Probe(h) {
		t.Fatal("single-probe Multi must unwrap")
	}
	h2 := &LatencyHist{}
	m := Multi(h, h2)
	m.Deliver(5, 1, 0, 3, true)
	if h.Count() != 1 || h2.Count() != 1 {
		t.Fatal("Multi did not fan out Deliver")
	}
}

func TestProgressTicker(t *testing.T) {
	var buf bytes.Buffer
	p := &Progress{Every: 100, W: &buf}
	p.Inject(0, 1, 0, 1, true)
	p.Deliver(3, 1, 1, 3, true)
	p.Drop(6, 2, 0, DropNoRoute)
	p.Tick(0) // cycle 0 never prints
	p.Tick(50)
	if buf.Len() != 0 {
		t.Fatalf("printed off-period: %q", buf.String())
	}
	p.Tick(100)
	line := buf.String()
	if !strings.Contains(line, "cycle 100") || !strings.Contains(line, "injected 1") ||
		!strings.Contains(line, "delivered 1") || !strings.Contains(line, "dropped 1") {
		t.Fatalf("progress line %q", line)
	}
	// Nil writer / zero Every must never panic.
	(&Progress{}).Tick(100)
}

func TestDropReasonStrings(t *testing.T) {
	for r, want := range map[DropReason]string{
		DropNoRoute: "no-route", DropHopLimit: "hop-limit",
		DropDeadRouter: "dead-router", DropQueueKilled: "queue-killed",
		DropReason(99): "drop(99)",
	} {
		if r.String() != want {
			t.Fatalf("DropReason(%d) = %q, want %q", r, r.String(), want)
		}
	}
}

func TestTraceSamplingAndJSON(t *testing.T) {
	tr := &Trace{SampleEvery: 2}
	tr.Inject(0, 1, 0, 3, true) // id 1: not sampled
	tr.Inject(0, 2, 1, 3, true) // id 2: sampled
	tr.Hop(1, 2, 1, 2, 1, 0)
	tr.Deliver(2, 2, 3, 2, true)
	tr.Drop(3, 1, 0, DropNoRoute) // unsampled: ignored
	tr.Fault(5, 0, 1, false, true)
	tr.Inject(6, 4, 1, 3, true)
	tr.Drop(7, 4, 1, DropNoRoute)
	if tr.Len() != 6 {
		t.Fatalf("recorded %d events, want 6 (sampling filter broken)", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	// 6 events + 2 process-name metadata records.
	if len(parsed.TraceEvents) != 8 {
		t.Fatalf("JSON holds %d events, want 8", len(parsed.TraceEvents))
	}
	if parsed.TraceEvents[0]["ph"] != "M" {
		t.Fatal("metadata must lead the stream")
	}
}

func TestTimeSeriesSnapshotsAndExports(t *testing.T) {
	// 4-node ring split into modules {0,1} and {2,3}.
	moduleOf := func(u int64) int64 { return u / 2 }
	ts := NewTimeSeries(moduleOf, 10)
	// Cycle 3: packet 7 queues on 0->1 (on-module) and transmits for 2
	// cycles; packet 8 queues on 1->2 (off-module).
	ts.Tick(3)
	ts.Enqueue(3, 7, 0, 1, 1)
	ts.Hop(3, 7, 0, 1, 2, 0)
	ts.Enqueue(3, 8, 1, 2, 1)
	ts.Tick(10) // window [0,10) snapshots
	ts.Hop(12, 8, 1, 2, 1, 0)
	ts.Tick(14)
	ts.Flush() // partial window [10,15)
	if ts.TotalBusy() != 3 {
		t.Fatalf("total busy %d, want 3", ts.TotalBusy())
	}
	if ts.ObservedCycles() != 15 {
		t.Fatalf("observed %d cycles, want 15", ts.ObservedCycles())
	}
	top := ts.TopLinks(1)
	if len(top) != 1 || top[0].U != 0 || top[0].V != 1 || top[0].Busy != 2 || top[0].OffModule {
		t.Fatalf("top link wrong: %+v", top)
	}
	all := ts.TopLinks(0)
	if len(all) != 2 { // only the two links that saw traffic are tracked
		t.Fatalf("TopLinks(0) returned %d links, want the 2 active ones", len(all))
	}
	var linkCSV, jsonl bytes.Buffer
	if err := ts.WriteCSV(&linkCSV); err != nil {
		t.Fatal(err)
	}
	if err := ts.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(linkCSV.String(), "0,1,false,0,2") {
		t.Fatalf("link CSV missing the 0->1 window row:\n%s", linkCSV.String())
	}
	// The off-module 1->2 link is flagged and its queue sampled.
	if !strings.Contains(linkCSV.String(), "10,10,1,2,true,1,0") {
		t.Fatalf("link CSV missing the off-module 1->2 window row:\n%s", linkCSV.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(jsonl.String()), "\n") {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("JSONL line %q: %v", line, err)
		}
		if row["kind"] != "link" {
			t.Fatalf("JSONL row is not a link row: %q", line)
		}
	}
	// Flush is idempotent.
	before := ts.TotalBusy()
	ts.Flush()
	if ts.TotalBusy() != before {
		t.Fatal("second Flush changed totals")
	}
}

func TestTimeSeriesLazyAllocationAndWideIDs(t *testing.T) {
	// No module map, ids far beyond 2^31: the collector allocates link state
	// on first sight and never truncates.
	ts := NewTimeSeries(nil, 5)
	const big = int64(1) << 40
	ts.Enqueue(1, 1, big, big+1, 1)
	ts.Hop(1, 1, big, big+1, 1, 0)
	ts.Flush()
	if ts.TotalBusy() != 1 {
		t.Fatalf("busy %d, want 1", ts.TotalBusy())
	}
	top := ts.TopLinks(0)
	if len(top) != 1 || top[0].U != big || top[0].V != big+1 || top[0].OffModule {
		t.Fatalf("wide-id link load wrong: %+v", top)
	}
}
