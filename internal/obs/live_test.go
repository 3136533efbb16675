package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLiveRingBoundAndEviction is the ring property test: for a grid of
// capacities and push counts, the ring never exceeds its capacity, keeps
// exactly the newest samples, and reports them oldest-to-newest with
// contiguous sequence numbers.
func TestLiveRingBoundAndEviction(t *testing.T) {
	for _, cap := range []int{1, 2, 3, 7, 64} {
		for _, pushes := range []int{0, 1, cap - 1, cap, cap + 1, 3*cap + 2} {
			if pushes < 0 {
				continue
			}
			s := NewLiveServer(NewRegistry(), cap)
			for i := 0; i < pushes; i++ {
				s.Sample(i * 10) // cycle encodes the push index
			}
			hist := s.History()
			want := pushes
			if want > cap {
				want = cap
			}
			if len(hist) != want {
				t.Fatalf("cap=%d pushes=%d: history has %d samples, want %d", cap, pushes, len(hist), want)
			}
			for i, sm := range hist {
				wantSeq := int64(pushes - want + i + 1)
				if sm.Seq != wantSeq {
					t.Fatalf("cap=%d pushes=%d: history[%d].Seq = %d, want %d (oldest-to-newest, newest kept)",
						cap, pushes, i, sm.Seq, wantSeq)
				}
				if wantCycle := int(wantSeq-1) * 10; sm.Cycle != wantCycle {
					t.Fatalf("cap=%d pushes=%d: history[%d].Cycle = %d, want %d", cap, pushes, i, sm.Cycle, wantCycle)
				}
			}
			latest, ok := s.Latest()
			if pushes == 0 {
				if ok {
					t.Fatalf("cap=%d: Latest() reported a sample on an empty ring", cap)
				}
			} else if !ok || latest.Seq != int64(pushes) {
				t.Fatalf("cap=%d pushes=%d: Latest() = (%v, %v), want seq %d", cap, pushes, latest.Seq, ok, pushes)
			}
		}
	}
}

// TestSamplerCadence: the probe samples on cycle 0 and then every `every`
// cycles, nothing in between.
func TestSamplerCadence(t *testing.T) {
	s := NewLiveServer(NewRegistry(), 16)
	p := s.Sampler(3)
	for c := 0; c <= 10; c++ {
		p.Tick(c)
	}
	if got, _ := s.Latest(); got.Seq != 4 { // cycles 0, 3, 6, 9
		t.Fatalf("Sampler(3) over cycles 0..10 took %d samples, want 4", got.Seq)
	}
	hist := s.History()
	for i, wantCycle := range []int{0, 3, 6, 9} {
		if hist[i].Cycle != wantCycle {
			t.Fatalf("sample %d at cycle %d, want %d", i, hist[i].Cycle, wantCycle)
		}
	}
	// every < 1 clamps to 1 rather than dividing by zero.
	s2 := NewLiveServer(NewRegistry(), 16)
	p2 := s2.Sampler(0)
	for c := 0; c < 5; c++ {
		p2.Tick(c)
	}
	if got, _ := s2.Latest(); got.Seq != 5 {
		t.Fatalf("Sampler(0) took %d samples over 5 cycles, want 5", got.Seq)
	}
}

// TestRouterSourceSampled: an attached RouterSource's counters ride along in
// each sample.
func TestRouterSourceSampled(t *testing.T) {
	s := NewLiveServer(NewRegistry(), 4)
	rs := RouterStats{CacheHits: 90, CacheMisses: 10}
	s.RouterSource(func() RouterStats { return rs })
	s.Sample(0)
	sm, _ := s.Latest()
	if sm.Router == nil || sm.Router.CacheHits != 90 {
		t.Fatalf("sample did not capture router stats: %+v", sm.Router)
	}
	if rate := sm.Router.CacheHitRate(); rate != 0.9 {
		t.Fatalf("CacheHitRate = %v, want 0.9", rate)
	}
	s.RouterSource(nil)
	s.Sample(1)
	if sm, _ := s.Latest(); sm.Router != nil {
		t.Fatal("detached RouterSource still sampled")
	}
}

// TestLiveHTTPEndpoints exercises the mux: dashboard HTML, snapshot before
// and after samples exist, and the whole-ring form.
func TestLiveHTTPEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("injected").Add(5)
	s := NewLiveServer(reg, 8)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.Bytes()
	}

	resp, body := get("/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("dashboard: status %d, type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !bytes.Contains(body, []byte("EventSource")) {
		t.Fatal("dashboard HTML does not wire up the SSE stream")
	}

	if resp, _ := get("/snapshot"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty-ring snapshot: status %d, want 404", resp.StatusCode)
	}

	s.Sample(100)
	s.Sample(200)
	resp, body = get("/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	var sm LiveSample
	if err := json.Unmarshal(body, &sm); err != nil {
		t.Fatalf("snapshot is not a LiveSample: %v\n%s", err, body)
	}
	if sm.Seq != 2 || sm.Cycle != 200 {
		t.Fatalf("snapshot = seq %d cycle %d, want the latest (2, 200)", sm.Seq, sm.Cycle)
	}
	if v, ok := sm.Metrics["injected"].(float64); !ok || v != 5 {
		t.Fatalf("snapshot metrics lost the registry counter: %v", sm.Metrics)
	}

	resp, body = get("/snapshot?all=1")
	var ring []LiveSample
	if err := json.Unmarshal(body, &ring); err != nil || len(ring) != 2 {
		t.Fatalf("?all=1 returned %d samples (err %v), want 2", len(ring), err)
	}

	if resp, _ := get("/debug/vars"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: status %d", resp.StatusCode)
	}
	if resp, _ := get("/no-such-page"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: status %d, want 404", resp.StatusCode)
	}
}

// readSSE reads SSE events from path until n events arrive or the deadline
// passes, returning the decoded samples.
func readSSE(t *testing.T, url string, n int) []LiveSample {
	t.Helper()
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var out []LiveSample
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() && len(out) < n {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var sm LiveSample
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &sm); err != nil {
			t.Fatalf("bad SSE payload: %v\n%s", err, line)
		}
		out = append(out, sm)
	}
	return out
}

// TestStreamReplayThenLive: a subscriber first receives the ring history,
// then new samples, with no gap and no duplicate at the seam.
func TestStreamReplayThenLive(t *testing.T) {
	s := NewLiveServer(NewRegistry(), 8)
	for c := 0; c < 3; c++ {
		s.Sample(c)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	done := make(chan []LiveSample)
	go func() { done <- readSSE(t, srv.URL+"/stream", 5) }()
	// Give the subscriber a moment to attach, then produce two more samples.
	time.Sleep(50 * time.Millisecond)
	s.Sample(3)
	s.Sample(4)
	got := <-done
	if len(got) != 5 {
		t.Fatalf("stream delivered %d samples, want 5", len(got))
	}
	for i, sm := range got {
		if sm.Seq != int64(i+1) {
			t.Fatalf("stream sample %d has seq %d, want %d (no gaps, no duplicates across the replay seam)", i, sm.Seq, i+1)
		}
	}
}

// TestLiveServerHammer abuses the server from many goroutines at once —
// registry writers, a fast sampler, and concurrent SSE readers — so `go test
// -race` can catch any unsynchronized state. Readers assert that sequence
// numbers only move forward (slow consumers may skip samples, never repeat
// or reorder them) and that the injected counter is monotone.
func TestLiveServerHammer(t *testing.T) {
	reg := NewRegistry()
	injected := reg.Counter("injected")
	queued := reg.Gauge("queued")
	lat := reg.Hist("latency")
	s := NewLiveServer(reg, 32)
	s.RouterSource(func() RouterStats { return RouterStats{CacheHits: uint64(injected.Value())} })
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				injected.Inc()
				queued.Set(int64(i % 100))
				lat.Observe(int64(i%50 + 1))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := 0; !stop.Load(); c++ {
			s.Sample(c)
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			got := readSSE(t, srv.URL+"/stream", 40)
			var lastSeq int64
			var lastInjected float64
			for _, sm := range got {
				if sm.Seq <= lastSeq {
					t.Errorf("seq went backwards: %d after %d", sm.Seq, lastSeq)
					return
				}
				lastSeq = sm.Seq
				if v, ok := sm.Metrics["injected"].(float64); ok {
					if v < lastInjected {
						t.Errorf("injected counter shrank: %v after %v", v, lastInjected)
						return
					}
					lastInjected = v
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	wg.Wait()

	// Interleave Sample with History/Latest readers one more time, directly.
	for i := 0; i < 100; i++ {
		s.Sample(i)
		if h := s.History(); len(h) > 32 {
			t.Fatalf("ring overflowed its capacity: %d", len(h))
		}
	}
}

// TestProgressRateAndETA drives the ticker with a fake clock and captures
// its output: the delivered-rate column comes from the window's wall time,
// the ETA from the remaining cycles at the current pace, and a run draining
// past Total reports "eta drain".
func TestProgressRateAndETA(t *testing.T) {
	var buf bytes.Buffer
	base := time.Unix(1000, 0)
	now := base
	p := &Progress{Every: 100, Total: 300, W: &buf, now: func() time.Time { return now }}

	deliverN := func(n int) {
		for i := 0; i < n; i++ {
			p.Inject(0, 0, 0, 0, true)
			p.Deliver(0, 0, 0, 1, true)
		}
	}

	deliverN(50)
	p.Tick(100) // first window: no previous stamp, so no rate/ETA yet
	now = now.Add(2 * time.Second)
	deliverN(100)
	p.Tick(200) // 100 delivered over 2s = 50/s; 100 cycles left at 100cyc/2s = 2s ETA
	now = now.Add(2 * time.Second)
	deliverN(10)
	p.Tick(300) // at Total: draining

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d progress lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "cycle 100/300") || strings.Contains(lines[0], "/s") {
		t.Errorf("first line should name cycle 100/300 and carry no rate yet: %q", lines[0])
	}
	if !strings.Contains(lines[1], "delivered 150 (50/s)") {
		t.Errorf("second line should report 50/s over the 2s window: %q", lines[1])
	}
	if !strings.Contains(lines[1], "eta 2s") {
		t.Errorf("second line should extrapolate eta 2s: %q", lines[1])
	}
	if !strings.Contains(lines[2], "eta drain") {
		t.Errorf("line at cycle == Total should read \"eta drain\": %q", lines[2])
	}
	for _, l := range lines {
		if !strings.Contains(l, "injected") || !strings.Contains(l, "dropped 0") {
			t.Errorf("counter columns missing: %q", l)
		}
	}
}

// TestProgressDefaultWriter: W == nil must not panic (it writes to stderr).
func TestProgressDefaultWriter(t *testing.T) {
	p := &Progress{Every: 1000000} // large Every: Tick(1) prints nothing
	p.Tick(1)
}
