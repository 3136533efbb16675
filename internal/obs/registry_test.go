package obs

// Tests for the concurrency-safe metrics registry: exact totals under
// goroutine hammering (run under -race in CI), create-on-first-use
// identity, expvar publication idempotence, and the manifest's JSON shape.

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentExactTotals hammers one counter, one gauge, and one
// histogram from many goroutines and requires exact totals: neither the
// atomics nor the histogram's lock lose an update.
func TestRegistryConcurrentExactTotals(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("events")
			g := reg.Gauge("level")
			h := reg.Hist("latency")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 257))
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	if got := reg.Counter("events").Value(); got != total {
		t.Fatalf("counter lost updates: %d, want %d", got, total)
	}
	if got := reg.Gauge("level").Value(); got != total {
		t.Fatalf("gauge lost updates: %d, want %d", got, total)
	}
	snap := reg.Hist("latency").Snapshot()
	if snap.Count() != total {
		t.Fatalf("histogram lost observations: %d, want %d", snap.Count(), total)
	}
	// Each worker observes 0..256 cyclically, so the exact sum is known.
	var perWorkerSum int64
	for i := 0; i < perWorker; i++ {
		perWorkerSum += int64(i % 257)
	}
	wantMean := float64(workers*perWorkerSum) / float64(total)
	if snap.Mean() != wantMean {
		t.Fatalf("histogram mean %v, want %v", snap.Mean(), wantMean)
	}
	if snap.max != 256 {
		t.Fatalf("histogram max %d, want 256", snap.max)
	}
	// A snapshot is a copy: later observations leave its buckets alone.
	p50 := snap.Quantile(0.5)
	for i := 0; i < 1000; i++ {
		reg.Hist("latency").Observe(0)
	}
	if got := snap.Quantile(0.5); got != p50 {
		t.Fatalf("snapshot p50 moved from %v to %v after later observations", p50, got)
	}
}

// TestRegistryIdentityAndNames checks create-on-first-use semantics: the
// same name always returns the same metric object, and Snapshot keys every
// metric of all three kinds by its name.
func TestRegistryIdentityAndNames(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("c") != reg.Counter("c") {
		t.Fatal("counter identity broken")
	}
	if reg.Gauge("b") != reg.Gauge("b") {
		t.Fatal("gauge identity broken")
	}
	if reg.Hist("a") != reg.Hist("a") {
		t.Fatal("hist identity broken")
	}

	reg.Counter("c").Add(7)
	reg.Gauge("b").Set(-3)
	reg.Hist("a").Observe(4)
	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want [a b c]: %v", len(snap), snap)
	}
	if snap["c"] != int64(7) || snap["b"] != int64(-3) {
		t.Fatalf("snapshot values wrong: %v", snap)
	}
	hs, ok := snap["a"].(map[string]any)
	if !ok || hs["count"] != int64(1) || hs["max"] != 4 {
		t.Fatalf("hist snapshot wrong: %#v", snap["a"])
	}
}

// TestRegistryPublishExpvar checks that publication is idempotent — expvar
// panics on duplicate names, so re-publishing (same or different registry)
// must be a no-op instead of a crash.
func TestRegistryPublishExpvar(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Add(2)
	reg.PublishExpvar("obs_test_registry")
	reg.PublishExpvar("obs_test_registry")           // same registry again
	NewRegistry().PublishExpvar("obs_test_registry") // different registry, same name
}

// TestManifestJSON pins the manifest's JSON shape: stable keys, omitted
// empties, router block present when set.
func TestManifestJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("delivered").Add(12)
	m := Manifest{
		Run:     "sym-HSN(2;Q3) (implicit)",
		Config:  map[string]any{"rate": 0.01},
		Seed:    42,
		Stats:   struct{ Injected int }{12},
		Router:  &RouterStats{CacheHits: 9, CacheMisses: 3},
		Metrics: reg.Snapshot(),
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"run", "config", "seed", "stats", "router", "metrics"} {
		if _, ok := back[key]; !ok {
			t.Fatalf("manifest missing %q:\n%s", key, buf.String())
		}
	}
	if _, ok := back["percentiles"]; ok {
		t.Fatalf("empty percentiles not omitted:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "\n  ") {
		t.Fatal("manifest should be indented")
	}
}
