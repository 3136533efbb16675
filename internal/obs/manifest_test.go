package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchkit"
)

// TestFlattenKeys: every numeric leaf of every manifest section lands under
// its dotted path, live structs and decoded JSON alike, and stats carrying
// router counters gain the derived router.CacheHitRate.
func TestFlattenKeys(t *testing.T) {
	type stats struct {
		Injected   int         `json:"Injected"`
		AvgLatency float64     `json:"AvgLatency"`
		Name       string      `json:"Name"` // non-numeric: skipped
		Router     RouterStats `json:"Router"`
	}
	r := RouterStats{CacheHits: 75, CacheMisses: 25}
	r.DetourDepth[2] = 9
	m := Manifest{
		Run:         "X",
		Stats:       stats{Injected: 100, AvgLatency: 12.5, Name: "x", Router: r},
		Percentiles: map[string]float64{"p99": 31.5},
		Metrics: map[string]any{
			"delivered": 99,
			"latency":   map[string]any{"p95": 30.0},
		},
	}
	flat := m.Flatten()
	want := map[string]float64{
		"stats.Injected":             100,
		"stats.AvgLatency":           12.5,
		"percentiles.p99":            31.5,
		"stats.Router.CacheHits":     75,
		"stats.Router.CacheMisses":   25,
		"router.CacheHitRate":        0.75,
		"stats.Router.DetourDepth.2": 9,
		"metrics.delivered":          99,
		"metrics.latency.p95":        30,
	}
	for k, v := range want {
		if got, ok := flat[k]; !ok || got != v {
			t.Errorf("flat[%q] = %v (present %v), want %v", k, got, ok, v)
		}
	}
	if _, ok := flat["stats.Name"]; ok {
		t.Error("non-numeric leaf stats.Name should not flatten")
	}
	if _, ok := (Manifest{Stats: map[string]any{"Injected": 1}}).Flatten()["router.CacheHitRate"]; ok {
		t.Error("stats without router counters should not gain router.CacheHitRate")
	}
}

// TestFlattenEmptyManifest: nothing to flatten is an empty map, not a panic.
func TestFlattenEmptyManifest(t *testing.T) {
	if flat := (Manifest{Run: "empty"}).Flatten(); len(flat) != 0 {
		t.Fatalf("empty manifest flattened to %v", flat)
	}
}

// TestManifestRoundTrip: WriteJSON then ReadManifestFile preserves env and
// samples, and the loaded manifest (stats now a map) flattens to the same
// keys as the live one.
func TestManifestRoundTrip(t *testing.T) {
	env := benchkit.Env{GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 4, NumCPU: 4, CPU: "test"}
	m := Manifest{
		Run:    "HSN(2;Q3)",
		Config: map[string]any{"ratio": 4},
		Seed:   7,
		Stats:  map[string]any{"AvgLatency": 12.5},
		Env:    &env,
		Samples: []map[string]float64{
			{"stats.AvgLatency": 12.4},
			{"stats.AvgLatency": 12.6},
		},
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Run != m.Run || got.Seed != m.Seed {
		t.Fatalf("round trip lost identity: %+v", got)
	}
	if got.Env == nil || *got.Env != env {
		t.Fatalf("round trip lost env: %+v", got.Env)
	}
	if len(got.Samples) != 2 || got.Samples[1]["stats.AvgLatency"] != 12.6 {
		t.Fatalf("round trip lost samples: %+v", got.Samples)
	}
	if flat := got.Flatten(); flat["stats.AvgLatency"] != 12.5 {
		t.Fatalf("loaded manifest flattens to %v", flat)
	}
	if _, err := ReadManifestFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
}
