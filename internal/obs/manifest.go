// The run manifest: one machine-readable JSON record per run, and the
// helpers that make two manifests comparable. A manifest captures what was
// simulated (config and seed), what came out (the simulator's result,
// router telemetry included, and latency percentiles), whatever the process
// accumulated in its registry, where the run happened (benchkit env
// metadata: go version, CPU model, commit+dirty) and
// repeated-run samples so cmd/obsdiff can apply the same Mann-Whitney
// significance discipline to simulation behavior that cmd/bench applies to
// ns/op.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/benchkit"
)

// Manifest is the machine-readable record of one run: what was simulated
// (config and seed), what came out (the simulator's result, whose Router
// field holds the router telemetry, and the latency percentiles), and
// whatever the process accumulated in its registry. cmd/simulate writes one
// per (ratio, rate) combination under -manifest; cmd/ipgen writes one per
// build under -manifest.
type Manifest struct {
	Run         string             `json:"run"`
	Config      map[string]any     `json:"config,omitempty"`
	Seed        int64              `json:"seed"`
	Stats       any                `json:"stats,omitempty"`
	Percentiles map[string]float64 `json:"percentiles,omitempty"`
	Metrics     map[string]any     `json:"metrics,omitempty"`
	// Env records where the run happened (go version, CPU model, commit
	// with a -dirty flag, host) so a manifest is attributable to a machine
	// and commit the way BENCH_*.json records already are, and so
	// cmd/obsdiff can refuse apples-to-oranges comparisons (EnvMismatch).
	Env *benchkit.Env `json:"env,omitempty"`
	// Samples holds one flattened scalar-metric map per repeat of the run
	// (see Flatten for the key scheme). A single run records one sample; a
	// repeated run (cmd/simulate -repeat) records one per seed, giving
	// cmd/obsdiff real distributions for its rank test instead of a
	// median-only comparison.
	Samples []map[string]float64 `json:"samples,omitempty"`
}

// WriteJSON writes the manifest as indented JSON.
func (m Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadManifestFile loads one manifest from a JSON file written by
// Manifest.WriteJSON.
func ReadManifestFile(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("obs: %s: %w", path, err)
	}
	return m, nil
}

// Flatten projects every numeric value reachable from the manifest into one
// flat metric map, keyed by dotted path: "stats.AvgLatency",
// "percentiles.p99", "stats.Router.CacheHits", "metrics.latency.p95",
// "stats.Router.DetourDepth.0". The projection goes through a JSON
// round-trip, so it works identically on a live manifest (Stats holding a
// struct) and on one loaded from disk (Stats holding map[string]any), and
// non-numeric leaves are simply skipped. When the stats carry router
// counters, the derived "router.CacheHitRate" is added because the rate,
// not the raw counters, is the comparable quantity.
func (m Manifest) Flatten() map[string]float64 {
	out := map[string]float64{}
	flattenJSON("stats", m.Stats, out)
	for k, v := range m.Percentiles {
		out["percentiles."+k] = v
	}
	if hits, ok := out["stats.Router.CacheHits"]; ok {
		rs := RouterStats{CacheHits: uint64(hits), CacheMisses: uint64(out["stats.Router.CacheMisses"])}
		out["router.CacheHitRate"] = rs.CacheHitRate()
	}
	if m.Metrics != nil {
		flattenJSON("metrics", m.Metrics, out)
	}
	return out
}

// flattenJSON round-trips v through JSON and records every numeric leaf
// under prefix. Marshal errors flatten to nothing rather than failing: a
// manifest section that cannot serialize has nothing comparable in it.
func flattenJSON(prefix string, v any, out map[string]float64) {
	if v == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	var decoded any
	if err := json.Unmarshal(data, &decoded); err != nil {
		return
	}
	flattenValue(prefix, decoded, out)
}

func flattenValue(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case float64:
		out[prefix] = t
	case map[string]any:
		for k, e := range t {
			flattenValue(prefix+"."+k, e, out)
		}
	case []any:
		for i, e := range t {
			flattenValue(fmt.Sprintf("%s.%d", prefix, i), e, out)
		}
	}
}
