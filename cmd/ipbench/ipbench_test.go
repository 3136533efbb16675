package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/superip"
	"repro/internal/topo"
)

// small holds a shrunk copy of every workload, keyed by the same names, so
// the tests exercise each workload's code in milliseconds.
var small = map[string]workload{
	"route-symhsn45": routeWorkload{L: 3, NucleusDim: 3, Pairs: 300},
	"build-symhsn35": buildWorkload{L: 2, NucleusDim: 3, Workers: 2},
	"sim-hsn25-uniform": simWorkload{
		L: 2, NucleusDim: 3, Rate: 0.05, OffModulePeriod: 4, Warmup: 50, Measure: 200,
	},
	"sim-q14-ecube": simWorkload{
		CubeDim: 6, SubcubeLow: 2, Rate: 0.05, OffModulePeriod: 2, Warmup: 50, Measure: 200,
	},
	"sim-hsn25-faults-sharded": shardedWorkload{
		L: 2, NucleusDim: 3, Lanes: 4, Shards: 2, Rate: 0.05, OffModulePeriod: 4,
		Warmup: 50, Measure: 300, MTBF: 10, RepairTime: 60, MaxFaults: 30,
	},
}

func runRound(t *testing.T, name string, seed int64, traced bool) outcome {
	t.Helper()
	round, err := small[name].prepare(seed)
	if err != nil {
		t.Fatalf("%s: prepare: %v", name, err)
	}
	var origin *time.Time
	if traced {
		now := time.Now()
		origin = &now
	}
	o, err := round(origin)
	if err != nil {
		t.Fatalf("%s: round (traced %v): %v", name, traced, err)
	}
	if o.ops == 0 || o.attempted == 0 || o.failed != 0 {
		t.Fatalf("%s: %d ops, %d attempted, %d failed", name, o.ops, o.attempted, o.failed)
	}
	return o
}

func TestSameSeedSameDigest(t *testing.T) {
	for name := range small {
		a, b := runRound(t, name, 7, false), runRound(t, name, 7, false)
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a.digest, b.digest)
		}
		if _, build := small[name].(buildWorkload); build {
			continue // the build has no seeded inputs
		}
		if c := runRound(t, name, 8, false); c.digest == a.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a.digest)
		}
	}
}

// TestTracedEqualsUntraced checks that wrapping the layer interfaces changes
// no output, and that the traced round attributes its time to layers.
func TestTracedEqualsUntraced(t *testing.T) {
	for name := range small {
		plain, traced := runRound(t, name, 3, false), runRound(t, name, 3, true)
		if plain.digest != traced.digest {
			t.Errorf("%s: untraced digest %s, traced %s", name, plain.digest, traced.digest)
		}
		share := 0.0
		for k, v := range traced.layers {
			if strings.HasSuffix(k, "share") {
				share += v
			}
		}
		if share < 0.9 || share > 1.05 {
			t.Errorf("%s: layer shares sum to %.3f of the traced wall time", name, share)
		}
	}
}

// TestFaultsExerciseRerouting pins that the sharded workload's fault plan
// actually reaches the fault-aware router: without epoch purges and
// reroutes it would measure a fault-free run.
func TestFaultsExerciseRerouting(t *testing.T) {
	o := runRound(t, "sim-hsn25-faults-sharded", 1, true)
	for _, k := range []string{"topo.router.epoch_purges", "topo.router.reroutes_per_pkt", "netsim.sharded.speedup_2v1"} {
		if o.layers[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, o.layers[k])
		}
	}
}

func TestCorruptedPathFailsCheck(t *testing.T) {
	net := superip.HSN(3, superip.NucleusHypercube(3)).SymmetricVariant()
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	r, err := topo.NewAlgebraic(net.Super())
	if err != nil {
		t.Fatal(err)
	}
	b := routeBounds{maxHops: net.Diameter(), maxOffModule: net.IDiameter()}
	src, dst := int64(5), imp.N()-3
	p, err := r.Path(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.check(imp, src, dst, p, true); err != nil {
		t.Fatalf("valid route rejected: %v", err)
	}
	nbrs := imp.Neighbors(p[0], nil)
	var far int64 // a node that is not a neighbor of p[0]
	for contains(nbrs, far) || far == p[0] {
		far++
	}
	long := append([]int64(nil), p...)
	for len(long)-1 <= b.maxHops {
		long = append(long, long[len(long)-2], dst) // bounce on the last edge
	}
	corrupt := map[string][]int64{
		"wrong destination": append(append([]int64(nil), p[:len(p)-1]...), dst+1),
		"not an edge":       append([]int64{p[0], far}, p[2:]...),
		"too long":          long,
	}
	for what, q := range corrupt {
		if err := b.check(imp, src, dst, q, true); err == nil {
			t.Errorf("%s: route %v passed its check", what, q)
		}
	}
}

// TestBenchmarkJSONMatchesProgram checks that every workload BENCHMARK.json
// names resolves, here and in its shrunk copy, and that the program reports
// exactly the metrics it lists, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil || small[w.Name] == nil {
			t.Errorf("workload %q does not resolve", w.Name)
		}
	}
	same := func(kind string, json []def, prog []metric) {
		if len(json) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(json), len(prog))
			return
		}
		for i := range json {
			if json[i].Name != prog[i].name || json[i].Unit != prog[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %v, program %v", kind, i, json[i], prog[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestMeasureReportsEveryMetric runs the measurement loop itself on every
// shrunk workload: untraced runs report non-zero end-to-end metrics and
// traced runs report the trace overhead.
func TestMeasureReportsEveryMetric(t *testing.T) {
	for name, w := range small {
		rep, err := measure(w, 1, 0, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range endToEnd {
			if rep.metrics[m.name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m.name, rep.metrics[m.name])
			}
		}
		rep, err = measure(w, 1, 0, true)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if _, ok := rep.metrics["trace.overhead_frac"]; !ok {
			t.Errorf("%s: traced run reports no trace.overhead_frac", name)
		}
	}
}
