package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/superip"
	"repro/internal/topo"
)

// recProbe flattens every probe event — Ticks included — into one string
// per event, in arrival order. Two runs with equal recProbe contents
// produced byte-identical instrumented manifests.
type recProbe struct{ lines []string }

func (r *recProbe) add(s string) { r.lines = append(r.lines, s) }

func (r *recProbe) Tick(c int) { r.add(fmt.Sprintf("tick %d", c)) }
func (r *recProbe) Inject(c int, id int64, src, dst int64, m bool) {
	r.add(fmt.Sprintf("inject %d %d %d %d %v", c, id, src, dst, m))
}
func (r *recProbe) Enqueue(c int, id int64, at, next int64, q int) {
	r.add(fmt.Sprintf("enqueue %d %d %d %d %d", c, id, at, next, q))
}
func (r *recProbe) Hop(c int, id int64, from, to int64, occ, q int) {
	r.add(fmt.Sprintf("hop %d %d %d %d %d %d", c, id, from, to, occ, q))
}
func (r *recProbe) Deliver(c int, id int64, node int64, lat int, m bool) {
	r.add(fmt.Sprintf("deliver %d %d %d %d %v", c, id, node, lat, m))
}
func (r *recProbe) Drop(c int, id int64, at int64, reason obs.DropReason) {
	r.add(fmt.Sprintf("drop %d %d %d %s", c, id, at, reason))
}
func (r *recProbe) Fault(c int, u, v int64, node, down bool) {
	r.add(fmt.Sprintf("fault %d %d %d %v %v", c, u, v, node, down))
}
func (r *recProbe) Reroute(c int, dst int64, lag int) {
	r.add(fmt.Sprintf("reroute %d %d %d", c, dst, lag))
}

func shardedHotspot(p float64) func(int64, int64, *rand.Rand) int64 {
	return func(src, n int64, rng *rand.Rand) int64 {
		if rng.Float64() < p {
			return 0 // src==0 returns src and the injection is skipped
		}
		return uniformDst64(src, n, rng)
	}
}

type shardScenario struct {
	name string
	cfg  ShardedConfig // Seed, Shards, Probe filled by the test
}

// shardScenarios builds the determinism grid: four topology families
// (Q6 and Q8 subcube-partitioned hypercubes, HSN(2;Q2) and HSN(2;Q3)
// super-IP graphs) crossed with uniform, hotspot, and faulty traffic.
func shardScenarios(t *testing.T) []shardScenario {
	t.Helper()
	var out []shardScenario

	cube := func(dim, low int, plan *FaultPlan, pattern func(int64, int64, *rand.Rand) int64) ShardedConfig {
		ht := topo.HypercubeTopo{Dim: dim}
		return ShardedConfig{
			NewLane: func() (Topology, Router, FaultSink, error) {
				if plan.Len() == 0 {
					return ht, topo.HypercubeRouter{Dim: dim}, nil, nil
				}
				fs := topo.NewFaultSet()
				return ht, topo.NewFaultAware(ht, topo.HypercubeRouter{Dim: dim}, fs), fs, nil
			},
			Space:           topo.SubcubeSpace{Dim: dim, Low: low},
			InjectionRate:   0.02,
			WarmupCycles:    30,
			MeasureCycles:   120,
			OffModulePeriod: 4,
			Lanes:           8,
			Plan:            plan,
			Pattern:         pattern,
		}
	}
	hsn := func(nucDim int, plan func(*topo.Implicit) *FaultPlan, pattern func(int64, int64, *rand.Rand) int64) ShardedConfig {
		net := superip.HSN(2, superip.NucleusHypercube(nucDim))
		space, err := topo.NewImplicit(net.Super())
		if err != nil {
			t.Fatal(err)
		}
		var p *FaultPlan
		if plan != nil {
			p = plan(space)
		}
		return ShardedConfig{
			NewLane: func() (Topology, Router, FaultSink, error) {
				imp, err := topo.NewImplicit(net.Super())
				if err != nil {
					return nil, nil, nil, err
				}
				air, err := topo.NewAlgebraic(net.Super())
				if err != nil {
					return nil, nil, nil, err
				}
				if p.Len() == 0 {
					return imp, air, nil, nil
				}
				fs := topo.NewFaultSet()
				return imp, topo.NewFaultAware(imp, air, fs), fs, nil
			},
			Space:           space,
			InjectionRate:   0.02,
			WarmupCycles:    30,
			MeasureCycles:   120,
			OffModulePeriod: 4,
			Lanes:           8,
			Plan:            p,
			Pattern:         pattern,
		}
	}

	q6plan := (&FaultPlan{}).LinkDown(40, 0, 1, 0).NodeDown(60, 9, 150).LinkDown(70, 5, 7, 120)
	randPlan := func(imp *topo.Implicit) *FaultPlan {
		p, err := (RandomFaults{MTBF: 60, RepairTime: 150, NodeFraction: 0.25,
			Start: 40, Horizon: 150, MaxFaults: 4, Seed: 2}).PlanTopo(imp)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	out = append(out,
		shardScenario{"q6/uniform", cube(6, 3, nil, nil)},
		shardScenario{"q6/hotspot", cube(6, 3, nil, shardedHotspot(0.2))},
		shardScenario{"q6/faulty", cube(6, 3, q6plan, nil)},
		shardScenario{"q8/uniform", cube(8, 4, nil, nil)},
		shardScenario{"q8/hotspot", cube(8, 4, nil, shardedHotspot(0.2))},
		shardScenario{"q8/faulty", cube(8, 4, q6plan, nil)},
		shardScenario{"hsn2q2/uniform", hsn(2, nil, nil)},
		shardScenario{"hsn2q2/hotspot", hsn(2, nil, shardedHotspot(0.2))},
		shardScenario{"hsn2q2/faulty", hsn(2, randPlan, nil)},
		shardScenario{"hsn2q3/uniform", hsn(3, nil, nil)},
		shardScenario{"hsn2q3/hotspot", hsn(3, nil, shardedHotspot(0.2))},
		shardScenario{"hsn2q3/faulty", hsn(3, randPlan, nil)},
	)
	// One store-and-forward multi-flit variant: the window stretches to
	// OffModulePeriod*Flits and the merge slots shift.
	saf := cube(6, 3, nil, nil)
	saf.Flits = 2
	out = append(out, shardScenario{"q6/uniform-flits2", saf})
	// And one cut-through variant with the shortened window.
	ct := cube(6, 3, q6plan, nil)
	ct.Flits = 2
	ct.CutThrough = true
	out = append(out, shardScenario{"q6/faulty-flits2cut", ct})
	return out
}

// TestShardedDeterminism is the shard-count invariance property suite:
// for every scenario and seed, Shards ∈ {1,2,4,8} must produce identical
// ImplicitFaultStats (compared with ==) and an identical flattened probe
// event stream — the worker count maps lanes to goroutines and nothing
// else. It also checks measured-packet conservation on every run.
func TestShardedDeterminism(t *testing.T) {
	for _, sc := range shardScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				var refStats ImplicitFaultStats
				var refEvents []string
				for _, shards := range []int{1, 2, 4, 8} {
					cfg := sc.cfg
					cfg.Seed = seed
					cfg.Shards = shards
					rec := &recProbe{}
					cfg.Probe = rec
					st, err := RunSharded(cfg)
					if err != nil {
						t.Fatalf("seed %d shards %d: %v", seed, shards, err)
					}
					if st.Injected == 0 || st.Delivered == 0 {
						t.Fatalf("seed %d shards %d: degenerate run: %+v", seed, shards, st.Stats)
					}
					if got := st.Delivered + st.Lost + st.Expired; got != st.Injected {
						t.Fatalf("seed %d shards %d: delivered %d + lost %d + expired %d != injected %d",
							seed, shards, st.Delivered, st.Lost, st.Expired, st.Injected)
					}
					if shards == 1 {
						refStats, refEvents = st, rec.lines
						continue
					}
					if st != refStats {
						t.Errorf("seed %d shards %d: stats diverge from shards=1:\n got %+v\nwant %+v",
							seed, shards, st, refStats)
					}
					if len(rec.lines) != len(refEvents) {
						t.Errorf("seed %d shards %d: %d probe events, shards=1 had %d",
							seed, shards, len(rec.lines), len(refEvents))
						continue
					}
					for i := range rec.lines {
						if rec.lines[i] != refEvents[i] {
							t.Errorf("seed %d shards %d: event %d diverges: %q vs %q",
								seed, shards, i, rec.lines[i], refEvents[i])
							break
						}
					}
				}
			}
		})
	}
}

// TestShardedSingleLane pins the single-lane contract: RunSharded with
// Lanes 1 is the sequential simulator. On every scenario of the
// determinism grid it must return what RunImplicitFaulty (faulty scenarios)
// or RunImplicit (fault-free ones) returns on the same topology, router,
// plan and seed, and emit the same probe stream event for event.
func TestShardedSingleLane(t *testing.T) {
	for _, sc := range shardScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				cfg := sc.cfg
				cfg.Lanes, cfg.Seed = 1, seed
				rec := &recProbe{}
				cfg.Probe = rec
				got, err := RunSharded(cfg)
				if err != nil {
					t.Fatalf("seed %d: sharded: %v", seed, err)
				}

				tp, router, faults, err := sc.cfg.NewLane()
				if err != nil {
					t.Fatal(err)
				}
				seqRec := &recProbe{}
				ic := ImplicitConfig{Topo: tp, Router: router,
					InjectionRate: cfg.InjectionRate, WarmupCycles: cfg.WarmupCycles,
					MeasureCycles: cfg.MeasureCycles, Seed: seed, Flits: cfg.Flits,
					CutThrough: cfg.CutThrough, OffModulePeriod: cfg.OffModulePeriod,
					ModuleOf: cfg.Space.Module, Pattern: cfg.Pattern, Probe: seqRec}
				var want ImplicitFaultStats
				if cfg.Plan.Len() > 0 {
					want, err = RunImplicitFaulty(ic, ImplicitFaultConfig{Plan: cfg.Plan, Faults: faults})
				} else {
					want, err = RunImplicit(ic)
				}
				if err != nil {
					t.Fatalf("seed %d: sequential: %v", seed, err)
				}
				if got != want {
					t.Errorf("seed %d: one lane diverges from the sequential run:\n got %+v\nwant %+v", seed, got, want)
				}
				if len(rec.lines) != len(seqRec.lines) {
					t.Errorf("seed %d: %d probe events, sequential run had %d", seed, len(rec.lines), len(seqRec.lines))
					continue
				}
				for i := range rec.lines {
					if rec.lines[i] != seqRec.lines[i] {
						t.Errorf("seed %d: event %d diverges: %q vs %q", seed, i, rec.lines[i], seqRec.lines[i])
						break
					}
				}
			}
		})
	}
}

// TestShardedUnprobed pins the probe-neutrality of the sharded runner: an
// uninstrumented run returns the same stats as an instrumented one.
func TestShardedUnprobed(t *testing.T) {
	sc := shardScenarios(t)[2] // q6/faulty
	cfg := sc.cfg
	cfg.Seed = 7
	cfg.Shards = 4
	bare, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Probe = &recProbe{}
	probed, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare != probed {
		t.Fatalf("probe perturbed the run:\n bare %+v\nprobed %+v", bare, probed)
	}
}

// TestShardedRaceHammer drives a multi-worker faulty run hard enough for
// the race detector (CI runs this package with -race -count=2) to see every
// cross-lane code path: outbox merges, barrier replay, fault application.
func TestShardedRaceHammer(t *testing.T) {
	ht := topo.HypercubeTopo{Dim: 8}
	plan := (&FaultPlan{}).LinkDown(40, 0, 1, 0).NodeDown(60, 9, 150).LinkDown(70, 5, 7, 120)
	cfg := ShardedConfig{
		NewLane: func() (Topology, Router, FaultSink, error) {
			fs := topo.NewFaultSet()
			return ht, topo.NewFaultAware(ht, topo.HypercubeRouter{Dim: 8}, fs), fs, nil
		},
		Space:           topo.SubcubeSpace{Dim: 8, Low: 4},
		InjectionRate:   0.05,
		WarmupCycles:    40,
		MeasureCycles:   160,
		OffModulePeriod: 2,
		Lanes:           16,
		Shards:          4,
		Plan:            plan,
		Seed:            11,
		Probe:           &recProbe{},
	}
	st, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered == 0 {
		t.Fatalf("degenerate hammer run: %+v", st.Stats)
	}
}
