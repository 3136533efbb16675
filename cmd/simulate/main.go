// Command simulate runs the packet-switched network simulator on a chosen
// network and module packing, sweeping injection rates and off-module link
// speed ratios — the empirical counterpart of the paper's Section 5
// latency arguments.
//
// Usage:
//
//	simulate -net HSN -l 2 -nucleus Q4 -ratios 1,4,16 -rates 0.002,0.01
//	simulate -net hypercube -dim 8 -module 4
//
// A run either builds the graph and routes by per-destination BFS tables
// (topo.BFSRouter), or, with -implicit, simulates the super-IP family's
// implicit topology with the paper's Theorem 4.1/4.3 algebraic router
// (O(1) state per node, no graph built). Both go through one sweep loop, and every run of a sweep
// starts from fresh simulator state. A nucleus is Qn, FQn, Kn, Sn, SEn or
// P; a size below the smallest two-node nucleus, -l < 2, and -sym on a
// nucleus without a symmetric variant (Kn, SEn, P) exit 1 with an error.
//
// Fault injection (degraded-mode operation, see
// internal/netsim.RunImplicitFaulty):
//
//	simulate -net HSN -l 2 -nucleus Q3 -faults 4 -mtbf 250 -repair 500
//
// -faults caps how many random faults strike; -mtbf sets the mean cycles
// between fault arrivals; -repair heals each fault after that many cycles
// (0 = permanent). Faulty runs print one table on both paths: loss,
// hop-limit drops, the latency inflation against a baseline (the same run
// without the plan), deliveries over degraded routes, reroutes and detour
// hops. On a built graph a table is rebuilt against the live faults on the
// first packet that needs it after a fault: reroutes counts those
// rebuilds. Its degraded and detours columns read 0: a rebuilt table is a
// shortest-path tree of the live graph, so no route deviates from a
// primary one and no hop explores, and a packet with no live table hop
// (its destination dead or cut off) is dropped and counted lost.
//
// Faults compose with -implicit: the plan is drawn in id space and the
// algebraic router is wrapped in the fault-aware rerouter, so degraded-mode
// runs work on instances far too large to materialize:
//
//	simulate -net HSN -l 4 -nucleus Q5 -sym -implicit -faults 8 -rates 2e-7
//
// Observability (see internal/obs):
//
//	simulate -net HSN -l 2 -nucleus Q3 -hist -timeseries load.csv -toplinks 5
//	simulate -net torus -rates 0.02 -trace trace.json -progress 500
//	simulate -net HSN -l 4 -nucleus Q5 -sym -implicit -topmodules 8 \
//	    -moduleseries mods.csv -manifest run.json
//
// -hist adds p50/p95/p99 latency columns and prints an ASCII histogram per
// run; -timeseries exports per-link load windows (.jsonl = JSON lines,
// anything else CSV); -moduleseries exports the module-aggregated series
// (memory bounded by module count — the collector for -implicit runs past
// the materialization ceiling); -topmodules prints the hottest modules by
// busy cycles; -trace writes Chrome trace-event JSON (open in
// chrome://tracing or Perfetto); -toplinks prints the busiest links after each run; -progress
// emits a live ticker (delivered-rate and ETA) to stderr; -manifest writes a
// machine-readable JSON record per run (config, seed, stats with the router
// counters, percentiles, registry metrics, host environment; "-" = stdout);
// -repeat n reruns each combination with consecutive seeds and records every
// repetition in the manifest's samples array so cmd/obsdiff can
// significance-test two runs against each other; -live serves a streaming
// dashboard (HTML charts at /, JSON at /snapshot, SSE at /stream, expvar at
// /debug/vars) while the sweep executes; -pprof serves net/http/pprof plus
// the process metrics registry as the expvar variable "sim".
//
// All collectors work under -implicit: probes attach to the sparse
// simulator's hooks, and implicit runs additionally print the algebraic
// router's cache/reroute telemetry after each row. When the sweep covers
// several ratio x rate combinations, output filenames get a -r<ratio>-p<rate>
// suffix so runs don't clobber each other.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/benchkit"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/networks"
	"repro/internal/obs"
	"repro/internal/superip"
	"repro/internal/topo"
)

// registryProbe mirrors run progress into a concurrency-safe metrics
// registry (obs.Registry) so a -pprof listener exposes it live at
// /debug/vars (expvar variable "sim") and -manifest can snapshot it.
// Counters are cumulative across the whole sweep; the cycle gauge tracks
// the current run.
type registryProbe struct {
	obs.NopProbe
	reg       *obs.Registry
	cycle     *obs.Gauge
	queued    *obs.Gauge
	injected  *obs.Counter
	delivered *obs.Counter
	dropped   *obs.Counter
	faults    *obs.Counter
	latency   *obs.Hist
}

func newRegistryProbe() *registryProbe {
	reg := obs.NewRegistry()
	return &registryProbe{
		reg:       reg,
		cycle:     reg.Gauge("cycle"),
		queued:    reg.Gauge("queued"),
		injected:  reg.Counter("injected"),
		delivered: reg.Counter("delivered"),
		dropped:   reg.Counter("dropped"),
		faults:    reg.Counter("faults"),
		latency:   reg.Hist("latency"),
	}
}

func (p *registryProbe) Tick(cycle int) { p.cycle.Set(int64(cycle)) }

func (p *registryProbe) Inject(int, int64, int64, int64, bool) { p.injected.Inc() }

// Enqueue/Hop keep the queued gauge equal to the number of packets sitting
// in link FIFOs (the same conservation discipline obs.ModuleSeries uses:
// enqueues minus transmission starts minus queue kills).
func (p *registryProbe) Enqueue(int, int64, int64, int64, int) { p.queued.Add(1) }

func (p *registryProbe) Hop(int, int64, int64, int64, int, int) { p.queued.Add(-1) }

func (p *registryProbe) Deliver(_ int, _ int64, _ int64, latency int, _ bool) {
	p.delivered.Inc()
	p.latency.Observe(int64(latency))
}

func (p *registryProbe) Drop(_ int, _ int64, _ int64, reason obs.DropReason) {
	p.dropped.Inc()
	if reason == obs.DropQueueKilled {
		p.queued.Add(-1)
	}
}

func (p *registryProbe) Fault(_ int, _, _ int64, _ bool, down bool) {
	if down {
		p.faults.Inc()
	}
}

// obsOpts carries the observability flag set shared by the materialized and
// implicit paths.
type obsOpts struct {
	hist       bool
	tsFile     string
	tsEvery    int
	traceFile  string
	traceNth   int
	topLinks   int
	topModules int
	msFile     string
	manifest   string
	progress   int
	repeat     int
	total      int // warmup+measure cycles, for the progress ETA
	rp         *registryProbe
	live       *obs.LiveServer
	liveEvery  int
	env        *benchkit.Env
}

// collectors is one run's collector set, built by obsOpts.build.
type collectors struct {
	lh *obs.LatencyHist
	ts *obs.TimeSeries
	tr *obs.Trace
	ms *obs.ModuleSeries
}

// build assembles the run's probe from the requested collectors. Every
// collector is optional; obs.Multi collapses to nil when none are
// requested, keeping the simulators on their no-observer fast path.
func (o obsOpts) build(moduleOf func(int64) int64) (obs.Probe, *collectors) {
	c := &collectors{}
	var probes []obs.Probe
	if o.hist {
		c.lh = &obs.LatencyHist{}
		probes = append(probes, c.lh)
	}
	if o.tsFile != "" || o.topLinks > 0 {
		c.ts = obs.NewTimeSeries(moduleOf, o.tsEvery)
		probes = append(probes, c.ts)
	}
	if o.msFile != "" || o.topModules > 0 {
		c.ms = obs.NewModuleSeries(moduleOf, o.tsEvery)
		probes = append(probes, c.ms)
	}
	if o.traceFile != "" {
		c.tr = &obs.Trace{SampleEvery: o.traceNth}
		probes = append(probes, c.tr)
	}
	if o.progress > 0 {
		probes = append(probes, &obs.Progress{Every: o.progress, Total: o.total})
	}
	if o.rp != nil {
		probes = append(probes, o.rp)
	}
	if o.live != nil {
		probes = append(probes, o.live.Sampler(o.liveEvery))
	}
	return obs.Multi(probes...), c
}

func main() {
	var (
		netName = flag.String("net", "HSN", "network: HSN, ringCN, CN, SFN, hypercube, torus")
		l       = flag.Int("l", 2, "levels (super-IP families)")
		nucleus = flag.String("nucleus", "Q4", "nucleus: Qn, FQn, Kn, Sn, SEn, or P")
		sym     = flag.Bool("sym", false, "symmetric (distinct-seed) variant (super-IP families)")
		impl    = flag.Bool("implicit", false, "super-IP families: simulate the implicit topology with Theorem 4.1/4.3 algebraic routing (O(1) state per node) instead of building the graph and routing by BFS tables; -faults wraps the router in the fault-aware rerouter; every run builds fresh topology and router instances")
		shards  = flag.Int("shards", 0, "run -implicit sweeps on the sharded engine with this many worker goroutines (module-partitioned lanes with conservative lookahead; any shard count produces identical stats for a fixed seed, so this only changes wall-clock; 0 = one lane on one goroutine, the sequential simulator)")
		dim     = flag.Int("dim", 8, "hypercube dimension")
		module  = flag.Int("module", 4, "hypercube: module subcube dimension; torus: tile side")
		rows    = flag.Int("rows", 16, "torus rows")
		cols    = flag.Int("cols", 16, "torus cols")
		ratios  = flag.String("ratios", "1,4,16", "off-module service periods")
		rates   = flag.String("rates", "0.005", "injection rates")
		cycles  = flag.Int("cycles", 3000, "measurement cycles")
		warmup  = flag.Int("warmup", 300, "warmup cycles")
		seed    = flag.Int64("seed", 42, "PRNG seed")
		nFaults = flag.Int("faults", 0, "max random faults to inject (0 = fault-free)")
		mtbf    = flag.Float64("mtbf", 250, "mean cycles between fault arrivals")
		repair  = flag.Int("repair", 0, "cycles until a fault heals (0 = permanent)")
		nodeFrc = flag.Float64("nodefaults", 0, "fraction of faults that kill a node instead of a link")

		histOn     = flag.Bool("hist", false, "collect latency histograms: adds p50/p95/p99 columns and prints an ASCII histogram per run")
		tsFile     = flag.String("timeseries", "", "write per-link load windows to this file (.jsonl = JSON lines, else CSV; -moduleseries writes the per-module view)")
		tsEvery    = flag.Int("sample", 50, "time-series sample window, in cycles")
		traceFile  = flag.String("trace", "", "write Chrome trace-event JSON of sampled packet lifecycles to this file")
		traceNth   = flag.Int("tracesample", 64, "trace every n-th packet (1 = every packet)")
		topLinks   = flag.Int("toplinks", 0, "after each run, print the n busiest links")
		topModules = flag.Int("topmodules", 0, "after each run, print the n busiest modules (busy cycles, intra/inter split)")
		msFile     = flag.String("moduleseries", "", "write the module-aggregated load series to this file (.jsonl = JSON lines, else CSV; memory bounded by module count)")
		manifest   = flag.String("manifest", "", "write a JSON run manifest (config, seed, stats, percentiles, router counters, registry metrics, host environment) to this file per run; \"-\" writes to stdout")
		repeat     = flag.Int("repeat", 1, "run each ratio x rate combination n times with seeds seed..seed+n-1 and record every repetition's flattened stats in the manifest's samples array (for cmd/obsdiff significance testing; requires -manifest)")
		progress   = flag.Int("progress", 0, "print a live progress line (with delivered-rate and ETA) to stderr every n cycles")
		liveAddr   = flag.String("live", "", "serve the live metrics dashboard on this address (e.g. localhost:8080): / (HTML charts), /snapshot (latest sample JSON, ?all=1 for the ring), /stream (SSE), /debug/vars (expvar variable \"sim\")")
		liveEvery  = flag.Int("livesample", 200, "cycles between live dashboard samples (with -live)")
		pprofAddr  = flag.String("pprof", "", "serve profiling endpoints on this address (e.g. localhost:6060): /debug/pprof/ (net/http/pprof: profile, heap, goroutine, ...) and /debug/vars (the process metrics registry as expvar variable \"sim\")")
	)
	flag.Parse()
	ratioList, rateList := parseInts(*ratios), parseFloats(*rates)
	exitIf(validateSweep(ratioList, rateList, *cycles, *warmup))
	if *shards < 0 {
		exitIf(fmt.Errorf("-shards must be >= 0 (got %d)", *shards))
	}
	if *nFaults < 0 {
		exitIf(fmt.Errorf("-faults must be >= 0 (got %d)", *nFaults))
	}

	o := obsOpts{
		hist: *histOn, tsFile: *tsFile, tsEvery: *tsEvery,
		traceFile: *traceFile, traceNth: *traceNth,
		topLinks: *topLinks, topModules: *topModules, msFile: *msFile,
		manifest: *manifest, progress: *progress, repeat: *repeat,
		total: *warmup + *cycles, liveEvery: *liveEvery,
	}
	if o.repeat < 1 {
		exitIf(fmt.Errorf("-repeat must be >= 1 (got %d)", o.repeat))
	}
	if o.manifest == "-" {
		// The manifest owns stdout; keep it machine-parseable by moving the
		// human-readable tables to stderr.
		console = os.Stderr
	}
	if o.repeat > 1 && o.manifest == "" {
		exitIf(fmt.Errorf("-repeat %d without -manifest would discard all but the first run; add -manifest <file> (or \"-\" for stdout)", o.repeat))
	}
	if *pprofAddr != "" || *manifest != "" || *liveAddr != "" {
		// The registry costs a few atomic ops per event, so it only attaches
		// when something consumes it: a live /debug/vars or dashboard
		// listener, or the manifest's metrics section.
		o.rp = newRegistryProbe()
	}
	if *manifest != "" {
		env := benchkit.CollectEnv()
		o.env = &env
	}
	if *pprofAddr != "" || *liveAddr != "" {
		o.rp.reg.PublishExpvar("sim")
	}
	if *pprofAddr != "" {
		// Bind synchronously so an unusable address (port taken, bad
		// syntax, privileged port) fails the run up front instead of a
		// goroutine racing a message to stderr while the sweep silently
		// continues unprofiled.
		ln, err := net.Listen("tcp", *pprofAddr)
		exitIf(err)
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "simulate: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving http://%s/debug/pprof/ (profiles) and /debug/vars (registry variable \"sim\")\n", ln.Addr())
	}
	if *liveAddr != "" {
		o.live = obs.NewLiveServer(o.rp.reg, 0)
		// Same synchronous-bind discipline as -pprof.
		ln, err := net.Listen("tcp", *liveAddr)
		exitIf(err)
		go func() {
			if err := http.Serve(ln, o.live.Handler()); err != nil {
				fmt.Fprintf(os.Stderr, "simulate: live server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "live dashboard at http://%s/ (JSON /snapshot, SSE /stream, expvar /debug/vars)\n", ln.Addr())
	}

	if *shards > 0 && !*impl {
		exitIf(fmt.Errorf("-shards requires -implicit (the sharded engine runs implicit topologies)"))
	}
	var net *superip.Net
	switch *netName {
	case "HSN", "ringCN", "CN", "SFN":
		var err error
		net, err = superip.Parse(*netName, *l, *nucleus, *sym)
		exitIf(err)
	case "hypercube", "torus":
		if *impl {
			exitIf(fmt.Errorf("-implicit needs a super-IP family (HSN, ringCN, CN, SFN), got %q", *netName))
		}
	default:
		exitIf(fmt.Errorf("unknown network %q", *netName))
	}
	s := sweep{ratios: ratioList, rates: rateList, warmup: *warmup, cycles: *cycles,
		seed: *seed, faults: *nFaults, shards: *shards}
	rf := netsim.RandomFaults{
		MTBF:         *mtbf,
		RepairTime:   *repair,
		NodeFraction: *nodeFrc,
		Start:        *warmup,
		Horizon:      *warmup + *cycles,
		MaxFaults:    *nFaults,
		Seed:         *seed,
	}
	if *impl {
		exitIf(s.implicit(net, rf, o.live))
	} else {
		exitIf(s.materialized(net, *netName, *dim, *module, *rows, *cols, rf))
	}
	s.execute(o)
}

// sweep is one ratio x rate sweep. The path constructors (materialized,
// implicit) print the network headline and fault plan and fill in name,
// moduleOf, plan and run; execute is the one loop both paths share.
type sweep struct {
	ratios         []int
	rates          []float64
	warmup, cycles int
	seed           int64
	faults, shards int

	name       string            // run name in the manifest
	moduleOf   func(int64) int64 // module map handed to the collectors
	plan       *netsim.FaultPlan // nil: a fault-free sweep
	routerText bool              // print the router telemetry under each row
	run        func(ratio int, rate float64, seed int64, plan *netsim.FaultPlan, pb obs.Probe) (netsim.ImplicitFaultStats, error)
}

// freeHeader and freeRow are the fault-free table, the same on both paths.
var freeHeader = fmt.Sprintf("%-8s %-8s %-10s %-10s %-8s %-10s %-8s",
	"ratio", "rate", "injected", "delivered", "expired", "avg-lat", "max-lat")

func freeRow(ratio int, rate float64, st netsim.ImplicitFaultStats) string {
	return fmt.Sprintf("%-8d %-8.4f %-10d %-10d %-8d %-10.2f %-8d",
		ratio, rate, st.Injected, st.Delivered, st.Expired, st.AvgLatency, st.MaxLatency)
}

// faultyHeader and faultyRow are the degraded-mode table, the same on both
// paths.
var faultyHeader = fmt.Sprintf("%-8s %-8s %-10s %-10s %-6s %-8s %-9s %-10s %-9s %-9s %-9s %-9s",
	"ratio", "rate", "injected", "delivered", "lost", "expired", "hop-drops", "avg-lat",
	"lat-infl", "degraded", "reroutes", "detours")

func faultyRow(ratio int, rate float64, st netsim.ImplicitFaultStats, inflation float64) string {
	return fmt.Sprintf("%-8d %-8.4f %-10d %-10d %-6d %-8d %-9d %-10.2f %-9.2f %-9d %-9d %-9d",
		ratio, rate, st.Injected, st.Delivered, st.Lost, st.Expired, st.HopLimitDrops,
		st.AvgLatency, inflation, st.DeliveredDegraded, st.Router.Reroutes, st.Router.DetourHops)
}

func printPlan(plan *netsim.FaultPlan, rf netsim.RandomFaults) {
	fmt.Fprintf(console, "fault plan: %d events (mtbf %.0f, repair %d, node fraction %.2f)\n",
		plan.Len(), rf.MTBF, rf.RepairTime, rf.NodeFraction)
}

// execute runs the sweep. With -repeat n, repetition r reruns each
// combination with seed seed+r and a fresh probe set; the console row,
// router telemetry and collector exports come from repetition 0, and every
// repetition's flattened stats land in the manifest's samples array.
func (s *sweep) execute(o obsOpts) {
	header := freeHeader
	if s.plan != nil {
		header = faultyHeader
	}
	if o.hist {
		header += fmt.Sprintf(" %-8s %-8s %-8s", "p50", "p95", "p99")
	}
	fmt.Fprintf(console, "%s\n", header)
	multi := len(s.ratios)*len(s.rates) > 1
	for _, ratio := range s.ratios {
		for _, rate := range s.rates {
			var samples []map[string]float64
			var head netsim.ImplicitFaultStats
			var headPct map[string]float64
			for rep := 0; rep < o.repeat; rep++ {
				pb, col := o.build(s.moduleOf)
				seed := s.seed + int64(rep)
				st, err := s.run(ratio, rate, seed, s.plan, pb)
				exitIf(err)
				pct := percentiles(col.lh)
				samples = append(samples, obs.Manifest{Stats: st, Percentiles: pct}.Flatten())
				if rep > 0 {
					continue
				}
				head, headPct = st, pct
				row := freeRow(ratio, rate, st)
				if s.plan != nil {
					row = faultyRow(ratio, rate, st, s.inflation(ratio, rate, seed, st.AvgLatency))
				}
				fmt.Fprintf(console, "%s%s\n", row, quantileCols(col.lh))
				if s.routerText {
					exitIf(st.Router.WriteText(console))
				}
				col.export(o, ratio, rate, multi)
			}
			o.writeManifest(s.name, runConfig(ratio, rate, s.warmup, s.cycles, s.faults, s.shards), s.seed,
				head, headPct, samples, ratio, rate, multi)
		}
	}
}

// inflation is a degraded run's average latency over its baseline's: the
// same run without the plan and without probes (0 when the baseline
// delivered nothing).
func (s *sweep) inflation(ratio int, rate float64, seed int64, avgLatency float64) float64 {
	base, err := s.run(ratio, rate, seed, nil, nil)
	exitIf(err)
	if base.AvgLatency == 0 {
		return 0
	}
	return avgLatency / base.AvgLatency
}

// quantileCols renders the p50/p95/p99 columns of the run's latency
// histogram ("" when -hist is off and there is none).
func quantileCols(h *obs.LatencyHist) string {
	if h == nil {
		return ""
	}
	return fmt.Sprintf(" %-8.1f %-8.1f %-8.1f", h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
}

// percentiles builds the manifest's percentile map from the run's latency
// histogram (nil when -hist is off and there is none).
func percentiles(h *obs.LatencyHist) map[string]float64 {
	if h == nil {
		return nil
	}
	return map[string]float64{"p50": h.Quantile(0.50), "p95": h.Quantile(0.95), "p99": h.Quantile(0.99)}
}

// runConfig captures the per-run sweep coordinates for the manifest. The
// shards key appears only on sharded-engine runs, so classic manifests keep
// their historical shape (and diff clean against old recordings).
func runConfig(ratio int, rate float64, warmup, cycles, faults, shards int) map[string]any {
	m := map[string]any{
		"ratio": ratio, "rate": rate,
		"warmup": warmup, "cycles": cycles, "faults": faults,
	}
	if shards > 0 {
		m["shards"] = shards
	}
	return m
}

// writeManifest emits the JSON run manifest when -manifest is set. samples
// holds one flattened stat map per -repeat repetition (recorded when there is
// more than one, so single-run manifests keep their historical shape). A
// manifest path of "-" writes to stdout.
func (o obsOpts) writeManifest(name string, cfg map[string]any, seed int64, st netsim.ImplicitFaultStats,
	pct map[string]float64, samples []map[string]float64,
	ratio int, rate float64, multi bool) {
	if o.manifest == "" {
		return
	}
	m := obs.Manifest{
		Run: name, Config: cfg, Seed: seed, Stats: st,
		Percentiles: pct, Env: o.env,
	}
	if len(samples) > 1 {
		m.Samples = samples
	}
	if o.rp != nil {
		m.Metrics = o.rp.reg.Snapshot()
	}
	if o.manifest == "-" {
		exitIf(m.WriteJSON(os.Stdout))
		return
	}
	exitIf(writeTo(suffixed(o.manifest, ratio, rate, multi), m.WriteJSON))
}

// export writes whatever collectors the run carried. With a multi-run
// sweep, filenames gain a -r<ratio>-p<rate> suffix before the extension.
func (c *collectors) export(o obsOpts, ratio int, rate float64, multi bool) {
	if c.lh != nil && c.lh.Count() > 0 {
		exitIf(c.lh.WriteText(console))
	}
	if c.ts != nil {
		c.ts.Flush()
		if o.tsFile != "" {
			name := suffixed(o.tsFile, ratio, rate, multi)
			if strings.HasSuffix(name, ".jsonl") {
				exitIf(writeTo(name, c.ts.WriteJSONL))
			} else {
				exitIf(writeTo(name, c.ts.WriteCSV))
			}
		}
		if o.topLinks > 0 {
			fmt.Fprintf(console, "top %d links by busy cycles:\n", o.topLinks)
			for _, l := range c.ts.TopLinks(o.topLinks) {
				kind := "on-module "
				if l.OffModule {
					kind = "off-module"
				}
				fmt.Fprintf(console, "  %4d -> %-4d %s  hops %-7d busy %-8d util %.3f\n",
					l.U, l.V, kind, l.Hops, l.Busy, l.Util)
			}
		}
	}
	if c.ms != nil {
		c.ms.Flush()
		if o.msFile != "" {
			name := suffixed(o.msFile, ratio, rate, multi)
			if strings.HasSuffix(name, ".jsonl") {
				exitIf(writeTo(name, c.ms.WriteJSONL))
			} else {
				exitIf(writeTo(name, c.ms.WriteCSV))
			}
		}
		if o.topModules > 0 {
			fmt.Fprintf(console, "top %d of %d active modules by busy cycles:\n",
				o.topModules, c.ms.ActiveModules())
			for _, m := range c.ms.TopModules(o.topModules) {
				fmt.Fprintf(console, "  module %-8d busy %-8d (intra %-8d inter %-8d) hops %d/%d  in %-7d out %d\n",
					m.Module, m.IntraBusy+m.InterBusy, m.IntraBusy, m.InterBusy,
					m.IntraHops, m.InterHops, m.Injected, m.Delivered)
			}
		}
	}
	if c.tr != nil && o.traceFile != "" {
		exitIf(writeTo(suffixed(o.traceFile, ratio, rate, multi), c.tr.WriteJSON))
	}
}

func suffixed(name string, ratio int, rate float64, multi bool) string {
	if !multi {
		return name
	}
	ext := filepath.Ext(name)
	return fmt.Sprintf("%s-r%d-p%g%s", strings.TrimSuffix(name, ext), ratio, rate, ext)
}

func writeTo(name string, write func(io.Writer) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// materialized sets the sweep up on the built graph: net (nil for the
// classical networks) or the -net hypercube/torus system is materialized
// with its module partition, and every run is a netsim.RunImplicitFaulty
// over topo.NewMaterialized(g) with a fresh topo.BFSRouter, whose
// per-destination BFS tables are rebuilt against a fresh fault set under
// a fault plan. Built-graph runs allow 8·N hops, since a built graph's
// diameter can exceed the 4096 default.
func (s *sweep) materialized(net *superip.Net, netName string, dim, module, rows, cols int, rf netsim.RandomFaults) error {
	g, part, name, err := buildSystem(net, netName, dim, module, rows, cols)
	if err != nil {
		return err
	}
	ist := metrics.IStats(g, part)
	fmt.Fprintf(console, "%s: N=%d modules=%d I-degree=%.2f I-diameter=%d II-cost=%.2f\n",
		name, g.N(), part.K, metrics.IDegree(g, part), ist.Diameter,
		metrics.IICost(metrics.IDegree(g, part), int(ist.Diameter)))

	t := topo.NewMaterialized(g)
	if s.faults > 0 {
		if s.plan, err = rf.PlanTopo(t); err != nil {
			return err
		}
		printPlan(s.plan, rf)
	}
	s.name, s.moduleOf = name, part.Module
	s.run = func(ratio int, rate float64, seed int64, plan *netsim.FaultPlan, pb obs.Probe) (netsim.ImplicitFaultStats, error) {
		var fs *topo.FaultSet
		if plan != nil {
			fs = topo.NewFaultSet()
		}
		return netsim.RunImplicitFaulty(netsim.ImplicitConfig{
			Topo:            t,
			Router:          topo.NewBFSRouter(t, fs),
			ModuleOf:        part.Module,
			OffModulePeriod: ratio,
			InjectionRate:   rate,
			WarmupCycles:    s.warmup,
			MeasureCycles:   s.cycles,
			Seed:            seed,
			MaxHops:         8 * g.N(),
			Probe:           pb,
		}, netsim.ImplicitFaultConfig{Plan: plan, Faults: fs})
	}
	return nil
}

// buildSystem materializes the requested network and its module partition:
// net when it is a super-IP family (nucleus-per-module packing), else the
// hypercube (subcube modules) or torus (tiles) of the classical flags.
func buildSystem(net *superip.Net, name string, dim, module, rows, cols int) (*graph.Graph, metrics.Partition, string, error) {
	switch {
	case net != nil:
		g, ix, err := net.BuildWithIndex()
		if err != nil {
			return nil, metrics.Partition{}, "", err
		}
		return g, metrics.NucleusPartition(ix, net.Nucleus.Nuc.M()), net.Name(), nil
	case name == "hypercube":
		if module < 0 || module > dim {
			return nil, metrics.Partition{}, "", fmt.Errorf("-module %d outside [0, -dim %d]: a module is a subcube of the hypercube", module, dim)
		}
		g, err := networks.Hypercube{Dim: dim}.Build()
		if err != nil {
			return nil, metrics.Partition{}, "", err
		}
		return g, metrics.SubcubePartition(g.N(), module), fmt.Sprintf("Q%d/Q%d", dim, module), nil
	default: // torus
		if module < 1 {
			return nil, metrics.Partition{}, "", fmt.Errorf("-module %d: a torus tile needs a side >= 1", module)
		}
		g, err := networks.Torus2D{Rows: rows, Cols: cols}.Build()
		if err != nil {
			return nil, metrics.Partition{}, "", err
		}
		p, err := metrics.GridPartition(rows, cols, module, module)
		if err != nil {
			return nil, metrics.Partition{}, "", err
		}
		return g, p, fmt.Sprintf("torus(%dx%d)/%dx%d", rows, cols, module, module), nil
	}
}

// implicit sets the sweep up on the implicit topology of net with algebraic
// routing. Nothing O(N) is allocated, so instances far beyond the
// materializable ceiling (superip.Net.Build refuses N > 2^21) simulate in
// memory proportional to the in-flight packet population. With -faults the
// plan is drawn in id space (RandomFaults.PlanTopo) and each router is
// wrapped in the fault-aware rerouter. Every run is one netsim.RunSharded
// whose lanes get fresh topology, router and fault-set instances from the
// lane factory, so no route state leaks from one run into the next; without
// -shards the run is a single lane on one worker, the sequential simulator.
// Stats are deterministic in everything but wall-clock — any shard count
// yields the same numbers for a fixed seed. Each row is followed by the
// router's cache/reroute telemetry.
func (s *sweep) implicit(net *superip.Net, rf netsim.RandomFaults, live *obs.LiveServer) error {
	imp, err := topo.NewImplicit(net.Super())
	if err != nil {
		return err
	}
	fmt.Fprintf(console, "%s (implicit): N=%d modules=%d degree=%d diameter=%d I-diameter=%d\n",
		net.Name(), imp.N(), imp.Modules(), net.Degree(), net.Diameter(), net.IDiameter())

	if s.faults > 0 {
		if s.plan, err = rf.PlanTopo(imp); err != nil {
			return err
		}
		printPlan(s.plan, rf)
	}
	lanes, shards := 0, s.shards // 0 lanes: RunSharded's default
	if shards == 0 {
		lanes, shards = 1, 1
	}
	// Each lane gets private instances of the implicit topology and the
	// algebraic router (plus, under faults, its own fault-aware wrapper and
	// fault set), because none of them is required to be safe for
	// concurrent use.
	newLane := func(plan *netsim.FaultPlan) (netsim.Topology, netsim.Router, netsim.FaultSink, error) {
		lt, err := topo.NewImplicit(net.Super())
		if err != nil {
			return nil, nil, nil, err
		}
		ar, err := topo.NewAlgebraic(net.Super())
		if err != nil {
			return nil, nil, nil, err
		}
		var r interface {
			netsim.Router
			RouterStats() obs.RouterStats
		} = ar
		var sink netsim.FaultSink
		if plan != nil {
			fs := topo.NewFaultSet()
			r, sink = topo.NewFaultAware(lt, ar, fs), fs
		}
		if live != nil && lanes == 1 {
			// The sampler calls this on the simulation goroutine, between
			// cycles, so a single lane's router is safe to read.
			live.RouterSource(r.RouterStats)
		}
		return lt, r, sink, nil
	}

	s.name, s.moduleOf, s.routerText = net.Name()+" (implicit)", imp.Module, true
	s.run = func(ratio int, rate float64, seed int64, plan *netsim.FaultPlan, pb obs.Probe) (netsim.ImplicitFaultStats, error) {
		return netsim.RunSharded(netsim.ShardedConfig{
			NewLane: func() (netsim.Topology, netsim.Router, netsim.FaultSink, error) {
				return newLane(plan)
			},
			Space:           imp,
			OffModulePeriod: ratio,
			InjectionRate:   rate,
			WarmupCycles:    s.warmup,
			MeasureCycles:   s.cycles,
			Seed:            seed,
			Shards:          shards,
			Lanes:           lanes,
			Plan:            plan,
			Probe:           pb,
		})
	}
	return nil
}

// validateSweep rejects sweep flags no simulator run can honor: an
// off-module period below 1 would run at period 1 under a wrong label, an
// injection rate is a per-node probability in [0, 1], and a run needs at
// least one measured cycle and a non-negative warmup.
func validateSweep(ratios []int, rates []float64, cycles, warmup int) error {
	for _, r := range ratios {
		if r < 1 {
			return fmt.Errorf("-ratios: off-module period %d must be >= 1", r)
		}
	}
	for _, r := range rates {
		if !(r >= 0 && r <= 1) { // also rejects NaN
			return fmt.Errorf("-rates: injection rate %v must be in [0, 1]", r)
		}
	}
	if cycles < 1 {
		return fmt.Errorf("-cycles must be >= 1 (got %d)", cycles)
	}
	if warmup < 0 {
		return fmt.Errorf("-warmup must be >= 0 (got %d)", warmup)
	}
	return nil
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		exitIf(err)
		out = append(out, v)
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		exitIf(err)
		out = append(out, v)
	}
	return out
}

// console receives the human-readable output (network headline, sweep
// tables, router telemetry). It is stdout except under -manifest -, where
// the manifest JSON owns stdout and the tables move to stderr.
var console io.Writer = os.Stdout

func exitIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
}
