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
// Fault injection (degraded-mode operation, see internal/netsim.RunFaulty):
//
//	simulate -net HSN -l 2 -nucleus Q3 -faults 4 -mtbf 250 -repair 500
//
// -faults caps how many random faults strike; -mtbf sets the mean cycles
// between fault arrivals; -repair heals each fault after that many cycles
// (0 = permanent). Faulty runs print loss/retransmission/reroute columns
// and the latency inflation against the fault-free baseline.
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
// anything else CSV, with the per-module series written alongside);
// -moduleseries exports the module-aggregated series (memory bounded by
// module count — the collector for -implicit runs past the materialization
// ceiling); -topmodules prints the hottest modules by busy cycles;
// -trace writes Chrome trace-event JSON (open in chrome://tracing or
// Perfetto); -toplinks prints the busiest links after each run; -progress
// emits a live ticker (delivered-rate and ETA) to stderr; -manifest writes a
// machine-readable JSON record per run (config, seed, stats, percentiles,
// router counters, registry metrics, host environment; "-" = stdout);
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
	"repro/internal/core"
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
	reg           *obs.Registry
	cycle         *obs.Gauge
	queued        *obs.Gauge
	injected      *obs.Counter
	delivered     *obs.Counter
	dropped       *obs.Counter
	retransmitted *obs.Counter
	faults        *obs.Counter
	latency       *obs.StripedHist
}

func newRegistryProbe() *registryProbe {
	reg := obs.NewRegistry()
	return &registryProbe{
		reg:           reg,
		cycle:         reg.Gauge("cycle"),
		queued:        reg.Gauge("queued"),
		injected:      reg.Counter("injected"),
		delivered:     reg.Counter("delivered"),
		dropped:       reg.Counter("dropped"),
		retransmitted: reg.Counter("retransmitted"),
		faults:        reg.Counter("faults"),
		latency:       reg.Hist("latency"),
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

func (p *registryProbe) Retransmit(int, int64, int64, int) { p.retransmitted.Inc() }

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
		nucleus = flag.String("nucleus", "Q4", "nucleus: Qn or FQn")
		sym     = flag.Bool("sym", false, "symmetric (distinct-seed) variant (super-IP families)")
		routerK = flag.String("router", "bfs", "routing for super-IP runs: bfs (per-destination tables) or algebraic (Theorem 4.1/4.3 label arithmetic, O(1) state per node)")
		impl    = flag.Bool("implicit", false, "simulate the implicit topology without materializing the graph (super-IP families; forces algebraic routing; -faults uses the fault-aware algebraic router; observability collectors attach to the sparse simulator's probe hooks)")
		shards  = flag.Int("shards", 0, "run -implicit sweeps on the sharded engine with this many worker goroutines (module-partitioned lanes with conservative lookahead; any shard count produces identical stats for a fixed seed, so this only changes wall-clock; 0 = classic single-loop simulator)")
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
		tsFile     = flag.String("timeseries", "", "write per-link load windows to this file (.jsonl = JSON lines, else CSV with a .modules.csv sibling)")
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
	if *impl {
		runImplicitSweep(*netName, *l, *nucleus, *sym,
			parseInts(*ratios), parseFloats(*rates), *cycles, *warmup, *seed,
			*nFaults, *mtbf, *repair, *nodeFrc, *shards, o)
		return
	}

	g, part, name, net, ix, err := buildSystem(*netName, *l, *nucleus, *sym, *dim, *module, *rows, *cols)
	exitIf(err)

	var router netsim.Router
	switch *routerK {
	case "bfs":
	case "algebraic":
		if net == nil {
			exitIf(fmt.Errorf("-router=algebraic requires a super-IP family (got %q)", *netName))
		}
		ar, err := topo.NewAlgebraicWith(net.Super(), topo.NewMaterialized(g, ix))
		exitIf(err)
		router = ar
		if o.live != nil {
			o.live.RouterSource(ar.RouterStats)
		}
	default:
		exitIf(fmt.Errorf("unknown -router %q (want bfs or algebraic)", *routerK))
	}

	ist := metrics.IStats(g, part)
	fmt.Fprintf(console, "%s: N=%d modules=%d I-degree=%.2f I-diameter=%d II-cost=%.2f\n",
		name, g.N(), part.K, metrics.IDegree(g, part), ist.Diameter,
		metrics.IICost(metrics.IDegree(g, part), int(ist.Diameter)))

	var plan *netsim.FaultPlan
	if *nFaults > 0 {
		plan, err = netsim.RandomFaults{
			MTBF:         *mtbf,
			RepairTime:   *repair,
			NodeFraction: *nodeFrc,
			Start:        *warmup,
			Horizon:      *warmup + *cycles,
			MaxFaults:    *nFaults,
			Seed:         *seed,
		}.Plan(g)
		exitIf(err)
		fmt.Fprintf(console, "fault plan: %d events (mtbf %.0f, repair %d, node fraction %.2f)\n",
			plan.Len(), *mtbf, *repair, *nodeFrc)
	}

	histCols := ""
	if *histOn {
		histCols = fmt.Sprintf(" %-8s %-8s %-8s", "p50", "p95", "p99")
	}
	if plan == nil {
		fmt.Fprintf(console, "%-8s %-8s %-10s %-10s %-8s %-10s %-8s%s\n",
			"ratio", "rate", "injected", "delivered", "expired", "avg-lat", "max-lat", histCols)
	} else {
		fmt.Fprintf(console, "%-8s %-8s %-10s %-10s %-6s %-8s %-6s %-10s %-9s %-9s %-9s%s\n",
			"ratio", "rate", "injected", "delivered", "lost", "expired", "retx", "avg-lat", "lat-infl", "reroutes", "detours", histCols)
	}
	moduleOf := func(u int64) int64 { return int64(part.Of[u]) }
	ratioList, rateList := parseInts(*ratios), parseFloats(*rates)
	multi := len(ratioList)*len(rateList) > 1
	for _, ratio := range ratioList {
		for _, rate := range rateList {
			// With -repeat n, repetition r reruns the combination with seed
			// seed+r and a fresh probe set; the console row and collector
			// exports come from repetition 0, and every repetition's
			// flattened stats land in the manifest's samples array.
			var samples []map[string]float64
			var headStats any
			var headPct map[string]float64
			for rep := 0; rep < o.repeat; rep++ {
				pb, col := o.build(moduleOf)
				cfg := netsim.Config{
					Graph:           g,
					Partition:       &part,
					OffModulePeriod: ratio,
					InjectionRate:   rate,
					WarmupCycles:    *warmup,
					MeasureCycles:   *cycles,
					Seed:            *seed + int64(rep),
					Probe:           pb,
					Router:          router,
				}
				if plan == nil {
					st, err := netsim.Run(cfg)
					exitIf(err)
					pct := percentiles(*histOn, st.P50Latency, st.P95Latency, st.P99Latency)
					samples = append(samples, obs.Manifest{Stats: st, Percentiles: pct}.Flatten())
					if rep > 0 {
						continue
					}
					headStats, headPct = st, pct
					fmt.Fprintf(console, "%-8d %-8.4f %-10d %-10d %-8d %-10.2f %-8d%s\n",
						ratio, rate, st.Injected, st.Delivered, st.Expired,
						st.AvgLatency, st.MaxLatency, quantileCols(*histOn, st.P50Latency, st.P95Latency, st.P99Latency))
				} else {
					fs, _, err := netsim.RunFaultyWithBaseline(cfg, netsim.FaultConfig{Plan: plan})
					exitIf(err)
					pct := percentiles(*histOn, fs.P50Latency, fs.P95Latency, fs.P99Latency)
					samples = append(samples, obs.Manifest{Stats: fs, Percentiles: pct}.Flatten())
					if rep > 0 {
						continue
					}
					headStats, headPct = fs, pct
					fmt.Fprintf(console, "%-8d %-8.4f %-10d %-10d %-6d %-8d %-6d %-10.2f %-9.2f %-9d %-9d%s\n",
						ratio, rate, fs.Injected, fs.Delivered, fs.Lost, fs.Expired, fs.Retransmitted,
						fs.AvgLatency, fs.LatencyInflation, fs.RerouteEvents, fs.MisroutedHops,
						quantileCols(*histOn, fs.P50Latency, fs.P95Latency, fs.P99Latency))
				}
				col.export(o, ratio, rate, multi)
			}
			o.writeManifest(name, runConfig(ratio, rate, *warmup, *cycles, *nFaults, 0), *seed,
				headStats, headPct, nil, samples, ratio, rate, multi)
		}
	}
}

func quantileCols(on bool, p50, p95, p99 float64) string {
	if !on {
		return ""
	}
	return fmt.Sprintf(" %-8.1f %-8.1f %-8.1f", p50, p95, p99)
}

// percentiles builds the manifest's percentile map (nil when -hist is off
// and the quantiles were never collected).
func percentiles(on bool, p50, p95, p99 float64) map[string]float64 {
	if !on {
		return nil
	}
	return map[string]float64{"p50": p50, "p95": p95, "p99": p99}
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

// writeManifest emits the JSON run manifest when -manifest is set. router is
// nil for runs without router telemetry (the materialized BFS path); samples
// holds one flattened stat map per -repeat repetition (recorded when there is
// more than one, so single-run manifests keep their historical shape). A
// manifest path of "-" writes to stdout.
func (o obsOpts) writeManifest(name string, cfg map[string]any, seed int64, stats any,
	pct map[string]float64, router *obs.RouterStats, samples []map[string]float64,
	ratio int, rate float64, multi bool) {
	if o.manifest == "" {
		return
	}
	m := obs.Manifest{
		Run: name, Config: cfg, Seed: seed, Stats: stats,
		Percentiles: pct, Router: router, Env: o.env,
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
				ext := filepath.Ext(name)
				exitIf(writeTo(strings.TrimSuffix(name, ext)+".modules"+ext, c.ts.WriteModulesCSV))
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

// superNet assembles the super-IP specification for the simulate families.
func superNet(name string, l int, nucleus string, sym bool) (*superip.Net, error) {
	var nuc superip.NucleusSpec
	switch {
	case strings.HasPrefix(nucleus, "FQ"):
		n, err := strconv.Atoi(nucleus[2:])
		if err != nil {
			return nil, err
		}
		nuc = superip.NucleusFoldedHypercube(n)
	case strings.HasPrefix(nucleus, "Q"):
		n, err := strconv.Atoi(nucleus[1:])
		if err != nil {
			return nil, err
		}
		nuc = superip.NucleusHypercube(n)
	default:
		return nil, fmt.Errorf("unknown nucleus %q", nucleus)
	}
	var net *superip.Net
	switch name {
	case "HSN":
		net = superip.HSN(l, nuc)
	case "ringCN":
		net = superip.RingCN(l, nuc)
	case "CN":
		net = superip.CompleteCN(l, nuc)
	case "SFN":
		net = superip.SuperFlip(l, nuc)
	default:
		return nil, fmt.Errorf("unknown super-IP family %q", name)
	}
	if sym {
		net = net.SymmetricVariant()
	}
	return net, nil
}

// buildSystem materializes the requested network. For super-IP families it
// also returns the specification and label index so callers can attach the
// algebraic router; both are nil for classical networks.
func buildSystem(name string, l int, nucleus string, sym bool, dim, module, rows, cols int) (*graph.Graph, metrics.Partition, string, *superip.Net, *core.Index, error) {
	switch name {
	case "HSN", "ringCN", "CN", "SFN":
		net, err := superNet(name, l, nucleus, sym)
		if err != nil {
			return nil, metrics.Partition{}, "", nil, nil, err
		}
		g, ix, err := net.BuildWithIndex()
		if err != nil {
			return nil, metrics.Partition{}, "", nil, nil, err
		}
		return g, metrics.NucleusPartition(ix, net.Nucleus.Nuc.M()), net.Name(), net, ix, nil
	case "hypercube":
		g, err := networks.Hypercube{Dim: dim}.Build()
		if err != nil {
			return nil, metrics.Partition{}, "", nil, nil, err
		}
		return g, metrics.SubcubePartition(g.N(), module), fmt.Sprintf("Q%d/Q%d", dim, module), nil, nil, nil
	case "torus":
		g, err := networks.Torus2D{Rows: rows, Cols: cols}.Build()
		if err != nil {
			return nil, metrics.Partition{}, "", nil, nil, err
		}
		p, err := metrics.GridPartition(rows, cols, module, module)
		if err != nil {
			return nil, metrics.Partition{}, "", nil, nil, err
		}
		return g, p, fmt.Sprintf("torus(%dx%d)/%dx%d", rows, cols, module, module), nil, nil, nil
	}
	return nil, metrics.Partition{}, "", nil, nil, fmt.Errorf("unknown network %q", name)
}

// runImplicitSweep is the -implicit path: the ratio x rate sweep of main,
// executed by the sparse simulator over the implicit topology with algebraic
// routing. Nothing O(N) is allocated, so instances far beyond the
// materializable ceiling (superip.Net.Build refuses N > 2^21) simulate in
// memory proportional to the in-flight packet population. With -faults the
// algebraic router is wrapped in the fault-aware rerouter and the plan is
// drawn in id space (RandomFaults.PlanTopo) — degraded-mode runs need no
// graph either. Observability collectors ride along through the probe
// hooks, with modules resolved algebraically (Implicit.Module), and every
// row is followed by the router's cache/reroute telemetry. With shards > 0
// the sweep runs on the sharded engine instead: nodes are partitioned into
// module-owned lanes stepped by that many worker goroutines, with per-lane
// topology/router/fault-sink instances built by a lane factory (none of the
// algebraic oracles need to be goroutine-safe that way). Stats are
// deterministic in everything but wall-clock — any shard count yields the
// same numbers for a fixed seed.
func runImplicitSweep(netName string, l int, nucleus string, sym bool, ratios []int, rates []float64, cycles, warmup int, seed int64,
	nFaults int, mtbf float64, repair int, nodeFrc float64, shards int, o obsOpts) {
	net, err := superNet(netName, l, nucleus, sym)
	exitIf(err)
	imp, err := topo.NewImplicit(net.Super())
	exitIf(err)
	r, err := topo.NewAlgebraic(net.Super())
	exitIf(err)
	fmt.Fprintf(console, "%s (implicit): N=%d modules=%d degree=%d diameter=%d I-diameter=%d\n",
		net.Name(), imp.N(), imp.Modules(), net.Degree(), net.Diameter(), net.IDiameter())

	var plan *netsim.FaultPlan
	var fs *topo.FaultSet
	if nFaults > 0 {
		plan, err = netsim.RandomFaults{
			MTBF:         mtbf,
			RepairTime:   repair,
			NodeFraction: nodeFrc,
			Start:        warmup,
			Horizon:      warmup + cycles,
			MaxFaults:    nFaults,
			Seed:         seed,
		}.PlanTopo(imp)
		exitIf(err)
		fs = topo.NewFaultSet()
		fmt.Fprintf(console, "fault plan: %d events (mtbf %.0f, repair %d, node fraction %.2f)\n",
			plan.Len(), mtbf, repair, nodeFrc)
	}

	histCols := ""
	if o.hist {
		histCols = fmt.Sprintf(" %-8s %-8s %-8s", "p50", "p95", "p99")
	}
	if plan == nil {
		fmt.Fprintf(console, "%-8s %-8s %-10s %-10s %-8s %-10s %-8s%s\n",
			"ratio", "rate", "injected", "delivered", "expired", "avg-lat", "max-lat", histCols)
	} else {
		fmt.Fprintf(console, "%-8s %-8s %-10s %-10s %-6s %-8s %-6s %-10s %-9s %-9s %-9s%s\n",
			"ratio", "rate", "injected", "delivered", "lost", "expired", "drops", "avg-lat", "degraded", "reroutes", "detours", histCols)
	}
	// Lane factory for the sharded engine: each lane gets private instances
	// of the implicit topology and the algebraic router (plus, under faults,
	// its own fault-aware wrapper and sink), because none of them is
	// required to be safe for concurrent use.
	newLane := func() (netsim.Topology, netsim.Router, netsim.FaultSink, error) {
		lt, err := topo.NewImplicit(net.Super())
		if err != nil {
			return nil, nil, nil, err
		}
		lr, err := topo.NewAlgebraic(net.Super())
		if err != nil {
			return nil, nil, nil, err
		}
		if plan == nil {
			return lt, lr, nil, nil
		}
		lfs := topo.NewFaultSet()
		return lt, topo.NewFaultAware(lt, lr, lfs), lfs, nil
	}

	name := net.Name() + " (implicit)"
	multi := len(ratios)*len(rates) > 1
	for _, ratio := range ratios {
		for _, rate := range rates {
			var samples []map[string]float64
			var headStats any
			var headPct map[string]float64
			var headRouter *obs.RouterStats
			for rep := 0; rep < o.repeat; rep++ {
				pb, col := o.build(imp.Module)
				// record takes the run's stats at their own type, so every
				// path keeps its manifest keys; st is their FaultStats view.
				record := func(stats any, st netsim.FaultStats, router obs.RouterStats) {
					pct := percentiles(o.hist, st.P50Latency, st.P95Latency, st.P99Latency)
					samples = append(samples, obs.Manifest{Stats: stats, Percentiles: pct, Router: &router}.Flatten())
					if rep > 0 {
						return
					}
					headStats, headPct, headRouter = stats, pct, &router
					if plan == nil {
						fmt.Fprintf(console, "%-8d %-8.4f %-10d %-10d %-8d %-10.2f %-8d%s\n",
							ratio, rate, st.Injected, st.Delivered, st.Expired, st.AvgLatency, st.MaxLatency,
							quantileCols(o.hist, st.P50Latency, st.P95Latency, st.P99Latency))
					} else {
						fmt.Fprintf(console, "%-8d %-8.4f %-10d %-10d %-6d %-8d %-6d %-10.2f %-9d %-9d %-9d%s\n",
							ratio, rate, st.Injected, st.Delivered, st.Lost, st.Expired, st.HopLimitDrops,
							st.AvgLatency, st.DeliveredDegraded, st.RerouteEvents, st.MisroutedHops,
							quantileCols(o.hist, st.P50Latency, st.P95Latency, st.P99Latency))
					}
					exitIf(router.WriteText(console))
					col.export(o, ratio, rate, multi)
				}
				if shards > 0 {
					st, err := netsim.RunSharded(netsim.ShardedConfig{
						NewLane:         newLane,
						Space:           imp,
						OffModulePeriod: ratio,
						InjectionRate:   rate,
						WarmupCycles:    warmup,
						MeasureCycles:   cycles,
						Seed:            seed + int64(rep),
						Shards:          shards,
						Plan:            plan,
						Probe:           pb,
					})
					exitIf(err)
					record(st, st.FaultStats, st.Router)
					continue
				}
				cfg := netsim.ImplicitConfig{
					Topo:            imp,
					Router:          r,
					OffModulePeriod: ratio,
					InjectionRate:   rate,
					WarmupCycles:    warmup,
					MeasureCycles:   cycles,
					Seed:            seed + int64(rep),
					Probe:           pb,
				}
				if ratio > 1 {
					cfg.ModuleOf = imp.Module
				}
				if plan == nil {
					if o.live != nil {
						// The sampler calls this on the simulation goroutine,
						// between cycles — single-goroutine routers are safe.
						o.live.RouterSource(r.RouterStats)
					}
					st, err := netsim.RunImplicit(cfg)
					exitIf(err)
					record(st, netsim.FaultStats{Stats: st.Stats}, st.Router)
					continue
				}
				// Fresh fault state per run: the scheduler re-applies the plan,
				// and the router's suffix cache starts clean.
				fs.Reset()
				fa := topo.NewFaultAware(imp, r, fs)
				cfg.Router = fa
				if o.live != nil {
					o.live.RouterSource(fa.RouterStats)
				}
				st, err := netsim.RunImplicitFaulty(cfg, netsim.ImplicitFaultConfig{Plan: plan, Faults: fs})
				exitIf(err)
				record(st, st.FaultStats, st.Router)
			}
			o.writeManifest(name, runConfig(ratio, rate, warmup, cycles, nFaults, shards), seed,
				headStats, headPct, headRouter, samples, ratio, rate, multi)
		}
	}
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
