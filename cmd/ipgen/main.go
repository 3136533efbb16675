// Command ipgen builds any supported interconnection network and reports its
// topological statistics, optionally dumping the graph in DOT format.
//
// Usage:
//
//	ipgen -net HSN -l 3 -nucleus Q2 [-sym] [-dot] [-istats]
//	ipgen -net hypercube -dim 8
//	ipgen -net star -dim 6
//	ipgen -net torus -rows 8 -cols 8
//	ipgen -net hcn -dim 4
//
// Supported -net values: HSN, ringCN, CN, dirCN, SFN, RCC, QCN, hypercube,
// foldedhypercube, star, torus, karyn, ccc, debruijn, shuffleexchange,
// petersen, ring, complete, hcn, hfn, hhn.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/benchkit"
	"repro/internal/bisect"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/networks"
	"repro/internal/obs"
	"repro/internal/superip"
	"repro/internal/topo"
)

func main() {
	var (
		netName = flag.String("net", "HSN", "network family")
		l       = flag.Int("l", 2, "number of levels / super-symbols (super-IP families)")
		nucleus = flag.String("nucleus", "Q2", "nucleus: Qn, FQn, Kn, Sn, SEn, or P")
		sym     = flag.Bool("sym", false, "symmetric (distinct-seed) variant")
		dim     = flag.Int("dim", 4, "dimension (hypercube, star, ccc, ...)")
		k       = flag.Int("k", 4, "radix for k-ary n-cubes / de Bruijn base")
		rows    = flag.Int("rows", 4, "torus/mesh rows")
		cols    = flag.Int("cols", 4, "torus/mesh cols")
		a       = flag.Int("a", 7, "QCN: nucleus hypercube dimension")
		b       = flag.Int("b", 3, "QCN: merged subcube dimension")
		dot     = flag.Bool("dot", false, "emit Graphviz DOT instead of stats")
		istats  = flag.Bool("istats", false, "measure inter-cluster stats (super-IP families)")
		kappa   = flag.Bool("kappa", false, "measure exact vertex/edge connectivity")
		bisectN = flag.Bool("bisect", false, "estimate bisection width (exact <= 24 nodes, else Kernighan-Lin)")
		lay     = flag.Bool("layout", false, "place on a grid (recursive bisection) and report wire cost")
		bonly   = flag.Bool("buildonly", false, "skip all-pairs statistics; report size, degree, and build time only")
		impl    = flag.Bool("implicit", false, "super-IP families: skip the build entirely and report analytic plus sampled-route statistics from the implicit topology")
		pairs   = flag.Int("pairs", 2000, "sampled (src,dst) pairs for -implicit route statistics")
		seed    = flag.Int64("seed", 1, "sampling seed for -implicit")
		prog    = flag.Bool("progress", false, "super-IP families: print one build-instrumentation line per BFS level to stderr (frontier, new and total nodes, level wall time, label arena bytes)")
		manif   = flag.String("manifest", "", "super-IP families: write a JSON build manifest (config, env metadata, per-level build metrics) to this file; \"-\" writes to stdout")
	)
	analyze = func(g *graph.Graph) {
		if *kappa {
			k, err := faults.VertexConnectivity(g)
			exitIf(err)
			lam, err := faults.EdgeConnectivity(g)
			exitIf(err)
			fmt.Fprintf(console, "vertex-connectivity=%d edge-connectivity=%d min-degree=%d\n", k, lam, g.MinDegree())
		}
		if *bisectN {
			if g.N() <= 24 {
				w, err := bisect.Exact(g)
				exitIf(err)
				fmt.Fprintf(console, "bisection=%d (exact) layout-area-LB=%d\n", w, bisect.AreaLowerBound(w))
			} else {
				w, err := bisect.KernighanLin(g, 8, 1)
				exitIf(err)
				fmt.Fprintf(console, "bisection<=%d (Kernighan-Lin) layout-area-LB<=%d\n", w, bisect.AreaLowerBound(w))
			}
		}
		if *lay {
			p, err := layout.RecursiveBisection(g, 1)
			exitIf(err)
			res := layout.Measure(g, p)
			fmt.Fprintf(console, "layout: grid=%dx%d total-wire=%d max-wire=%d avg-wire=%.2f\n",
				p.Cols, p.Rows, res.TotalWirelength, res.MaxWirelength, res.AvgWirelength)
		}
	}
	flag.Parse()

	if *manif == "-" {
		// The build manifest owns stdout; keep it machine-parseable by
		// moving the human-readable stats lines to stderr.
		console = os.Stderr
	}

	buildOnly = *bonly
	if *prog || *manif != "" {
		buildRec = newBuildRecorder(*prog, *manif)
	}

	switch *netName {
	case "HSN", "ringCN", "CN", "dirCN", "SFN", "RCC":
		if *impl {
			runImplicit(*netName, *l, *nucleus, *sym, *pairs, *seed)
			return
		}
		runSuperIP(*netName, *l, *nucleus, *sym, *dot, *istats)
	case "QCN":
		q := superip.QuotientCN{L: *l, A: *a, B: *b}
		g, err := q.Build()
		exitIf(err)
		report(q.Name(), g, *dot)
	case "hcn":
		buildAndReport(hier.HCN{Dim: *dim, DiameterLinks: true}, *dot)
	case "hfn":
		buildAndReport(hier.HFN{Dim: *dim}, *dot)
	case "hhn":
		buildAndReport(hier.HHN{M: *dim}, *dot)
	default:
		spec, err := classical(*netName, *dim, *k, *rows, *cols)
		exitIf(err)
		buildAndReport(spec, *dot)
	}
}

// analyze optionally runs the -kappa / -bisect analyses after report.
var analyze func(*graph.Graph)

// buildRec, when non-nil, receives per-level instrumentation from super-IP
// builds (-progress / -manifest flags).
var buildRec *buildRecorder

// buildRecorder bridges core.LevelStats into an obs.Registry (for the build
// manifest) and optionally prints one progress line per BFS level, ending
// the "builder runs blind for ten seconds" regime on large instances.
type buildRecorder struct {
	reg          *obs.Registry
	print        bool
	manifestPath string
	start        time.Time
}

func newBuildRecorder(print bool, manifestPath string) *buildRecorder {
	return &buildRecorder{reg: obs.NewRegistry(), print: print, manifestPath: manifestPath}
}

// observe implements the core.BuildOptions.Observe callback: cumulative
// level times and expansion counters become registry counters, occupancy
// figures become gauges, and -progress renders the level as one line.
func (r *buildRecorder) observe(ls core.LevelStats) {
	if r.start.IsZero() {
		r.start = time.Now()
	}
	r.reg.Gauge("build.levels").Set(int64(ls.Level + 1))
	r.reg.Gauge("build.nodes").Set(int64(ls.TotalNodes))
	r.reg.Gauge("build.frontier").Set(int64(ls.FrontierNodes))
	if peak := r.reg.Gauge("build.frontier_peak"); int64(ls.FrontierNodes) > peak.Value() {
		peak.Set(int64(ls.FrontierNodes))
	}
	r.reg.Counter("build.new_nodes").Add(int64(ls.NewNodes))
	r.reg.Counter("build.arc_slots").Add(int64(ls.ArcSlots))
	r.reg.Counter("build.expand_ns").Add(ls.Expand.Nanoseconds())
	r.reg.Gauge("build.intern_arena_bytes").Set(ls.InternArenaBytes)
	r.reg.Hist("build.level_new_nodes").Observe(int64(ls.NewNodes))
	if r.print {
		fmt.Fprintf(os.Stderr,
			"level %-3d frontier %-9d new %-9d total %-9d | expand %-9s | intern %s\n",
			ls.Level, ls.FrontierNodes, ls.NewNodes, ls.TotalNodes,
			roundDur(ls.Expand), fmtBytes(ls.InternArenaBytes))
	}
}

func roundDur(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }

// finish writes the build manifest (config, env metadata, accumulated
// registry metrics) when -manifest asked for one.
func (r *buildRecorder) finish(name string, config map[string]any) {
	if r.manifestPath == "" {
		return
	}
	env := benchkit.CollectEnv()
	m := obs.Manifest{Run: name, Config: config, Env: &env, Metrics: r.reg.Snapshot()}
	if r.manifestPath == "-" {
		exitIf(m.WriteJSON(os.Stdout))
		return
	}
	f, err := os.Create(r.manifestPath)
	exitIf(err)
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		exitIf(err)
	}
	exitIf(f.Close())
}

// buildOnly suppresses the all-pairs statistics in report: BFS from every
// node is infeasible on million-node builds where construction itself takes
// only seconds.
var buildOnly bool

type buildable interface {
	Name() string
	Build() (*graph.Graph, error)
}

func classical(name string, dim, k, rows, cols int) (buildable, error) {
	switch name {
	case "hypercube":
		return networks.Hypercube{Dim: dim}, nil
	case "foldedhypercube":
		return networks.FoldedHypercube{Dim: dim}, nil
	case "star":
		return networks.Star{Symbols: dim}, nil
	case "torus":
		return networks.Torus2D{Rows: rows, Cols: cols}, nil
	case "karyn":
		return networks.KAryNCube{K: k, Dims: dim}, nil
	case "ccc":
		return networks.CCC{Dim: dim}, nil
	case "debruijn":
		return networks.DeBruijn{Base: k, Dim: dim}, nil
	case "shuffleexchange":
		return networks.ShuffleExchange{Dim: dim}, nil
	case "petersen":
		return networks.Petersen{}, nil
	case "ring":
		return networks.Ring{Nodes: dim}, nil
	case "complete":
		return networks.Complete{Nodes: dim}, nil
	}
	return nil, fmt.Errorf("unknown network %q", name)
}

// runImplicit reports a super-IP network without ever materializing it: the
// analytic statistics come from the closed forms, the routed statistics from
// sampling algebraic routes over the implicit topology. Memory stays O(1) in
// N, so this works far beyond the -buildonly ceiling.
func runImplicit(family string, l int, nucleus string, sym bool, pairs int, seed int64) {
	net, err := superip.Parse(family, l, nucleus, sym)
	exitIf(err)
	imp, err := topo.NewImplicit(net.Super())
	exitIf(err)
	r, err := topo.NewAlgebraic(net.Super())
	exitIf(err)
	fmt.Fprintf(console, "%s: analytic N=%d degree=%d diameter=%d I-diameter=%d modules=%d\n",
		net.Name(), imp.N(), net.Degree(), net.Diameter(), net.IDiameter(), imp.Modules())
	start := time.Now()
	s, err := metrics.SampleRoutes(imp, r, pairs, seed)
	exitIf(err)
	elapsed := time.Since(start)
	fmt.Fprintf(console, "implicit: pairs=%d avg-hops=%.3f max-hops=%d (bound %d) avg-off-module=%.3f max-off-module=%d (bound %d)\n",
		s.Pairs, s.AvgHops, s.MaxHops, net.Diameter(), s.AvgOffModule, s.MaxOffModule, net.IDiameter())
	fmt.Fprintf(console, "routed-in=%s peak-rss=%s\n", elapsed.Round(time.Millisecond), fmtBytes(peakRSSBytes()))
}

// fmtBytes renders a byte count with a binary-unit suffix, "unknown" for 0.
func fmtBytes(b int64) string {
	switch {
	case b <= 0:
		return "unknown"
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%dKiB", b/1024)
	}
}

func runSuperIP(family string, l int, nucleus string, sym, dot, istats bool) {
	net, err := superip.Parse(family, l, nucleus, sym)
	exitIf(err)
	fmt.Fprintf(console, "%s: analytic N=%d degree=%d diameter=%d I-diameter=%d\n",
		net.Name(), net.N(), net.Degree(), net.Diameter(), net.IDiameter())
	if buildRec != nil {
		net.Observe = buildRec.observe
	}
	start := time.Now()
	g, ix, err := net.BuildWithIndex()
	buildElapsed = time.Since(start)
	if err != nil {
		fmt.Fprintf(console, "(not built: %v)\n", err)
		return
	}
	if buildRec != nil {
		buildRec.finish(net.Name(), map[string]any{
			"family": family, "l": l, "nucleus": nucleus, "sym": sym,
			"build_ms": buildElapsed.Milliseconds(),
		})
	}
	report(net.Name(), g, dot)
	if istats {
		p := metrics.NucleusPartition(ix, net.Nucleus.Nuc.M())
		st := metrics.IStats(g, p)
		fmt.Fprintf(console, "modules=%d module-size=%d I-degree=%.3f I-diameter=%d avg-I-distance=%.3f\n",
			p.K, p.MaxClusterSize(), metrics.IDegree(g, p), st.Diameter, st.AvgDistance)
	}
}

func buildAndReport(spec buildable, dot bool) {
	start := time.Now()
	g, err := spec.Build()
	buildElapsed = time.Since(start)
	exitIf(err)
	report(spec.Name(), g, dot)
}

// buildElapsed is the wall-clock time of the most recent graph construction,
// printed by report in -buildonly mode.
var buildElapsed time.Duration

func report(name string, g *graph.Graph, dot bool) {
	if dot {
		fmt.Print(g.DOT(sanitize(name)))
		return
	}
	if buildOnly {
		fmt.Fprintf(console, "%s: N=%d edges=%d degree=%d..%d built-in=%s peak-rss=%s\n",
			name, g.N(), g.NumEdges(), g.MinDegree(), g.MaxDegree(),
			buildElapsed.Round(time.Millisecond), fmtBytes(peakRSSBytes()))
		if analyze != nil {
			analyze(g)
		}
		return
	}
	st := g.Symmetrized().AllPairs()
	fmt.Fprintf(console, "%s: N=%d edges=%d degree=%d..%d diameter=%d avg-distance=%.3f connected=%v\n",
		name, g.N(), g.NumEdges(), g.MinDegree(), g.MaxDegree(),
		st.Diameter, st.AvgDistance, st.Connected)
	if analyze != nil {
		analyze(g)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			out = append(out, r)
		} else {
			out = append(out, '_')
		}
	}
	return string(out)
}

// console receives the human-readable stats output. It is stdout except
// under -manifest -, where the manifest JSON owns stdout and the stats
// lines move to stderr.
var console io.Writer = os.Stdout

func exitIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipgen: %v\n", err)
		os.Exit(1)
	}
}
