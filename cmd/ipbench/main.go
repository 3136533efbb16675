// Command ipbench is the repository's end-to-end benchmark. It runs one
// workload per process — algebraic routing, graph building, or packet
// simulation — for a given number of seconds and prints the workload's
// metrics as JSON, checking every output along the way.
//
//	go run . -workload sim-hsn25-uniform -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the last line holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics of a run that times each layer's calls through
// wrappers around the interfaces they are made through. The line before it
// holds the workload's own named values. The exit code is non-zero when an
// output fails its check. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "how long to keep running measured rounds")
	trace := flag.Int("trace", 0, "1 runs traced rounds beside untraced ones and reports per-layer metrics")
	traceOut := flag.String("traceout", "", "with -trace 1, write sampled layer spans to this Chrome trace-event file")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ipbench: need -workload one of %s, -trace 0 or 1, and -seconds >= 0\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	rep, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil && rep.attempted == 0 {
		fmt.Fprintf(os.Stderr, "ipbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipbench: %s: check failed: %v\n", *name, err)
	}
	if *traceOut != "" && *trace == 1 {
		if werr := writeChromeTrace(*traceOut, rep.spans); werr != nil {
			fmt.Fprintf(os.Stderr, "ipbench: %v\n", werr)
			os.Exit(1)
		}
	}
	detail := map[string]any{"workload": *name, "seed": *seed, "rounds": rep.rounds,
		"digest": rep.digest, "metrics": rep.detail}
	printJSON(detail)
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	result := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{err == nil, rep.attempted, rep.failed, map[string]any{}}
	for _, d := range defs {
		result.Metrics[d.name] = valued{rep.metrics[d.name], d.unit}
	}
	printJSON(result)
	if err != nil {
		os.Exit(1)
	}
}

type valued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// report is the outcome of one measured run.
type report struct {
	rounds            int
	attempted, failed int64
	digest            string
	metrics           map[string]float64 // the metrics BENCHMARK.json names
	detail            map[string]valued  // the workload's own named values
	spans             []span
}

// measure prepares the workload's inputs from seed, runs a warm-up round
// that fixes the reference outputs, then runs measured rounds until d has
// passed, at least one. A traced run follows every untraced round with a
// traced one. Every round must reproduce the warm-up round's outputs.
func measure(w workload, seed int64, d time.Duration, traced bool) (report, error) {
	rep := report{metrics: map[string]float64{}, detail: map[string]valued{}}
	round, err := w.prepare(seed)
	if err != nil {
		return rep, fmt.Errorf("prepare inputs: %w", err)
	}
	pf := w.profile()
	probe, err := newHostProbe()
	if err != nil {
		return rep, err
	}
	defer probe.close()
	var plain, withTrace []outcome
	check := func(o outcome, err error, kind string) error {
		rep.attempted += o.attempted
		rep.failed += o.failed
		if err == nil && o.digest != rep.digest {
			err = fmt.Errorf("%s round outputs %s, warm-up round %s", kind, o.digest, rep.digest)
		}
		if err != nil && o.failed == 0 {
			rep.failed++
		}
		return err
	}
	// The warm-up round builds lazily initialised state (the runtime's heap,
	// code paths) before timing, and its outputs are the reference.
	runtime.GC()
	warm, err := round(nil)
	rep.digest = warm.digest
	if err := check(warm, err, "warm-up"); err != nil {
		return rep, err
	}
	origin := time.Now()
	deadline := origin.Add(d)
	for len(plain) == 0 || time.Now().Before(deadline) {
		// Each round starts on a collected heap, so garbage one round
		// leaves is not collected on the next round's time.
		runtime.GC()
		before := probe.run(pf.workers)
		o, err := round(nil)
		o.host = before.mean(probe.run(pf.workers))
		if err := check(o, err, "untraced"); err != nil {
			return rep, err
		}
		plain = append(plain, o)
		if traced {
			runtime.GC()
			o, err := round(&origin)
			if err := check(o, err, "traced"); err != nil {
				return rep, err
			}
			withTrace = append(withTrace, o)
		}
	}
	rep.rounds = len(plain)

	var setup, rate, quietRate, work, memProbe, cpuProbe, mem []float64
	var ops int64
	var res resources
	var routeUs []float64
	for _, o := range plain {
		f := o.host.quietFactor()
		r := float64(o.ops) / o.work.Seconds()
		setup = append(setup, o.setup.Seconds()*f)
		rate = append(rate, r)
		quietRate = append(quietRate, r/f)
		work = append(work, o.work.Seconds())
		memProbe = append(memProbe, o.host.mem.Seconds()*1e3)
		cpuProbe = append(cpuProbe, o.host.cpu.Seconds()*1e3)
		mem = append(mem, float64(o.peakMem)/(1<<20))
		ops += o.ops
		res = res.add(o.res)
		for _, ns := range o.routeNs {
			routeUs = append(routeUs, float64(ns)/1e3)
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rep, fmt.Errorf("getrusage: %w", err)
	}
	rep.metrics["setup_s"] = median(setup)
	// Contention only ever slows a round down, so the fastest quarter of the
	// corrected rounds is the least disturbed.
	rep.metrics["ops_per_s"] = quantile(quietRate, 0.75)
	rep.metrics["allocs_per_op"] = float64(res.mallocs) / float64(ops)
	rep.metrics["peak_mem_mib"] = median(mem)

	rep.detail[pf.rate] = valued{median(rate), pf.rateUnit}
	// Linux reports KiB. The probe's buffer is the benchmark's, not the
	// workload's.
	rep.detail["peak_rss_mib"] = valued{float64(ru.Maxrss)/1024 - probeBytes/(1<<20), "MiB"}
	rep.detail["round_s"] = valued{median(work), "s"}
	rep.detail["probe_mem_ms"] = valued{median(memProbe), "ms"}
	rep.detail["probe_cpu_ms"] = valued{median(cpuProbe), "ms"}
	if pf.quality != "" {
		rep.detail[pf.quality] = valued{warm.quality, pf.qualityUnit}
	}
	if len(routeUs) > 0 {
		for _, q := range []struct {
			name string
			q    float64
		}{{"route_us_p50", 0.50}, {"route_us_p95", 0.95}, {"route_us_p99", 0.99}} {
			rep.detail[q.name] = valued{quantile(routeUs, q.q), "us"}
		}
	}
	rep.detail["ops_failed_frac"] = valued{float64(rep.failed) / float64(rep.attempted), "frac"}
	if !traced {
		return rep, nil
	}

	rep.metrics = map[string]float64{}
	var tracedWork, tracedNsPerOp []float64
	values := map[string][]float64{}
	for _, o := range withTrace {
		tracedWork = append(tracedWork, o.work.Seconds())
		tracedNsPerOp = append(tracedNsPerOp, float64(o.work.Nanoseconds())/float64(o.ops))
		for k, v := range o.layers {
			values[k] = append(values[k], v)
		}
		rep.spans = append(rep.spans, o.spans...)
	}
	for k, vs := range values {
		rep.metrics[k] = median(vs)
	}
	rep.metrics["runtime.gc_cpu_share"] = ratio(res.gcCPU, res.totalCPU-res.idleCPU)
	rep.metrics["runtime.alloc_bytes_per_op"] = float64(res.allocBytes) / float64(ops)
	rep.metrics["trace.overhead_frac"] = median(tracedWork)/median(work) - 1
	attributed := 0.0
	for _, d := range perLayer {
		if strings.HasSuffix(d.name, "share") && !strings.HasPrefix(d.name, "runtime.") {
			attributed += rep.metrics[d.name]
		}
	}
	rep.detail["trace.unattributed_share"] = valued{1 - attributed, "frac"}
	rep.detail["trace.ns_per_op"] = valued{median(tracedNsPerOp), "ns"}
	return rep, nil
}
