// Command obsdiff compares two run manifests written by `simulate -manifest`
// (or `ipgen -manifest`) with the same statistical discipline cmd/bench
// applies to benchmark records: every numeric quantity in each manifest is
// flattened to a dotted metric name ("stats.AvgLatency", "percentiles.p99",
// "stats.Router.Reroutes", the derived "router.CacheHitRate", ...), the two
// sides' samples are rank-tested with
// Mann-Whitney, and -budget turns significant regressions into a non-zero
// exit for CI.
//
// Usage:
//
//	obsdiff old.json new.json
//	obsdiff -budget 'stats.AvgLatency:+10%,percentiles.p99:+15%' old.json new.json
//	obsdiff -metrics 'stats\.' -allow-env-mismatch old.json new.json
//
// A manifest recorded with `simulate -repeat n` carries one sample per
// repetition, giving the rank test real distributions; a single-run manifest
// contributes one sample per metric, and the gate falls back to comparing
// medians alone (marked '?' in the table).
//
// Manifests recording mismatched environments (different CPU, Go version,
// GOMAXPROCS — see benchkit.EnvMismatch) are refused, because cross-machine
// deltas are not attributable to the code; -allow-env-mismatch downgrades
// the refusal to a warning.
//
// Exit status: 0 when no budget is violated (or none given), 1 when a
// significant regression exceeds its budget, 2 on usage errors or an
// environment refusal.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"

	"repro/internal/benchkit"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	budget := fs.String("budget", "", "regression budgets over flattened metric names, comma-separated pattern:+N% entries (e.g. 'stats.AvgLatency:+10%,percentiles.p99:+15%'); exit 1 when a budgeted metric regresses past its limit")
	allowEnv := fs.Bool("allow-env-mismatch", false, "compare manifests from different environments anyway (the refusal becomes a warning)")
	metricsRe := fs.String("metrics", "", "only compare flattened metric names matching this regexp")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: obsdiff [flags] old-manifest.json new-manifest.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	oldM, err := obs.ReadManifestFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "obsdiff: %v\n", err)
		return 2
	}
	newM, err := obs.ReadManifestFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "obsdiff: %v\n", err)
		return 2
	}

	if oldM.Env != nil && newM.Env != nil {
		if mm := benchkit.EnvMismatch(*oldM.Env, *newM.Env); len(mm) > 0 {
			for _, d := range mm {
				fmt.Fprintf(stderr, "obsdiff: environment mismatch — %s\n", d)
			}
			if !*allowEnv {
				fmt.Fprintln(stderr, "obsdiff: refusing to compare runs from different environments (cross-machine deltas are not attributable to the code); pass -allow-env-mismatch to compare anyway")
				return 2
			}
			fmt.Fprintln(stderr, "obsdiff: comparing anyway (-allow-env-mismatch); deltas may reflect the machines, not the runs")
		}
	}

	var filter *regexp.Regexp
	if *metricsRe != "" {
		filter, err = regexp.Compile(*metricsRe)
		if err != nil {
			fmt.Fprintf(stderr, "obsdiff: bad -metrics regexp: %v\n", err)
			return 2
		}
	}

	oldRun := valueRun("old", oldM)
	newRun := valueRun("new", newM)
	fmt.Fprintf(stdout, "old: %s seed %d (%d samples)\n", oldM.Run, oldM.Seed, sampleCount(oldM))
	fmt.Fprintf(stdout, "new: %s seed %d (%d samples)\n", newM.Run, newM.Seed, sampleCount(newM))

	deltas := benchkit.Diff(oldRun, newRun, []string{benchkit.ValueUnit})
	if filter != nil {
		kept := deltas[:0]
		for _, d := range deltas {
			if filter.MatchString(d.Name) {
				kept = append(kept, d)
			}
		}
		deltas = kept
	}
	benchkit.FormatTable(stdout, deltas)

	if *budget == "" {
		return 0
	}
	budgets, err := benchkit.ParseBudgets(*budget)
	if err != nil {
		fmt.Fprintf(stderr, "obsdiff: %v\n", err)
		return 2
	}
	// ParseBudgets defaults each entry's metric to cmd/bench's "ns/op"; here
	// every sample lives under the single ValueUnit axis (the metric name is
	// the "benchmark"), so the default is remapped rather than never matching.
	for i := range budgets {
		if budgets[i].Metric == "ns/op" {
			budgets[i].Metric = benchkit.ValueUnit
		}
	}
	violations := benchkit.Gate(deltas, budgets)
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "gate: ok (%d budget(s) satisfied)\n", len(budgets))
		return 0
	}
	for _, v := range violations {
		fmt.Fprintf(stdout, "gate: VIOLATION %s\n", v)
	}
	return 1
}

// samplesOf returns the distributions to rank-test: the recorded repeat
// samples when present, else a single observation flattened from the
// manifest's headline sections.
func samplesOf(m obs.Manifest) []map[string]float64 {
	if len(m.Samples) > 0 {
		return m.Samples
	}
	return []map[string]float64{m.Flatten()}
}

func sampleCount(m obs.Manifest) int { return len(samplesOf(m)) }

func valueRun(id string, m obs.Manifest) *benchkit.Run {
	var env benchkit.Env
	if m.Env != nil {
		env = *m.Env
	}
	return benchkit.ValueRun(id, env, samplesOf(m))
}
