package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMain lets the tests below run the command end to end: with
// SIMULATE_MAIN=1 in its environment the test binary is simulate itself.
func TestMain(m *testing.M) {
	if os.Getenv("SIMULATE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// simulate runs the command in a child process and returns its stdout,
// stderr and exit code.
func simulate(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SIMULATE_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// fromRow returns the output from the first table row starting with prefix
// to the end: that row and the router telemetry that follows it.
func fromRow(t *testing.T, out, prefix string) string {
	t.Helper()
	i := strings.Index(out, "\n"+prefix)
	if i < 0 {
		t.Fatalf("no row starting %q in:\n%s", prefix, out)
	}
	return out[i+1:]
}

// saturated is a sym-HSN(3;Q2) implicit run driven past saturation, so
// packets are still in flight at the drain deadline and their routes are
// left in the router's store.
var saturated = []string{"-net", "HSN", "-l", "3", "-nucleus", "Q2", "-sym", "-implicit",
	"-cycles", "40", "-warmup", "10"}

// TestSweepRunsIndependent pins that every run of a sweep starts from fresh
// simulator state: a combination's row (with its router telemetry) is the
// same inside a multi-combination sweep as when it runs alone, and each
// -repeat sample is the same as a separate run with that seed.
func TestSweepRunsIndependent(t *testing.T) {
	args := func(extra ...string) []string { return append(append([]string{}, saturated...), extra...) }

	sweep, _, code := simulate(t, args("-ratios", "4,16", "-rates", "0.9")...)
	if code != 0 {
		t.Fatalf("sweep exited %d", code)
	}
	alone, _, code := simulate(t, args("-ratios", "16", "-rates", "0.9")...)
	if code != 0 {
		t.Fatalf("single run exited %d", code)
	}
	if got, want := fromRow(t, sweep, "16 "), fromRow(t, alone, "16 "); got != want {
		t.Errorf("ratio 16 after ratio 4 in one sweep:\n%s\nalone:\n%s", got, want)
	}

	dir := t.TempDir()
	repeated, single := filepath.Join(dir, "repeat.json"), filepath.Join(dir, "seed43.json")
	if _, _, code := simulate(t, args("-ratios", "16", "-rates", "0.9", "-repeat", "2", "-manifest", repeated)...); code != 0 {
		t.Fatalf("-repeat run exited %d", code)
	}
	if _, _, code := simulate(t, args("-ratios", "16", "-rates", "0.9", "-seed", "43", "-manifest", single)...); code != 0 {
		t.Fatalf("-seed 43 run exited %d", code)
	}
	rep, err := obs.ReadManifestFile(repeated)
	if err != nil {
		t.Fatal(err)
	}
	one, err := obs.ReadManifestFile(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) != 2 {
		t.Fatalf("-repeat 2 recorded %d samples", len(rep.Samples))
	}
	want := obs.Manifest{Stats: one.Stats, Percentiles: one.Percentiles, Router: one.Router}.Flatten()
	if got := rep.Samples[1]; !reflect.DeepEqual(got, want) {
		t.Errorf("-repeat sample for seed 43 delivered %v, a fresh -seed 43 run %v",
			got["stats.Delivered"], want["stats.Delivered"])
	}
}

// TestBadSpecsExitOne pins the CLI error contract: a specification the
// simulator cannot honor exits 1 with a named error and never panics.
func TestBadSpecsExitOne(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-nucleus", "Q-1"}, "Q-1"},
		{[]string{"-nucleus", "FQ-2"}, "FQ-2"},
		{[]string{"-nucleus", "K4", "-sym"}, "symmetric variant"},
		{[]string{"-nucleus", "Q2", "-l", "1"}, "l >= 2"},
		{[]string{"-nucleus", "Q-1", "-implicit"}, "Q-1"},
		{[]string{"-net", "hypercube", "-dim", "4", "-module", "5"}, "-module 5"},
		{[]string{"-net", "hypercube", "-implicit"}, "super-IP family"},
		{[]string{"-net", "torus", "-module", "0"}, "-module 0"},
		{[]string{"-implicit", "-shards", "-1"}, "-shards must be >= 0"},
		{[]string{"-faults", "-1"}, "-faults must be >= 0"},
		{[]string{"-rates", "NaN"}, "-rates"},
		{[]string{"-rates", "2"}, "-rates"},
		{[]string{"-rates", "-0.1"}, "-rates"},
	}
	for _, c := range cases {
		stdout, stderr, code := simulate(t, append(c.args, "-ratios", "1", "-cycles", "10", "-warmup", "0")...)
		if code != 1 || strings.Contains(stderr, "panic:") || !strings.Contains(stderr, c.want) {
			t.Errorf("simulate %s: exit %d, stderr %q; want exit 1 naming %q",
				strings.Join(c.args, " "), code, stderr, c.want)
		}
		if strings.HasPrefix(c.args[0], "-rates") && stdout != "" {
			t.Errorf("simulate %s: printed %q before rejecting the flag", strings.Join(c.args, " "), stdout)
		}
	}
}

func TestValidateSweep(t *testing.T) {
	cases := []struct {
		name           string
		ratios         []int
		rates          []float64
		cycles, warmup int
		wantErr        string // empty: accepted
	}{
		{"defaults", []int{1, 4, 16}, []float64{0.005}, 3000, 300, ""},
		{"no warmup", []int{1}, []float64{0.005}, 1, 0, ""},
		{"rate bounds", []int{1}, []float64{0, 1}, 100, 10, ""},
		{"zero ratio", []int{0}, []float64{0.005}, 100, 10, "-ratios"},
		{"negative ratio after a good one", []int{1, -3}, []float64{0.005}, 100, 10, "-ratios"},
		{"NaN rate", []int{1}, []float64{math.NaN()}, 100, 10, "-rates"},
		{"rate above 1", []int{1}, []float64{0.01, 2}, 100, 10, "-rates"},
		{"negative rate", []int{1}, []float64{-0.1}, 100, 10, "-rates"},
		{"zero cycles", []int{1}, []float64{0.005}, 0, 10, "-cycles"},
		{"negative cycles", []int{1}, []float64{0.005}, -5, 10, "-cycles"},
		{"negative warmup", []int{1}, []float64{0.005}, 100, -50, "-warmup"},
	}
	for _, c := range cases {
		err := validateSweep(c.ratios, c.rates, c.cycles, c.warmup)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", c.name, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.wantErr)
		}
	}
}
