package benchkit

import (
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// Spec describes one recording session: which packages and benchmarks to
// run and how many repetitions to collect per benchmark.
type Spec struct {
	Packages  []string  // go package patterns; default {"./..."}
	Bench     string    // -bench regex; default "."
	Benchtime string    // -benchtime value, e.g. "100ms" or "10x"; "" = go's default
	Count     int       // repetitions per benchmark; default 5
	Timeout   string    // -timeout for each go test invocation; "" = go's default
	Verbose   io.Writer // when non-nil, streams raw go test output here
}

func (s *Spec) defaults() {
	if len(s.Packages) == 0 {
		s.Packages = []string{"./..."}
	}
	if s.Bench == "" {
		s.Bench = "."
	}
	if s.Count <= 0 {
		s.Count = 5
	}
}

// Record runs the benchmark suite per Spec and returns the finished,
// summarized Run. Benchmarks execute with -benchmem so allocation metrics
// are always on record, and -run '^$' so no unit tests ride along.
func Record(spec Spec) (*Run, error) {
	spec.defaults()
	now := time.Now()
	run := &Run{
		Schema:    SchemaVersion,
		Time:      now,
		Env:       CollectEnv(),
		BenchRe:   spec.Bench,
		Benchtime: spec.Benchtime,
		Count:     spec.Count,
		Packages:  spec.Packages,
	}
	run.ID = NewRunID(now, strings.TrimSuffix(run.Env.Commit, "-dirty"))

	args := []string{"test", "-run", "^$", "-bench", spec.Bench,
		"-benchmem", "-count", fmt.Sprint(spec.Count)}
	if spec.Benchtime != "" {
		args = append(args, "-benchtime", spec.Benchtime)
	}
	if spec.Timeout != "" {
		args = append(args, "-timeout", spec.Timeout)
	}
	args = append(args, spec.Packages...)

	out, err := goTest(args, spec.Verbose)
	// Parse whatever we got even on error: a failing package's output may
	// still carry complete results for the packages before it.
	results, header, perr := Parse(bytes.NewReader(out))
	if perr != nil {
		return nil, perr
	}
	if cpu := header["cpu"]; cpu != "" {
		run.Env.CPU = cpu
	}
	run.Results = results
	run.Summarize()
	if err != nil && len(results) == 0 {
		return nil, fmt.Errorf("benchkit: go test failed with no parseable results: %w\n%s", err, tail(out, 2048))
	}
	if err != nil {
		return run, fmt.Errorf("benchkit: go test reported failure (partial results kept): %w", err)
	}
	return run, nil
}

func goTest(args []string, verbose io.Writer) ([]byte, error) {
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	if verbose != nil {
		cmd.Stdout = io.MultiWriter(&buf, verbose)
		cmd.Stderr = io.MultiWriter(&buf, verbose)
	} else {
		cmd.Stdout = &buf
		cmd.Stderr = &buf
	}
	err := cmd.Run()
	return buf.Bytes(), err
}

func tail(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	return b[len(b)-n:]
}
