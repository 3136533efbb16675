package netsim

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSimulatorSeesOnlyTopologies keeps the simulator on the
// topo.Topology and topo.Router contracts: no non-test file of the package
// may import internal/graph or internal/metrics. A built graph enters a
// run as a topo.Materialized with a topo.BFSRouter and a partition as a
// ModuleOf rule, both made by the caller.
func TestSimulatorSeesOnlyTopologies(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{"repro/internal/graph": true, "repro/internal/metrics": true}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if forbidden[path] {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test Go files found")
	}
}
