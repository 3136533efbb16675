package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptExports lists the exported internal/ functions and methods that no
// command, example or cmd/ipbench calls but that stay in the library: each
// is the oracle of a paper claim or of code that runs, and its reason names
// the test or the EXPERIMENTS.md row that it backs. Keys are
// "package.Func" or "package.Type.Method", with the package path relative
// to internal/. A function that only a kept one calls (CayleyAutomorphism,
// NucleusFromNet) needs no entry; the last three entries share a name with
// a live method, so the scan cannot tell they are test-only and lists them
// here to write the reason down.
var keptExports = map[string]string{
	"core.CertifyVertexTransitive":     "§3.5 vertex symmetry row: TestCertifyVertexTransitiveSymmetricVariants",
	"core.SuperIP.TheoreticalDiameter": "Thm 4.1/4.3 rows: TestTheorem41DiameterExact, TestTheorem43SymmetricDiameter",
	"graph.Graph.ZeroOneBFS":           "oracle of the weighted all-pairs stats: TestIStatsAverageHSN2, TestZeroOneBFSClusters",
	"faults.FaultDiameter":             "robustness row (fault diameters of Q_n): TestFaultDiameterHypercube, TestFaultDiameterHSN",
	"metrics.ThroughputBound":          "§5.1 throughput bound: TestThroughputBound, TestSaturationOrderingMatchesThroughputBound",
	"metrics.OffModuleThroughputBound": "§5.1 off-module throughput bound: TestOffModuleThroughputBound",
	"netsim.Saturation":                "§5.1 saturation ordering: TestSaturationOrderingMatchesThroughputBound",
	"netsim.Transpose":                 "golden traffic pattern of engine_golden.json: TestEngineGoldenParity, TestPatterns",
	"superip.HSE":                      "RCC/HSE as super-IP graphs (EXPERIMENTS.md deviation 3): TestHSE",
	"superip.RHSN":                     "Cor 4.2 lists RHSN row: TestRHSN, TestRHSNRouter",
	"embed.ProductIntoHSN":             "§1 embedding, dilation ≤ 3 row: TestHSNEmbeddingDilation3",
	"embed.ProductIntoRingCN":          "dilation growth of the ring-CN embedding: TestRingCNEmbeddingDilationGrows",
	"collectives.BFSTree":              "§1 module-confined data movement row: TestModuleAwareTreeMinimizesCrossEdges",
	"collectives.Broadcast":            "§1 module-confined data movement row: TestBroadcastHSNBeatsHypercubeOffModule",
	"collectives.UnitWeight":           "broadcast-time model of the same row: TestBroadcastTimeChain, TestBroadcastTimeBinomialLowerBound",
	"collectives.Tree.Validate":        "tree check of the same row: TestModuleAwareTreeMinimizesCrossEdges, TestTreeValidateErrors",
	"layout.Placement.Validate":        "placement check of the layout cost rows: TestPlacementValidity",
	"networks.Hypercube.AvgDistance":   "closed-form Q_n average distance, checked against BFS: TestHypercube",
}

// TestNoUnreferencedExports fails when an exported function or method under
// internal/ has no reference from any non-test Go file of the repository
// (commands, examples and the cmd/ipbench module included) and is not in
// keptExports. A top-level function counts as referenced through its
// import-path qualifier, or by an unqualified use inside its own package
// other than in its own body. A method counts as referenced when any
// selector anywhere has its name, so a call through an interface is never
// missed; the price is that a method sharing a name with a live one is never
// caught.
func TestNoUnreferencedExports(t *testing.T) {
	type decl struct {
		key, ref, pos string
		method        bool
	}
	var decls []decl
	funcRefs := map[string]bool{}   // "import/path.Name"
	methodRefs := map[string]bool{} // selector names
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgPath := "repro/" + dir
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				return err
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		for _, dl := range f.Decls {
			self := ""
			if fd, ok := dl.(*ast.FuncDecl); ok {
				if fd.Recv == nil {
					self = pkgPath + "." + fd.Name.Name
				}
				if rel, ok := strings.CutPrefix(dir, "internal/"); ok && fd.Name.IsExported() {
					d := decl{key: rel + "." + fd.Name.Name, ref: self, pos: fset.Position(fd.Pos()).String()}
					if fd.Recv != nil {
						d.key = rel + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
						d.ref, d.method = fd.Name.Name, true
					}
					decls = append(decls, d)
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// The declared name is not a use; walk the rest.
					if n.Recv != nil {
						ast.Inspect(n.Recv, visit)
					}
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok {
						if p, ok := imports[id.Name]; ok {
							funcRefs[p+"."+n.Sel.Name] = true
							return false
						}
					}
					methodRefs[n.Sel.Name] = true
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if key := pkgPath + "." + n.Name; key != self {
						funcRefs[key] = true
					}
				}
				return true
			}
			ast.Inspect(dl, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		used := funcRefs[d.ref]
		if d.method {
			used = methodRefs[d.ref]
		}
		if _, kept := keptExports[d.key]; !used && !kept {
			dead = append(dead, d.key+" ("+d.pos+")")
		}
	}
	for key := range keptExports {
		if !declared[key] {
			t.Errorf("keptExports names %s, which no longer exists", key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported internal/ functions have no non-test reference; delete them or add them to keptExports with the test they back:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// recvName returns the type name of a method receiver, without the pointer.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	return e.(*ast.Ident).Name
}
