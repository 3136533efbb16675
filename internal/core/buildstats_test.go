package core

import (
	"testing"
)

// TestBuildObserverParity pins the guarantee LevelStats documents: observing
// a build never perturbs it. For every family in the build grid, the graph
// built with an Observe callback has its buildGolden digest.
func TestBuildObserverParity(t *testing.T) {
	for name, ip := range buildCases() {
		levels := 0
		g, ix, err := ip.Build(BuildOptions{Observe: func(LevelStats) { levels++ }})
		if err != nil {
			t.Fatalf("%s observed: %v", name, err)
		}
		if got := buildDigest(g, ix); got != buildGolden[name] {
			t.Errorf("%s observed: digest %s, want %s", name, got, buildGolden[name])
		}
		if levels == 0 {
			t.Fatalf("%s: observer never fired", name)
		}
	}
}

// TestBuildObserverInvariants checks the structural laws every LevelStats
// stream must satisfy, independent of timing: level numbers are consecutive,
// each level's frontier is the previous level's discoveries (level 0 expands
// the seed alone), ArcSlots is frontier x generators, the discoveries sum to
// N-1, TotalNodes is the running total and ends at the built size, and the
// label arena holds TotalNodes labels of the seed's length.
func TestBuildObserverInvariants(t *testing.T) {
	for name, ip := range buildCases() {
		var stats []LevelStats
		_, ix, err := ip.Build(BuildOptions{Observe: func(ls LevelStats) { stats = append(stats, ls) }})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(stats) == 0 {
			t.Fatalf("%s: no levels observed", name)
		}
		G, k := len(ip.Gens), len(ip.Seed)
		total := 1 // the seed
		for i, ls := range stats {
			if ls.Level != i {
				t.Fatalf("%s: stats[%d].Level = %d", name, i, ls.Level)
			}
			wantFrontier := 1
			if i > 0 {
				wantFrontier = stats[i-1].NewNodes
			}
			if ls.FrontierNodes != wantFrontier {
				t.Fatalf("%s level %d: frontier %d, want previous level's %d new nodes",
					name, i, ls.FrontierNodes, wantFrontier)
			}
			if ls.ArcSlots != ls.FrontierNodes*G {
				t.Fatalf("%s level %d: ArcSlots %d, want frontier %d x %d generators",
					name, i, ls.ArcSlots, ls.FrontierNodes, G)
			}
			total += ls.NewNodes
			if ls.TotalNodes != total {
				t.Fatalf("%s level %d: TotalNodes %d, want running total %d", name, i, ls.TotalNodes, total)
			}
			if ls.InternArenaBytes != int64(ls.TotalNodes*k) {
				t.Fatalf("%s level %d: InternArenaBytes %d, want %d nodes x %d symbols",
					name, i, ls.InternArenaBytes, ls.TotalNodes, k)
			}
			if ls.Expand < 0 {
				t.Fatalf("%s level %d: negative level time %v", name, i, ls.Expand)
			}
			if ls.Dedup != 0 || ls.Assign != 0 || ls.Publish != 0 {
				t.Fatalf("%s level %d: retired phase times must read zero: %+v", name, i, ls)
			}
		}
		if total != ix.N() {
			t.Fatalf("%s: seed plus %d discoveries, built graph has %d nodes", name, total-1, ix.N())
		}
		if last := stats[len(stats)-1]; last.NewNodes != 0 {
			t.Fatalf("%s: final level discovered %d nodes; enumeration should end on an empty frontier", name, last.NewNodes)
		}
	}
}
