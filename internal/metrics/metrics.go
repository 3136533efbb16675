// Package metrics implements the paper's Section 5 figures of merit:
// module (cluster) partitions, inter-cluster degree (I-degree), inter-cluster
// diameter and average inter-cluster distance (I-diameter, average
// I-distance), and the composite DD-, ID-, and II-costs, plus the
// degree-diameter (Moore-style) lower bound used to assess the Theorem 4.4
// optimality claims.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
)

// Partition assigns every node to a module (cluster).
type Partition struct {
	Of []int32 // cluster id per node
	K  int     // number of clusters
}

// Module returns u's cluster id: the module rule a simulator run or an
// obs collector takes (netsim.ImplicitConfig.ModuleOf).
func (p Partition) Module(u int64) int64 { return int64(p.Of[u]) }

// Validate checks that cluster ids cover 0..K-1 and nothing else.
func (p Partition) Validate(n int) error {
	if len(p.Of) != n {
		return fmt.Errorf("metrics: partition covers %d nodes, graph has %d", len(p.Of), n)
	}
	seen := make([]bool, p.K)
	for u, c := range p.Of {
		if c < 0 || int(c) >= p.K {
			return fmt.Errorf("metrics: node %d in out-of-range cluster %d", u, c)
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			return fmt.Errorf("metrics: cluster %d is empty", c)
		}
	}
	return nil
}

// ClusterSizes returns the number of nodes in each cluster.
func (p Partition) ClusterSizes() []int {
	sizes := make([]int, p.K)
	for _, c := range p.Of {
		sizes[c]++
	}
	return sizes
}

// MaxClusterSize returns the largest module population.
func (p Partition) MaxClusterSize() int {
	max := 0
	for _, s := range p.ClusterSizes() {
		if s > max {
			max = s
		}
	}
	return max
}

// PartitionBy builds a partition from an arbitrary string key per node.
func PartitionBy(n int, key func(u int32) string) Partition {
	ids := map[string]int32{}
	of := make([]int32, n)
	for u := 0; u < n; u++ {
		k := key(int32(u))
		id, ok := ids[k]
		if !ok {
			id = int32(len(ids))
			ids[k] = id
		}
		of[u] = id
	}
	return Partition{Of: of, K: len(ids)}
}

// NucleusPartition groups the nodes of a super-IP graph so that each nucleus
// copy occupies one module, the packing recommended in Section 5.3: two
// nodes share a module iff their labels agree on everything except the
// leftmost super-symbol.
func NucleusPartition(ix *core.Index, m int) Partition {
	return PartitionBy(ix.N(), func(u int32) string {
		return string(ix.Label(u)[m:])
	})
}

// SubcubePartition groups hypercube nodes (id = bit string) into subcubes of
// 2^low nodes sharing their high bits.
func SubcubePartition(n, low int) Partition {
	of := make([]int32, n)
	for u := 0; u < n; u++ {
		of[u] = int32(u >> uint(low))
	}
	k := n >> uint(low)
	if k == 0 {
		k = 1
		for i := range of {
			of[i] = 0
		}
	}
	return Partition{Of: of, K: k}
}

// GridPartition tiles an R x C torus/mesh (row-major node ids) with
// br x bc blocks. R must be divisible by br and C by bc.
func GridPartition(rows, cols, br, bc int) (Partition, error) {
	if rows%br != 0 || cols%bc != 0 {
		return Partition{}, fmt.Errorf("metrics: %dx%d grid not tileable by %dx%d", rows, cols, br, bc)
	}
	of := make([]int32, rows*cols)
	tilesPerRow := cols / bc
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			of[r*cols+c] = int32((r/br)*tilesPerRow + c/bc)
		}
	}
	return Partition{Of: of, K: (rows / br) * tilesPerRow}, nil
}

// CrossWeight returns the 0/1 edge-weight function of a partition: on-module
// hops are free, off-module hops cost one transmission.
func (p Partition) CrossWeight() func(u, v int32) int32 {
	return func(u, v int32) int32 {
		if p.Of[u] == p.Of[v] {
			return 0
		}
		return 1
	}
}

// IDegree returns the inter-cluster degree of Section 5.3: the maximum over
// clusters of the average number of off-module links per node in the
// cluster. For directed graphs, out-links are counted.
func IDegree(g *graph.Graph, p Partition) float64 {
	offLinks := make([]int, p.K)
	sizes := p.ClusterSizes()
	for u := 0; u < g.N(); u++ {
		cu := p.Of[u]
		for _, v := range g.Neighbors(int32(u)) {
			if p.Of[v] != cu {
				offLinks[cu]++
			}
		}
	}
	max := 0.0
	for c := 0; c < p.K; c++ {
		if avg := float64(offLinks[c]) / float64(sizes[c]); avg > max {
			max = avg
		}
	}
	return max
}

// MaxOffModuleLinks returns the maximum number of off-module links at any
// single node — the per-node pin bound discussed in Section 5.3.
func MaxOffModuleLinks(g *graph.Graph, p Partition) int {
	max := 0
	for u := 0; u < g.N(); u++ {
		cu := p.Of[u]
		links := 0
		for _, v := range g.Neighbors(int32(u)) {
			if p.Of[v] != cu {
				links++
			}
		}
		if links > max {
			max = links
		}
	}
	return max
}

// IStats measures inter-cluster distance statistics exactly: for each
// ordered pair, the minimum number of off-module transmissions on any path.
// Diameter of the result is the I-diameter; AvgDistance is the average
// I-distance of Fig. 3.
func IStats(g *graph.Graph, p Partition) graph.Stats {
	return g.AllPairsWeighted(p.CrossWeight())
}

// IStatsSampled measures the same statistics from a subset of BFS sources
// (exact I-diameter is not guaranteed; the average is a sampled estimate).
func IStatsSampled(g *graph.Graph, p Partition, sources []int32) graph.Stats {
	return g.PairStatsWeighted(sources, p.CrossWeight())
}

// DDCost is the product of node degree and network diameter (Fig. 2's
// figure of merit, after [7]).
func DDCost(degree, diameter int) int { return degree * diameter }

// IDCost is the product of inter-cluster degree and diameter (Fig. 4).
func IDCost(iDegree float64, diameter int) float64 { return iDegree * float64(diameter) }

// IICost is the product of inter-cluster degree and inter-cluster diameter
// (Fig. 5).
func IICost(iDegree float64, iDiameter int) float64 { return iDegree * float64(iDiameter) }

// MooreDiameterLB returns the universal lower bound on the diameter of any
// N-node graph with maximum degree d: the smallest D such that the Moore
// bound 1 + d + d(d-1) + ... + d(d-1)^(D-1) reaches N.
func MooreDiameterLB(d, n int) int {
	if n <= 1 {
		return 0
	}
	switch {
	case d <= 0:
		return math.MaxInt32
	case d == 1:
		if n <= 2 {
			return 1
		}
		return math.MaxInt32
	case d == 2:
		// 1 + 2D >= N.
		return (n - 1 + 1) / 2
	}
	reach := 1.0
	layer := float64(d)
	for dd := 1; ; dd++ {
		reach += layer
		if reach >= float64(n) {
			return dd
		}
		layer *= float64(d - 1)
		if dd > 64 {
			return dd
		}
	}
}

// OptimalityFactor returns diameter / MooreDiameterLB — the Theorem 4.4
// quantity that tends to 1 + o(1) for suitably constructed super-IP graphs.
func OptimalityFactor(diameter, degree, n int) float64 {
	lb := MooreDiameterLB(degree, n)
	if lb == 0 {
		return 1
	}
	return float64(diameter) / float64(lb)
}

// ThroughputBound returns the classical uniform-traffic throughput upper
// bound in packets per node per cycle: each delivered packet consumes
// avgDistance link-cycles, and the network supplies M directed-link-cycles
// per cycle, so throughput <= M / (N * avgDistance). Section 5.1: "the
// maximum possible throughput of a network is inversely proportional to
// [diameter and average distance] for any switching technique".
func ThroughputBound(g *graph.Graph, avgDistance float64) float64 {
	if avgDistance <= 0 {
		return math.Inf(1)
	}
	// M counts directed link slots (both directions of every undirected
	// edge), which is exactly the per-cycle transmission supply.
	return float64(g.M()) / (float64(g.N()) * avgDistance)
}

// OffModuleThroughputBound returns the analogous bound when off-module
// bandwidth is the bottleneck (Section 5.2): off-module directed links
// divided by (N times the average I-distance). Off-module links are scaled
// by 1/period when they run slower than on-module links.
func OffModuleThroughputBound(g *graph.Graph, p Partition, avgIDistance float64, offPeriod int) float64 {
	if avgIDistance <= 0 {
		return math.Inf(1)
	}
	off := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if p.Of[u] != p.Of[v] {
				off++
			}
		}
	}
	if offPeriod < 1 {
		offPeriod = 1
	}
	return float64(off) / float64(offPeriod) / (float64(g.N()) * avgIDistance)
}
