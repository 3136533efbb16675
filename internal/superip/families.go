package superip

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/perm"
)

// Kind identifies a super-generator family from Section 3.
type Kind int

const (
	// KindHSN uses transposition super-generators T(2,m)..T(l,m) — the
	// hierarchical swapped networks of Section 3.2.
	KindHSN Kind = iota
	// KindRingCN uses cyclic-shift super-generators {L, R} — the basic
	// (ring) cyclic-shift networks of Section 3.3.
	KindRingCN
	// KindCompleteCN uses all cyclic shifts L(1,m)..L(l-1,m) — complete
	// cyclic-shift networks.
	KindCompleteCN
	// KindDirectedCN uses the single shift {L} — directed cyclic-shift
	// networks.
	KindDirectedCN
	// KindSuperFlip uses flip super-generators F(2,m)..F(l,m) — the
	// super-flip networks of Section 3.4.
	KindSuperFlip
)

func (k Kind) String() string {
	switch k {
	case KindHSN:
		return "HSN"
	case KindRingCN:
		return "ring-CN"
	case KindCompleteCN:
		return "CN"
	case KindDirectedCN:
		return "dir-CN"
	case KindSuperFlip:
		return "SFN"
	}
	return "?"
}

// Net is a concrete super-IP network: a family kind, level count l, and
// nucleus, together with analytic statistics. It implements networks.Spec.
type Net struct {
	Kind      Kind
	L         int
	Nucleus   NucleusSpec
	Symmetric bool
	// Workers is passed through to core.BuildOptions.Workers: 1 forces the
	// sequential enumerator, n > 1 the n-worker parallel one, 0 the default
	// (core.DefaultWorkers, then GOMAXPROCS). The built graph is identical
	// for every setting.
	Workers int
	// Observe is passed through to core.BuildOptions.Observe: per-level
	// instrumentation of the level-synchronous enumerator (phase wall
	// times, frontier sizes, intern occupancy, arena bytes). Setting it
	// routes the build through the parallel enumerator even at Workers ==
	// 1; the output stays byte-identical.
	Observe func(core.LevelStats)

	s *core.SuperIP // lazily assembled
}

// New constructs a super-IP network of the given kind.
func New(kind Kind, l int, nucleus NucleusSpec, symmetric bool) *Net {
	return &Net{Kind: kind, L: l, Nucleus: nucleus, Symmetric: symmetric}
}

// HSN returns the hierarchical swapped network HSN(l;G).
func HSN(l int, nucleus NucleusSpec) *Net { return New(KindHSN, l, nucleus, false) }

// RingCN returns the basic (ring) cyclic-shift network ring-CN(l;G).
func RingCN(l int, nucleus NucleusSpec) *Net { return New(KindRingCN, l, nucleus, false) }

// CompleteCN returns the complete cyclic-shift network CN(l;G).
func CompleteCN(l int, nucleus NucleusSpec) *Net { return New(KindCompleteCN, l, nucleus, false) }

// DirectedCN returns the directed cyclic-shift network.
func DirectedCN(l int, nucleus NucleusSpec) *Net { return New(KindDirectedCN, l, nucleus, false) }

// SuperFlip returns the super-flip network based on G.
func SuperFlip(l int, nucleus NucleusSpec) *Net { return New(KindSuperFlip, l, nucleus, false) }

// RCC returns the recursively connected complete network RCC(l; K_m),
// realized — per the paper's grouping of RCC with HSN in Corollary 4.2 —
// as the transposition super-IP graph over the complete-graph nucleus.
func RCC(l, m int) *Net { return New(KindHSN, l, NucleusComplete(m), false) }

// SymmetricVariant returns the symmetric (distinct-seed) variant of n per
// Section 3.5. It panics if the nucleus does not survive the distinct-seed
// conversion (one-hot or rotation-pattern encodings like K_k, Petersen, or
// shuffle-exchange nuclei change their state space when symbols become
// distinct, so the analytic laws would silently break).
func (n *Net) SymmetricVariant() *Net {
	if !n.Nucleus.DistinctSeedSafe {
		panic(fmt.Sprintf("superip: nucleus %s does not support the symmetric variant "+
			"(distinct seed changes its state space)", n.Nucleus.Short))
	}
	return New(n.Kind, n.L, n.Nucleus, true)
}

// SuperGens returns the super-generator set of the family.
func (n *Net) SuperGens() ([]perm.Perm, []string) {
	m := n.Nucleus.Nuc.M()
	l := n.L
	var gens []perm.Perm
	var names []string
	switch n.Kind {
	case KindHSN:
		for i := 1; i < l; i++ {
			gens = append(gens, perm.BlockTransposition(l, m, 0, i))
			names = append(names, fmt.Sprintf("T(%d)", i+1))
		}
	case KindRingCN:
		gens = append(gens, perm.BlockLeftShift(l, m, 1), perm.BlockRightShift(l, m, 1))
		names = append(names, "L", "R")
	case KindCompleteCN:
		for i := 1; i < l; i++ {
			gens = append(gens, perm.BlockLeftShift(l, m, i))
			names = append(names, fmt.Sprintf("L%d", i))
		}
	case KindDirectedCN:
		gens = append(gens, perm.BlockLeftShift(l, m, 1))
		names = append(names, "L")
	case KindSuperFlip:
		for i := 2; i <= l; i++ {
			gens = append(gens, perm.BlockFlip(l, m, i))
			names = append(names, fmt.Sprintf("F(%d)", i))
		}
	}
	return gens, names
}

// Super returns (assembling lazily) the underlying core.SuperIP.
func (n *Net) Super() *core.SuperIP {
	if n.s == nil {
		gens, names := n.SuperGens()
		n.s = &core.SuperIP{
			Name:          n.Name(),
			L:             n.L,
			Nucleus:       n.Nucleus.Nuc,
			SuperGens:     gens,
			SuperGenNames: names,
			Symmetric:     n.Symmetric,
		}
	}
	return n.s
}

// Name returns e.g. "HSN(3;Q4)" or "sym-CN(3;Q4)".
func (n *Net) Name() string {
	prefix := ""
	if n.Symmetric {
		prefix = "sym-"
	}
	return fmt.Sprintf("%s%s(%d;%s)", prefix, n.Kind, n.L, n.Nucleus.Short)
}

// Arrangements returns the number of reachable super-symbol orderings:
// l! for HSN and super-flip (l >= 2), l for the cyclic-shift families.
func (n *Net) Arrangements() int {
	switch n.Kind {
	case KindHSN, KindSuperFlip:
		if n.Kind == KindSuperFlip && n.L == 2 {
			return 2
		}
		f := 1
		for i := 2; i <= n.L; i++ {
			f *= i
		}
		return f
	default:
		return n.L
	}
}

// N returns the node count: M^l, times the arrangement count for symmetric
// variants (Theorem 3.2 and Section 3.5).
func (n *Net) N() int {
	size := 1
	for i := 0; i < n.L; i++ {
		size *= n.Nucleus.Size
	}
	if n.Symmetric {
		size *= n.Arrangements()
	}
	return size
}

// SuperDegree returns the maximum number of off-module links per node when
// each nucleus occupies one module (Section 5.3): the number of distinct
// non-trivial super-generator images.
func (n *Net) SuperDegree() int {
	switch n.Kind {
	case KindHSN, KindCompleteCN, KindSuperFlip:
		return n.L - 1
	case KindRingCN:
		if n.L == 2 {
			return 1
		}
		return 2
	case KindDirectedCN:
		return 1
	}
	return 0
}

// Degree returns the maximum node degree: nucleus degree plus the
// super-generator contribution.
func (n *Net) Degree() int { return n.Nucleus.Degree + n.SuperDegree() }

// TSym returns t_S of Theorem 4.3 for the symmetric variant.
func (n *Net) TSym() int {
	t, err := n.Super().TSym()
	if err != nil {
		panic(err)
	}
	return t
}

// Diameter returns the network diameter: l*D_G + t (Theorem 4.1) for plain
// networks and l*D_G + t_S (Theorem 4.3) for symmetric ones, using the
// nucleus's analytic diameter.
func (n *Net) Diameter() int {
	t := n.L - 1 // Section 4: t = l-1 for all the families of Section 3
	if n.Symmetric {
		t = n.TSym()
	}
	return n.L*n.Nucleus.Diameter + t
}

// IDiameter returns the inter-cluster diameter (Section 5.2): the maximum
// number of off-module transmissions for any route, which equals t (resp.
// t_S) under nucleus-per-module packing.
func (n *Net) IDiameter() int {
	if n.Symmetric {
		return n.TSym()
	}
	return n.L - 1
}

// Build realizes the network (refusing absurdly large instances).
func (n *Net) Build() (*graph.Graph, error) {
	g, _, err := n.BuildWithIndex()
	return g, err
}

// BuildWithIndex realizes the network and returns the label index too.
func (n *Net) BuildWithIndex() (*graph.Graph, *core.Index, error) {
	if n.N() > 1<<21 {
		return nil, nil, fmt.Errorf("superip: %s with %d nodes is too large to build", n.Name(), n.N())
	}
	return n.Super().Build(core.BuildOptions{Workers: n.Workers, Observe: n.Observe})
}

// Router returns a Theorem 4.1/4.3 router for the network.
func (n *Net) Router() (*core.Router, error) { return core.NewRouter(n.Super()) }

// MacroStar returns the macro-star network MS(l;S_n) of Yeh and Varvarigos
// (cited in the paper's Section 1 as an efficient low-degree alternative to
// star graphs): in super-IP terms, the transposition super-generator family
// over a star-graph nucleus. Its node degree (n-1) + (l-1) is far below the
// degree of a star graph of comparable size.
func MacroStar(l, n int) *Net { return New(KindHSN, l, NucleusStar(n), false) }

// HSE returns an l-level hierarchical shuffle-exchange network, realized as
// the transposition super-IP graph over a shuffle-exchange nucleus; the
// paper classifies Cypher and Sanz's HSE among the super-IP graphs.
func HSE(l, n int) *Net { return New(KindHSN, l, NucleusShuffleExchange(n), false) }

// NucleusFromNet turns a built super-IP network into a nucleus, enabling
// recursive constructions: the inner network's full generator set (nucleus
// generators plus super-generators) becomes the nucleus generator set of
// the outer level. Not distinct-seed-safe (the inner repeated-seed state
// space is part of the construction).
func NucleusFromNet(inner *Net) NucleusSpec {
	ip := inner.Super().IPGraph()
	return NucleusSpec{
		Nuc: core.Nucleus{
			Name:     inner.Name(),
			Seed:     ip.Seed,
			Gens:     ip.Gens,
			GenNames: ip.GenNames,
		},
		Size:     inner.N(),
		Degree:   inner.Degree(),
		Diameter: inner.Diameter(),
		Short:    inner.Name(),
	}
}

// RHSN returns the recursive hierarchical swapped network of the paper's
// reference [26] (grouped with HSN in Corollary 4.2): an HSN whose nucleus
// is itself an HSN. outer and inner are the level counts of the two tiers.
func RHSN(outer, inner int, nucleus NucleusSpec) *Net {
	return HSN(outer, NucleusFromNet(HSN(inner, nucleus)))
}
