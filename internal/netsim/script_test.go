package netsim

import (
	"testing"

	"repro/internal/collectives"
	"repro/internal/metrics"
	"repro/internal/networks"
	"repro/internal/topo"
)

// broadcastScript flattens a collectives broadcast tree into scripted
// injections under the single-port telephone model: each node sends to its
// children one at a time (in the BroadcastTime-optimal descending-subtree
// order this test doesn't need; FIFO order suffices for a schedule), and a
// child's sends start only after its own copy has arrived. Send cycles are
// scheduled with the given per-edge duration function.
func broadcastScript(tr *collectives.Tree, weight func(u, v int32) int32) []Injection {
	children := make([][]int32, len(tr.Parent))
	for v, p := range tr.Parent {
		if p >= 0 {
			children[p] = append(children[p], int32(v))
		}
	}
	var script []Injection
	ready := make([]int, len(tr.Parent)) // cycle the node holds the message
	queue := []int32{tr.Root}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		at := ready[u]
		for _, c := range children[u] {
			script = append(script, Injection{At: at, Src: int64(u), Dst: int64(c)})
			at += int(weight(u, int32(c)))
			ready[c] = at // conservative: the child holds it once the send completes
			queue = append(queue, c)
		}
	}
	return script
}

// TestScriptedBroadcastSmoke replays a module-aware broadcast tree of Q6
// through RunImplicit as a scripted injection pattern on an otherwise idle
// network (InjectionRate 0): every scripted send must be delivered, nothing
// may expire, and the same script must also ride on top of random
// background traffic without perturbing the random stream.
func TestScriptedBroadcastSmoke(t *testing.T) {
	g, err := networks.Hypercube{Dim: 6}.Build()
	if err != nil {
		t.Fatal(err)
	}
	part := metrics.SubcubePartition(g.N(), 3)
	tree, err := collectives.ModuleAwareTree(g, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(g); err != nil {
		t.Fatal(err)
	}
	script := broadcastScript(tree, collectives.ModuleWeight(part, 4))
	if len(script) != g.N()-1 {
		t.Fatalf("broadcast script has %d sends, want %d", len(script), g.N()-1)
	}

	ht := topo.HypercubeTopo{Dim: 6}
	moduleOf := func(u int64) int64 { return u >> 3 } // matches SubcubePartition(n, 3)
	cfg := ImplicitConfig{
		Topo: ht, Router: topo.HypercubeRouter{Dim: 6},
		InjectionRate: 0, WarmupCycles: 0, MeasureCycles: 400,
		OffModulePeriod: 4, ModuleOf: moduleOf, Flits: 1,
		Script: script, Seed: 1,
	}
	st, err := RunImplicit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Injected != len(script) || st.Delivered != len(script) || st.Expired != 0 {
		t.Fatalf("broadcast replay: injected %d delivered %d expired %d, want %d/%d/0",
			st.Injected, st.Delivered, st.Expired, len(script), len(script))
	}
	// Every tree edge is one hop, so no scripted packet should take longer
	// than the off-module service period; the broadcast completes within
	// the telephone-model bound plus per-hop service.
	if st.MaxLatency > 4*cfg.Flits+4 {
		t.Fatalf("scripted hop latency %d implausibly high", st.MaxLatency)
	}

	// Script neutrality: the random background traffic of a scripted run
	// must be bit-for-bit the traffic of the unscripted run (scripted
	// injections consume no randomness).
	base := cfg
	base.Script = nil
	base.InjectionRate = 0.01
	withScript := cfg
	withScript.InjectionRate = 0.01
	a, err := RunImplicit(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunImplicit(withScript)
	if err != nil {
		t.Fatal(err)
	}
	if b.Injected != a.Injected+len(script) {
		t.Fatalf("scripted run injected %d, want background %d + script %d",
			b.Injected, a.Injected, len(script))
	}
	if b.Delivered != a.Delivered+len(script) {
		t.Fatalf("scripted run delivered %d, want background %d + script %d",
			b.Delivered, a.Delivered, len(script))
	}
}

// TestScriptValidation pins the Script error paths: out-of-window cycles
// and invalid endpoint pairs are rejected up front.
func TestScriptValidation(t *testing.T) {
	ht := topo.HypercubeTopo{Dim: 3}
	base := ImplicitConfig{Topo: ht, Router: topo.HypercubeRouter{Dim: 3},
		WarmupCycles: 10, MeasureCycles: 20, Seed: 1}
	for name, script := range map[string][]Injection{
		"late":     {{At: 30, Src: 0, Dst: 1}},
		"negative": {{At: -1, Src: 0, Dst: 1}},
		"self":     {{At: 0, Src: 2, Dst: 2}},
		"badsrc":   {{At: 0, Src: -1, Dst: 1}},
		"baddst":   {{At: 0, Src: 0, Dst: 8}},
	} {
		cfg := base
		cfg.Script = script
		if _, err := RunImplicit(cfg); err == nil {
			t.Errorf("%s: invalid script accepted", name)
		}
	}
}

// TestScriptCallerSliceUntouched: a run sorts its own copy of the script,
// so the caller's slice keeps its order (and runs may share one script).
func TestScriptCallerSliceUntouched(t *testing.T) {
	script := []Injection{{At: 5, Src: 0, Dst: 7}, {At: 1, Src: 3, Dst: 4}}
	st, err := RunImplicit(ImplicitConfig{Topo: topo.HypercubeTopo{Dim: 3},
		Router: topo.HypercubeRouter{Dim: 3}, MeasureCycles: 20, Seed: 1, Script: script})
	if err != nil {
		t.Fatal(err)
	}
	if st.Injected != 2 || st.Delivered != 2 {
		t.Fatalf("injected %d, delivered %d; want both scripted sends", st.Injected, st.Delivered)
	}
	if script[0].At != 5 || script[1].At != 1 {
		t.Fatalf("caller's script reordered: %+v", script)
	}
}
