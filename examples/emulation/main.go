// Emulation: the paper claims suitably constructed super-IP graphs emulate
// a corresponding hypercube with (asymptotically) optimal slowdown. This
// example runs three real hypercube algorithms — all-reduce, parallel
// prefix, and bitonic sort — on a genuine Q6 machine and on its HSN(2;Q3)
// emulation, verifies the outputs are identical, and compares the
// communication-step counts: the HSN pays at most 3x the steps, with only
// the super-symbol swaps crossing modules.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"repro/internal/emulate"
)

func main() {
	const dim = 6
	rng := rand.New(rand.NewSource(2026))
	input := make([]int64, 1<<dim)
	for i := range input {
		input[i] = int64(rng.Intn(10000))
	}

	type algo struct {
		name string
		run  func(emulate.Machine) error
	}
	algos := []algo{
		{"all-reduce", emulate.AllReduceSum},
		{"parallel prefix", emulate.PrefixSum},
		{"bitonic sort", emulate.BitonicSort},
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\thost\tsteps\ton-module\toff-module\tmatch")
	for _, a := range algos {
		direct := emulate.NewDirectHypercube(dim, 3)
		hsnM, err := emulate.NewHSNMachine(2, 3)
		if err != nil {
			log.Fatal(err)
		}
		if err := direct.SetValues(input); err != nil {
			log.Fatal(err)
		}
		if err := hsnM.SetValues(input); err != nil {
			log.Fatal(err)
		}
		if err := a.run(direct); err != nil {
			log.Fatal(err)
		}
		if err := a.run(hsnM); err != nil {
			log.Fatal(err)
		}
		dv, hv := direct.Values(), hsnM.Values()
		match := "yes"
		for i := range dv {
			if dv[i] != hv[i] {
				match = "NO"
				break
			}
		}
		dc, hc := direct.Cost(), hsnM.Cost()
		fmt.Fprintf(w, "%s\tQ6 (Q3 modules)\t%d\t%d\t%d\t\n", a.name, dc.Steps, dc.OnModuleSteps, dc.OffModuleSteps)
		fmt.Fprintf(w, "%s\tHSN(2;Q3)\t%d\t%d\t%d\t%s\n", a.name, hc.Steps, hc.OnModuleSteps, hc.OffModuleSteps, match)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nthe HSN pays at most 3x the communication steps (the dilation-3")
	fmt.Println("embedding run as whole-machine permutation steps), and every")
	fmt.Println("off-module step uses the single swap link per node — the hypercube")
	fmt.Println("needs 3 off-module links per node to do the same.")
}
