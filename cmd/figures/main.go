// Command figures regenerates the data behind every table and figure in the
// paper's evaluation section. With no arguments it emits everything; pass
// one or more of fig1 fig2a fig2b fig3a fig3b fig4a fig4b fig5a fig5b
// optimality idegree to select specific artifacts.
//
// Usage:
//
//	figures [-limit N] [artifact ...]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/figures"
)

func main() {
	limit := flag.Int("limit", 1<<13, "largest instance measured exhaustively for Fig 3")
	flag.Parse()

	gens := map[string]func() (*figures.Table, error){
		"fig1":           figures.Fig1,
		"fig2a":          func() (*figures.Table, error) { return figures.Fig2("a") },
		"fig2b":          func() (*figures.Table, error) { return figures.Fig2("b") },
		"fig3a":          func() (*figures.Table, error) { return figures.Fig3("a", *limit) },
		"fig3b":          func() (*figures.Table, error) { return figures.Fig3("b", *limit) },
		"fig4a":          func() (*figures.Table, error) { return figures.Fig4("a") },
		"fig4b":          func() (*figures.Table, error) { return figures.Fig4("b") },
		"fig5a":          func() (*figures.Table, error) { return figures.Fig5("a") },
		"fig5b":          func() (*figures.Table, error) { return figures.Fig5("b") },
		"optimality":     figures.Optimality,
		"optimality-ghc": figures.OptimalityGHC,
		"ablation":       figures.NucleusAblation,
		"section51":      func() (*figures.Table, error) { return figures.Section51(8, 1) },
		"avgdistance":    figures.AvgDistanceTable,
		"idegree":        figures.IDegreeTable,
	}
	order := []string{"fig1", "fig2a", "fig2b", "fig3a", "fig3b",
		"fig4a", "fig4b", "fig5a", "fig5b", "optimality", "optimality-ghc",
		"ablation", "section51", "avgdistance", "idegree"}

	selected := flag.Args()
	if len(selected) == 0 {
		selected = order
	}
	for _, name := range selected {
		gen, ok := gens[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: unknown artifact %q (known: %v)\n", name, order)
			os.Exit(2)
		}
		tab, err := gen()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := tab.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
	}
}
