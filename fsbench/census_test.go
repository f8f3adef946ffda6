package main

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

// The census oracle must agree with the engine's row on graphs with and
// without unique views, feasible and not, stable at depth 0 and deeper.
func TestOracleRowMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := map[string]*graph.Graph{
		"ring-8":      graph.Ring(8),
		"torus-4x5":   graph.Torus(4, 5),
		"path-7":      graph.Path(7),
		"star-6":      graph.Star(6),
		"caterpillar": graph.Caterpillar(4, []int{2, 0, 1, 3}),
	}
	for i := 0; i < 5; i++ {
		n := 20 + 30*i
		graphs[fmt.Sprintf("random-%d", n)] = graph.RandomConnected(n, n*3/2, rng)
	}
	for name, g := range graphs {
		got, want := oracleRow(name, g), censusRowOf(name, engine.New(0), g)
		if got != want {
			t.Errorf("%s: oracle row %+v, engine row %+v", name, got, want)
		}
	}
}
