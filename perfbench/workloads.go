package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/deltacolor"
	"repro/internal/dist"
	"repro/internal/graph"
)

// workload is one instance family plus the pipeline that colors it.
type workload struct {
	name string
	// shards > 1 loads the DCG1 file with the streaming per-shard reader
	// and colors on the shard-structured engine (Network.Sharded).
	shards int
	gen    func(rng *rand.Rand) *graph.Graph
	color  func(net *dist.Network) (*outcome, error)
	// orchestrator names the package whose self time the traced run
	// reports as <orchestrator>.host_s.
	orchestrator string
}

// outcome is one coloring: the colors, the palette bound every color
// must stay below, and the phase tally.
type outcome struct {
	colors []int
	bound  int
	tally  *dist.Tally
}

const (
	forestN, forestA, legalP = 50_000, 8, 4
	regularN, regularD       = 20_000, 16
)

// Why these three: legal-forest is the ROADMAP's reference pipeline
// (Legal-Coloring on a forest union, Theorem 4.5's regime) at 1/20 of its
// size; legal-forest-sharded colors the same instance through the
// streaming shard loader and the shard-structured engine, which do no
// work in legal-forest; delta1-regular is the only workload that runs the
// Kuhn-Wattenhofer reductions (reduce) and deltacolor's palette merges.
var workloads = []workload{
	{name: "legal-forest", gen: forestUnion, color: legalColoring, orchestrator: "core"},
	{name: "legal-forest-sharded", shards: 4, gen: forestUnion, color: legalColoring, orchestrator: "core"},
	{name: "delta1-regular", gen: regular, color: deltaPlusOne, orchestrator: "deltacolor"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func forestUnion(rng *rand.Rand) *graph.Graph { return graph.ForestUnion(forestN, forestA, rng) }

func regular(rng *rand.Rand) *graph.Graph { return graph.RandomRegularish(regularN, regularD, rng) }

func legalColoring(net *dist.Network) (*outcome, error) {
	res, err := core.LegalColoring(net, core.Config{Arboricity: forestA, P: legalP})
	if err != nil {
		return nil, err
	}
	return &outcome{colors: res.Colors, bound: res.Palette, tally: res.Tally}, nil
}

func deltaPlusOne(net *dist.Network) (*outcome, error) {
	res, err := deltacolor.ColorDeltaPlusOne(net)
	if err != nil {
		return nil, err
	}
	return &outcome{colors: res.Colors, bound: net.Graph().MaxDegree() + 1, tally: res.Tally}, nil
}

// counts is the paper's output of one coloring; it must not change
// between colorings of one instance, nor between flat and sharded.
type counts struct {
	Colors   int   `json:"colors"`
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
}

func (c counts) String() string {
	return fmt.Sprintf("%d colors / %d rounds / %d messages", c.Colors, c.Rounds, c.Messages)
}

// check verifies a coloring with the graph package's verifier, which sits
// outside the engine, and returns its counts.
func check(g *graph.Graph, out *outcome) (counts, error) {
	c := counts{Colors: graph.NumColors(out.colors), Rounds: out.tally.Rounds(), Messages: out.tally.Messages()}
	if err := g.CheckLegalColoring(out.colors); err != nil {
		return c, err
	}
	if mx := graph.MaxColor(out.colors); mx >= out.bound {
		return c, fmt.Errorf("color %d outside the palette bound %d", mx, out.bound)
	}
	return c, nil
}
