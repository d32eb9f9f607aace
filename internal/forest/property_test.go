package forest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/graph"
)

// Property (the pigeonhole behind Theorem 3.2): RuleLeastUsed never picks
// a color used by more than floor(total/k) parents.
func TestLeastUsedPigeonholeQuick(t *testing.T) {
	prop := func(seed uint32, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		k := 1 + int(kRaw)%10
		counts := make([]int, k)
		total := 0
		for i := range counts {
			counts[i] = rng.Intn(20)
			total += counts[i]
		}
		c, err := RuleLeastUsed.choose(counts)
		if err != nil {
			return false
		}
		return counts[c] <= total/k
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: RuleFirstFree picks an unused color whenever one exists, and
// the smallest such.
func TestFirstFreeQuick(t *testing.T) {
	prop := func(seed uint32, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		k := 2 + int(kRaw)%10
		counts := make([]int, k)
		// Fill at most k-1 slots so a free one remains.
		for i := 0; i < k-1; i++ {
			if rng.Intn(2) == 0 {
				counts[rng.Intn(k)]++
			}
		}
		c, err := RuleFirstFree.choose(counts)
		if err != nil {
			return false
		}
		if counts[c] != 0 {
			return false
		}
		for i := 0; i < c; i++ {
			if counts[i] == 0 {
				return false // not the smallest free color
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the H-partition level assignment equals the centralized
// peeling computed directly on the graph.
func TestHPartitionMatchesCentralizedPeeling(t *testing.T) {
	prop := func(seed uint32, aRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		a := 1 + int(aRaw)%6
		g := graph.ForestUnion(120, a, rng)
		net := dist.NewNetworkPermuted(g, rng)
		hp, err := ComputeHPartition(net, a, DefaultEps, nil, nil)
		if err != nil {
			return false
		}
		// Centralized peeling.
		threshold := DefaultEps.Threshold(a)
		level := make([]int, g.N())
		deg := make([]int, g.N())
		remaining := g.N()
		for v := 0; v < g.N(); v++ {
			deg[v] = g.Degree(v)
		}
		for l := 1; remaining > 0; l++ {
			var peel []int
			for v := 0; v < g.N(); v++ {
				if level[v] == 0 && deg[v] <= threshold {
					peel = append(peel, v)
				}
			}
			if len(peel) == 0 {
				return false // stalled: distributed version must have errored
			}
			for _, v := range peel {
				level[v] = l
			}
			for _, v := range peel {
				for _, u := range g.Neighbors(v) {
					if level[u] == 0 {
						deg[u]--
					}
				}
			}
			remaining -= len(peel)
		}
		for v := 0; v < g.N(); v++ {
			if hp.Level[v] != level[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: WaitColor with RuleFirstFree on a complete acyclic orientation
// is legal for every random workload (Lemma 2.2(1) correctness).
func TestWaitColorLegalQuick(t *testing.T) {
	prop := func(seed uint32, aRaw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		a := 1 + int(aRaw)%5
		g := graph.ForestUnion(100, a, rng)
		net := dist.NewNetworkPermuted(g, rng)
		or, hp, err := CompleteAcyclicOrientation(net, a, DefaultEps)
		if err != nil {
			return false
		}
		wc, err := WaitColor(net, or, hp.Degree+1, RuleFirstFree)
		if err != nil {
			return false
		}
		return g.CheckLegalColoring(wc.Colors) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
