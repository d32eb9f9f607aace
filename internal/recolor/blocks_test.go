package recolor

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/field"
	"repro/internal/graph"
)

// TestSharedBlocksConcurrentRuns hammers the per-step row snapshots
// from many goroutines (run under -race): concurrent NewAlgo calls
// resolving the same process-wide families, all consumers recoloring
// through the RowBlocks they resolved, and worker-pool runs on the warm
// families. Nothing may race and every color must match the cold
// sequential run. (Whole word-I/O runs are not overlapped here:
// Result.OutputWords is engine-owned and reclaimed by the next run, a
// documented transport caveat unrelated to the row snapshots.)
func TestSharedBlocksConcurrentRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := graph.RandomRegularish(600, 4, rng)
	n := g.N()
	p := Params{Color: -1, M0: n, DegBound: g.MaxDegree(), TargetDefect: 0}
	net := dist.NewNetworkPermuted(g, rand.New(rand.NewSource(5)))
	steps := Plan(p.M0, p.DegBound, p.TargetDefect).Steps
	sizes := make([]int, len(steps))
	for i, step := range steps {
		fam, err := field.Families(step.Q, step.D)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = min(fam.Size(), 1<<20)
	}

	want := make([]int, n)
	if _, err := RunUniform(net, p, nil, nil, nil, want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			algo, err := NewAlgo(p, false)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(seed))
			var sc stepScratch
			sc.grow(algo.rt.maxQ)
			conflicts := make([]int, 8)
			for iter := 0; iter < 50; iter++ {
				step := rng.Intn(len(algo.rt.blocks))
				b := &algo.rt.blocks[step]
				m := sizes[step]
				x := rng.Intn(m)
				for i := range conflicts {
					conflicts[i] = rng.Intn(m)
				}
				want := recolorOnceRef(steps[step], x, conflicts)
				if got := sc.recolorOnce(b, x, append([]int(nil), conflicts...), nil); got != want {
					t.Errorf("step %d x=%d: shared-block recolor %d, ref %d", step, x, got, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()

	// Worker-pool runs on the warm families: same colors as the cold run.
	for _, workers := range []int{2, 4} {
		dst := make([]int, n)
		if _, err := RunUniform(net.WithWorkers(workers), p, nil, nil, nil, dst); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !slices.Equal(dst, want) {
			t.Fatalf("workers=%d: colors diverge from sequential run", workers)
		}
	}
}
