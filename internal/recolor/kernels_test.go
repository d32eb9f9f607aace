package recolor

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// TestSharedBlocksConcurrentRuns hammers a run's shared per-step
// agreement kernels from many goroutines (run under -race): concurrent
// NewAlgo calls, each consumer recoloring through one run's kernels
// from 8 goroutines at once, and worker-pool runs. Nothing may race and
// every color must match the sequential run. (Whole word-I/O runs are
// not overlapped here: Result.OutputWords is engine-owned and reclaimed
// by the next run, a documented transport caveat unrelated to the
// kernels.)
func TestSharedBlocksConcurrentRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := graph.RandomRegularish(600, 4, rng)
	n := g.N()
	p := Params{Color: -1, M0: n, DegBound: g.MaxDegree(), TargetDefect: 0}
	net := dist.NewNetworkPermuted(g, rand.New(rand.NewSource(5)))
	steps := Plan(p.M0, p.DegBound, p.TargetDefect).Steps
	shared, err := NewAlgo(p, false)
	if err != nil {
		t.Fatal(err)
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
			if _, err := NewAlgo(p, false); err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(seed))
			var sc stepScratch
			sc.grow(shared.rt.maxQ)
			conflicts := make([]int, 8)
			for iter := 0; iter < 50; iter++ {
				step := rng.Intn(len(shared.rt.roots))
				m := stepPalette(steps[step])
				x := rng.Intn(m)
				for i := range conflicts {
					conflicts[i] = rng.Intn(m)
				}
				want := recolorOnceRef(steps[step], x, conflicts)
				if got := shared.rt.roots[step].Recolor(sc.agrees, sc.row, x, conflicts, nil); got != want {
					t.Errorf("step %d x=%d: shared-kernel recolor %d, ref %d", step, x, got, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()

	// Worker-pool runs: same colors as the sequential run.
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
