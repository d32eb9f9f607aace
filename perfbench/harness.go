package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/graph"
)

// harness runs one workload at one seed.
type harness struct {
	w      workload
	seed   int64
	dir    string
	budget time.Duration

	attempted, failed int
	// ref holds the counts of the run's first checked coloring; every
	// later coloring must reproduce them.
	ref *counts
}

// instance is a loaded workload instance: the graph as read back from
// its DCG1 file, the identifier permutation and, when sharded, the
// vertex partition.
type instance struct {
	g         *graph.Graph
	ids       []int
	sh        graph.Sharding
	net       *dist.Network
	fileBytes int64
}

// fingerprint hashes the edge count, every adjacency list and the
// identifier permutation, so runs can check that every set-up from one
// seed built the same instance.
func (inst *instance) fingerprint() uint64 {
	f := fnv.New64a()
	var buf [8]byte
	word := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		f.Write(buf[:])
	}
	word(inst.g.M())
	for v := 0; v < inst.g.N(); v++ {
		word(inst.g.Degree(v))
		for _, u := range inst.g.Neighbors(v) {
			word(u)
		}
		word(inst.ids[v])
	}
	return f.Sum64()
}

// setupTimes splits one set-up into the public calls it makes.
type setupTimes struct {
	start                            time.Time
	gen, write, load, network, total time.Duration
}

// setup builds the instance from the seed alone: generate, WriteBinary,
// load back, NewNetworkPermuted (plus Sharded). One rng drives both the
// generator and the permutation, as in the repository's scale harness.
func (h *harness) setup() (*instance, setupTimes, error) {
	start := time.Now()
	st := setupTimes{start: start}
	rng := rand.New(rand.NewSource(h.seed))
	gen := h.w.gen(rng)
	st.gen = time.Since(start)

	t := time.Now()
	path := filepath.Join(h.dir, fmt.Sprintf("%s-seed%d.dcg1", h.w.name, h.seed))
	size, err := writeDCG1(path, gen)
	if err != nil {
		return nil, st, err
	}
	st.write = time.Since(t)

	t = time.Now()
	inst := &instance{fileBytes: size}
	if h.w.shards > 1 {
		inst.g, inst.sh, err = graph.OpenBinaryShards(path, h.w.shards)
	} else {
		inst.g, err = graph.OpenBinary(path)
	}
	if err != nil {
		return nil, st, err
	}
	st.load = time.Since(t)

	t = time.Now()
	net := dist.NewNetworkPermuted(inst.g, rng).WithWorkers(1)
	if h.w.shards > 1 {
		if net, err = net.Sharded(inst.sh); err != nil {
			return nil, st, err
		}
	}
	st.network = time.Since(t)
	st.total = time.Since(start)
	inst.net = net
	inst.ids = net.IDs()
	return inst, st, os.Remove(path)
}

func writeDCG1(path string, g *graph.Graph) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := g.WriteBinary(f); err != nil {
		f.Close()
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return fi.Size(), f.Close()
}

// freshNetwork returns a network with a new session over the loaded
// instance, so no topology cache or pooled scratch carries over from an
// earlier coloring.
func (h *harness) freshNetwork(inst *instance) (*dist.Network, error) {
	net, err := dist.NewNetworkWithIDs(inst.g, inst.ids)
	if err != nil {
		return nil, err
	}
	net = net.WithWorkers(1)
	if h.w.shards > 1 {
		return net.Sharded(inst.sh)
	}
	return net, nil
}

// coloring is one timed coloring call.
type coloring struct {
	start    time.Time
	wall     time.Duration
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
	out      *outcome
	counts   counts
}

// color times one coloring call after a full GC and checks its output.
// A failed check counts against the run; only a pipeline error aborts it.
func (h *harness) color(inst *instance, net *dist.Network) (*coloring, error) {
	h.attempted++
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := h.w.color(net)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		h.failed++
		return nil, err
	}
	c := &coloring{
		start:    start,
		wall:     wall,
		alloc:    after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		out:      out,
	}
	c.counts, err = check(inst.g, out)
	ok := false
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: illegal coloring: %v\n", err)
	case h.ref == nil:
		h.ref = &c.counts
		pin, pinned := pinnedCounts(h.w.name, h.seed)
		ok = !pinned || pin == c.counts
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: counts drifted from the pinned reference: got %v, pinned %v\n", c.counts, pin)
		}
	case *h.ref != c.counts:
		fmt.Fprintf(os.Stderr, "perfbench: counts changed between colorings: %v, first %v\n", c.counts, *h.ref)
	default:
		ok = true
	}
	if !ok {
		h.failed++
	}
	return c, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
