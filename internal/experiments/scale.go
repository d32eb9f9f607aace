package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

// The scale experiment (exp id "SCALE") is the ROADMAP's million-vertex
// target: load an n=10^6-class instance through the streaming binary
// graph format and run Procedure Legal-Coloring end to end, recording
// wall time and heap allocations next to the usual
// colors/rounds/messages.

// ScaleOptions configures one scale run.
type ScaleOptions struct {
	// N and Arboricity shape the generated forest union (ignored when
	// GraphPath is set); Arboricity is also the bound handed to
	// Legal-Coloring. Zero values mean n=10^6, a=8.
	N          int
	Arboricity int
	// P is Legal-Coloring's refinement parameter (>= 4; default 4, so an
	// a=8 instance exercises one Arbdefective-Coloring iteration).
	P    int
	Seed int64
	// GraphPath loads a prebuilt graph file (DCG1 binary or text edge
	// list, e.g. from graphgen -binary) instead of generating one.
	GraphPath string
	// Dir is the scratch directory for the generate->WriteBinary->
	// OpenBinary round trip; empty means a temporary directory.
	Dir string
	// Workers pins the engine worker count for every phase of the run
	// (dist.Network.WithWorkers); 0 keeps the auto heuristic. The
	// coloring is bit-for-bit identical at every setting - the knob only
	// paces the worker pool, which is what the -scale-procs speedup
	// sweep measures.
	Workers int
	// Shards runs the engine on a sharded view with this many vertex
	// shards (dist.Network.Sharded); 0 or 1 keeps the flat view. When
	// the instance comes from a DCG1 binary the graph is loaded through
	// the streaming per-shard reader (graph.OpenBinaryShards), bounding
	// peak load RSS to one shard's CSR slice plus the degree pass. Like
	// Workers, the knob never changes colors, rounds or messages.
	Shards int
	// Probe, when non-nil, is attached to the measured coloring run
	// (dist.Network.WithProbe), tracing every engine round of every
	// phase. The caller owns the probe's lifecycle (Close after the run).
	Probe *dist.Probe
	// TracePath and Timestamp annotate the emitted Record: where the
	// probe's JSONL trace went, and the harness-supplied RFC3339 run
	// stamp. Neither affects the computation.
	TracePath string
	Timestamp string
}

func (o *ScaleOptions) normalize() {
	if o.N <= 0 {
		o.N = 1_000_000
	}
	if o.Arboricity < 1 {
		o.Arboricity = 8
	}
	if o.P < 4 {
		o.P = 4
	}
}

// ScaleResult is one scale run: the JSON-Lines record plus the raw
// coloring, which sweeps check bit for bit across their points.
type ScaleResult struct {
	Record Record
	Colors []int
}

// ScaleRun executes the scale experiment.
func ScaleRun(opt ScaleOptions) (*ScaleResult, error) {
	opt.normalize()
	// One rng drives generation and then the ID permutation (the
	// forestNet convention): reseeding for the permutation would replay
	// the exact stream that shaped the edges, correlating IDs with
	// structure.
	rng := rand.New(rand.NewSource(opt.Seed))
	g, source, err := scaleGraph(opt, rng)
	if err != nil {
		return nil, err
	}
	net := dist.NewNetworkPermuted(g, rng)
	if opt.Workers > 0 {
		net = net.WithWorkers(opt.Workers)
	}
	if net, err = shardNet(net, g, opt.Shards); err != nil {
		return nil, err
	}
	return scaleMeasure(net, g, source, opt)
}

// shardNet applies the sharded engine view for k > 1 shards;
// k <= 1 returns the flat network unchanged.
func shardNet(net *dist.Network, g *graph.Graph, k int) (*dist.Network, error) {
	if k <= 1 {
		return net, nil
	}
	sh, err := graph.NewSharding(g.N(), k)
	if err != nil {
		return nil, fmt.Errorf("experiments: scale sharding: %w", err)
	}
	return net.Sharded(sh)
}

// ScaleSweep is the speedup-curve harness: it prepares the instance ONCE
// (generation, binary round trip, identifier permutation - so every
// point colors the exact same network a plain ScaleRun with the same
// options would), then measures one coloring run per worker count with
// GOMAXPROCS and the engine worker pool pinned together and a fresh,
// cold session per point. It fails unless colors, rounds and message
// counts are bit-for-bit identical at every point; on error the results
// measured so far are still returned so harnesses can archive them.
func ScaleSweep(opt ScaleOptions, workers []int) ([]*ScaleResult, error) {
	opt.normalize()
	rng := rand.New(rand.NewSource(opt.Seed))
	g, source, err := scaleGraph(opt, rng)
	if err != nil {
		return nil, err
	}
	ids := dist.NewNetworkPermuted(g, rng).IDs()
	var results []*ScaleResult
	for _, w := range workers {
		if w < 1 {
			return results, fmt.Errorf("experiments: scale sweep worker count %d < 1", w)
		}
		net, err := dist.NewNetworkWithIDs(g, ids)
		if err != nil {
			return results, err
		}
		o := opt
		o.Workers = w
		prev := runtime.GOMAXPROCS(w)
		res, err := scaleMeasure(net.WithWorkers(w), g, source, o)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return results, fmt.Errorf("experiments: scale sweep (workers=%d): %w", w, err)
		}
		results = append(results, res)
		first := results[0]
		if !slices.Equal(res.Colors, first.Colors) ||
			res.Record.Rounds != first.Record.Rounds ||
			res.Record.Messages != first.Record.Messages {
			return results, fmt.Errorf(
				"experiments: scale sweep: workers=%d diverges from workers=%d (colors/rounds/messages %d/%d/%d vs %d/%d/%d)",
				res.Record.Workers, first.Record.Workers,
				res.Record.Colors, res.Record.Rounds, res.Record.Messages,
				first.Record.Colors, first.Record.Rounds, first.Record.Messages)
		}
	}
	return results, nil
}

// ScaleShardSweep is the shard-count curve harness, the sharded sibling
// of ScaleSweep: the instance and the identifier permutation are
// prepared ONCE, then each listed shard count colors the exact same
// network through a fresh session - the flat view at count 1, a sharded
// view above it. It fails unless colors, rounds and message counts are
// bit-for-bit identical at every count (sharding never reorders the
// computation); on error the results measured so far are still
// returned so harnesses can archive them. A sweep that includes a
// sharded point loads a DCG1 instance through the streaming per-shard
// reader (using the largest requested count), so the load-time RSS
// bound comes for free on sharded sweeps.
func ScaleShardSweep(opt ScaleOptions, shardCounts []int) ([]*ScaleResult, error) {
	opt.normalize()
	rng := rand.New(rand.NewSource(opt.Seed))
	load := opt
	for _, k := range shardCounts {
		if k > load.Shards {
			load.Shards = k
		}
	}
	g, source, err := scaleGraph(load, rng)
	if err != nil {
		return nil, err
	}
	ids := dist.NewNetworkPermuted(g, rng).IDs()
	var results []*ScaleResult
	for _, k := range shardCounts {
		if k < 1 {
			return results, fmt.Errorf("experiments: scale shard sweep: shard count %d < 1", k)
		}
		net, err := dist.NewNetworkWithIDs(g, ids)
		if err != nil {
			return results, err
		}
		o := opt
		o.Shards = k
		if o.Workers > 0 {
			net = net.WithWorkers(o.Workers)
		}
		if net, err = shardNet(net, g, k); err != nil {
			return results, err
		}
		res, err := scaleMeasure(net, g, source, o)
		if err != nil {
			return results, fmt.Errorf("experiments: scale shard sweep (shards=%d): %w", k, err)
		}
		results = append(results, res)
		first := results[0]
		if !slices.Equal(res.Colors, first.Colors) ||
			res.Record.Rounds != first.Record.Rounds ||
			res.Record.Messages != first.Record.Messages {
			return results, fmt.Errorf(
				"experiments: scale shard sweep: shards=%d diverges from shards=%d (colors/rounds/messages %d/%d/%d vs %d/%d/%d)",
				res.Record.Shards, first.Record.Shards,
				res.Record.Colors, res.Record.Rounds, res.Record.Messages,
				first.Record.Colors, first.Record.Rounds, first.Record.Messages)
		}
	}
	return results, nil
}

// scaleMeasure runs the measured coloring section on a prepared network.
func scaleMeasure(net *dist.Network, g *graph.Graph, source string, opt ScaleOptions) (*ScaleResult, error) {
	if opt.Probe != nil {
		net = net.WithProbe(opt.Probe)
	}
	// Allocation accounting brackets only the coloring run: graph
	// generation and I/O are measured by their own benchmarks.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := core.LegalColoring(net, core.Config{Arboricity: opt.Arboricity, P: opt.P})
	if err != nil {
		return nil, fmt.Errorf("experiments: scale run (n=%d a=%d p=%d): %w", g.N(), opt.Arboricity, opt.P, err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	legalErr := g.CheckLegalColoring(res.Colors)
	workers := opt.Workers
	if workers == 0 {
		workers = net.Workers() // the resolved auto default
	}
	rec := Record{
		Exp:        "SCALE",
		Workload:   fmt.Sprintf("%s n=%d m=%d", source, g.N(), g.M()),
		Params:     fmt.Sprintf("a=%d p=%d", opt.Arboricity, opt.P),
		Colors:     graph.NumColors(res.Colors),
		Rounds:     res.Tally.Rounds(),
		Messages:   res.Tally.Messages(),
		Measured:   float64(res.Palette),
		Metric:     "palette",
		OK:         legalErr == nil,
		WallMS:     float64(wall.Microseconds()) / 1000.0,
		N:          g.N(),
		Seed:       opt.Seed,
		Mallocs:    after.Mallocs - before.Mallocs,
		AllocMB:    float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Shards:     recordShards(opt, net),
		GoVersion:  runtime.Version(),
		Timestamp:  opt.Timestamp,
		TracePath:  opt.TracePath,
	}
	rec.AllocsPerVertex = float64(rec.Mallocs) / float64(g.N())
	if legalErr != nil {
		rec.Note = legalErr.Error()
	}
	return &ScaleResult{Record: rec, Colors: res.Colors}, nil
}

// recordShards resolves the Shards field of a scale record: the engine's
// resolved shard count when sharding was requested, omitted (0) on plain
// flat runs so pre-shard records keep their shape.
func recordShards(opt ScaleOptions, net *dist.Network) int {
	if opt.Shards > 0 {
		return net.Shards()
	}
	return 0
}

// scaleGraph resolves the instance: a prebuilt file, or a generated
// forest union pushed through the binary writer and streamed back in, so
// a default scale run exercises WriteBinary/OpenBinary end to end. With
// Shards > 1 a DCG1 binary instance is loaded through the streaming
// per-shard reader instead of the flat one - same graph bit for bit,
// peak load RSS bounded by one shard (plus the n-sized degree pass).
func scaleGraph(opt ScaleOptions, rng *rand.Rand) (*graph.Graph, string, error) {
	if opt.GraphPath != "" {
		if opt.Shards > 1 {
			if _, err := graph.StatBinaryFile(opt.GraphPath); err == nil {
				g, _, err := graph.OpenBinaryShards(opt.GraphPath, opt.Shards)
				if err != nil {
					return nil, "", err
				}
				return g, filepath.Base(opt.GraphPath), nil
			}
			// Not a DCG1 binary: fall through to the flat loader.
		}
		g, err := graph.LoadFile(opt.GraphPath)
		if err != nil {
			return nil, "", err
		}
		return g, filepath.Base(opt.GraphPath), nil
	}
	gen := graph.ForestUnion(opt.N, opt.Arboricity, rng)
	dir := opt.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "colorbench-scale")
		if err != nil {
			return nil, "", err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	path := filepath.Join(dir, fmt.Sprintf("forest-union-n%d-a%d-s%d.bin", opt.N, opt.Arboricity, opt.Seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, "", err
	}
	if err := gen.WriteBinary(f); err != nil {
		f.Close()
		return nil, "", err
	}
	if err := f.Close(); err != nil {
		return nil, "", err
	}
	if opt.Shards > 1 {
		g, _, err := graph.OpenBinaryShards(path, opt.Shards)
		if err != nil {
			return nil, "", err
		}
		return g, "forest-union", nil
	}
	g, err := graph.OpenBinary(path)
	if err != nil {
		return nil, "", err
	}
	return g, "forest-union", nil
}
