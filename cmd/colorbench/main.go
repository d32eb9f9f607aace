// Colorbench runs the full experiment suite of internal/experiments
// (E01-E22), regenerating every theorem-level claim of the paper with
// measured values next to the predicted bounds, one table row per claim
// checked (README, Run); with -json it emits one machine-readable record per
// experiment row (JSON Lines: colors, rounds, messages, wall time) for
// CI trend tracking.
//
// With -scale it instead runs the large-graph experiment: generate (or
// load, see -graph) a forest-union instance through the DCG1 binary
// format and run Legal-Coloring end to end, recording wall time and
// heap allocations.
//
// With -scale-procs the full-size run becomes a speedup sweep: one run
// per listed core count (GOMAXPROCS and the engine worker pool are both
// pinned), one record each, and the sweep fails unless every point
// produces bit-for-bit identical colors, rounds and message counts.
// -scale-shards records the analogous shard-count curve: one run per
// listed shard count on a sharded engine view (count 1 is the
// flat baseline), same bit-for-bit gate, and a cross-gate against the
// core-count runs when both sweeps are requested.
// -cpuprofile/-memprofile capture pprof profiles of any invocation.
//
// Usage:
//
//	colorbench [-n vertices] [-seed s] [-exp E07] [-json]
//	colorbench -scale [-scale-n 1000000] [-scale-a 8] [-scale-p 4]
//	           [-graph g.bin]
//	           [-scale-procs 1,2,4,8] [-scale-shards 1,2,4,8] [-json]
//	colorbench ... [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	n := flag.Int("n", experiments.DefaultSizes.N, "vertex count per workload")
	seed := flag.Int64("seed", experiments.DefaultSizes.Seed, "base RNG seed")
	exp := flag.String("exp", "", "run a single experiment (e.g. E07)")
	jsonOut := flag.Bool("json", false, "emit one JSON record per row (JSON Lines) instead of the table")
	scale := flag.Bool("scale", false, "run the large-graph experiment instead of the suite")
	scaleN := flag.Int("scale-n", 1_000_000, "scale run: vertex count of the generated instance")
	scaleA := flag.Int("scale-a", 8, "scale run: arboricity (forests in the union and the Legal-Coloring bound)")
	scaleP := flag.Int("scale-p", 4, "scale run: Legal-Coloring refinement parameter p")
	graphPath := flag.String("graph", "", "scale run: prebuilt graph file (DCG1 binary or text edge list)")
	allocBudget := flag.Float64("scale-alloc-budget", 0, "scale run: fail if the full run exceeds this many heap allocations per vertex (0 disables)")
	wallBudget := flag.Float64("scale-wall-budget", 0, "scale run: fail if a full-size flat run's wall time exceeds this many seconds (0 disables; nightly derives it from the checked-in BENCH_scale.json baseline + 15%)")
	evalGate := flag.Bool("scale-eval-gate", false, "scale run: enable the field eval counters (closed-form vs ladder neighbour resolutions per recoloring step) and fail unless they reach the pipeline")
	scaleKillResume := flag.Bool("scale-kill-resume", false, "scale run: instead of the measured run, gate checkpoint/resume - run uninterrupted, kill at every refinement iteration after persisting the pipeline checkpoint, resume each from the serialized blob on a fresh network, and fail unless colors/rounds/messages match bit for bit")
	scaleProcs := flag.String("scale-procs", "", "scale run: comma-separated core counts (e.g. 1,2,4,8); one full run per count with GOMAXPROCS and the worker pool pinned, asserting identical results")
	scaleShards := flag.String("scale-shards", "", "scale run: comma-separated shard counts (e.g. 1,2,4,8); one full run per count on a sharded engine view, asserting identical results")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file on exit")
	tracePath := flag.String("trace", "", "scale run: write a round-level JSONL trace of the full-size coloring run to this file (see cmd/colortrace)")
	serveAddr := flag.String("serve", "", "serve live introspection (expvar + pprof) on this address (e.g. localhost:6060) for the life of the run")
	flag.Parse()

	if *serveAddr != "" {
		// Live introspection implies counting: the coloring.evals var is
		// only worth scraping if the field-eval counters are running.
		field.SetEvalStats(true)
		obs.PublishEvalStats()
		addr, err := obs.Serve(*serveAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "introspection: http://%s/debug/vars and /debug/pprof/\n", addr)
	}
	if *tracePath != "" && !*scale {
		return fmt.Errorf("-trace requires -scale (round-level tracing covers the scale run)")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *scale {
		procs, err := parseCounts(*scaleProcs, "-scale-procs", "core")
		if err != nil {
			return err
		}
		shards, err := parseCounts(*scaleShards, "-scale-shards", "shard")
		if err != nil {
			return err
		}
		if *scaleKillResume {
			return runKillResume(*scaleN, *scaleA, *scaleP, *seed, *graphPath, shards)
		}
		return runScale(*scaleN, *scaleA, *scaleP, *seed, *graphPath, *allocBudget, *wallBudget, *evalGate, procs, shards, *jsonOut, *tracePath, *serveAddr != "")
	}

	sizes := experiments.Sizes{N: *n, Seed: *seed}
	suite := experiments.List()
	if *exp != "" {
		id := strings.ToUpper(*exp)
		var selected []experiments.Experiment
		for _, e := range suite {
			if e.ID == id {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		suite = selected
	}

	var rows []experiments.Row
	var recs []experiments.Record
	for _, e := range suite {
		start := time.Now()
		expRows, err := e.Fn(sizes)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		wallMS := float64(time.Since(start).Microseconds()) / 1000.0
		rows = append(rows, expRows...)
		for _, r := range expRows {
			recs = append(recs, experiments.NewRecord(r, wallMS, sizes))
		}
	}

	bad := 0
	for _, r := range rows {
		if !r.OK {
			bad++
		}
	}
	if *jsonOut {
		if err := experiments.WriteJSON(os.Stdout, recs); err != nil {
			return err
		}
	} else {
		fmt.Printf("reproduction suite: n=%d seed=%d\n\n", sizes.N, sizes.Seed)
		fmt.Print(experiments.Table(rows))
		fmt.Printf("\n%d rows, %d bound violations\n", len(rows), bad)
	}
	if bad > 0 {
		return fmt.Errorf("%d experiments violated their bound", bad)
	}
	return nil
}

// runKillResume executes the checkpoint/resume gate: ScaleKillResume
// kills Legal-Coloring at every refinement iteration (persisting the
// pipeline checkpoint through the real serializer each time) and
// resumes each kill on a fresh network, failing unless the resumed
// coloring and the merged rounds/messages totals match the
// uninterrupted run bit for bit. With -scale-shards the gate runs once
// per listed shard count (the flat engine at count 1).
func runKillResume(n, a, p int, seed int64, graphPath string, shards []int) error {
	if len(shards) == 0 {
		shards = []int{1}
	}
	for _, k := range shards {
		opt := experiments.ScaleOptions{
			N: n, Arboricity: a, P: p, Seed: seed, GraphPath: graphPath, Shards: k,
		}
		rep, err := experiments.ScaleKillResume(opt)
		if err != nil {
			return fmt.Errorf("kill-resume (shards=%d): %w", k, err)
		}
		fmt.Printf("kill-resume ok (shards=%d): %d iterations killed+resumed, colors/rounds/messages %d/%d/%d, checkpoint %d bytes\n",
			k, rep.Iterations, rep.Colors, rep.Rounds, rep.Messages, rep.Bytes)
	}
	return nil
}

// parseCounts parses a comma-separated positive-count list ("1,2,4,8")
// for the -scale-procs / -scale-shards sweep flags.
func parseCounts(s, flagName, what string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var counts []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("%s: bad %s count %q", flagName, what, part)
		}
		counts = append(counts, w)
	}
	return counts, nil
}

// runScale executes the scale experiment: the full-size run - once with
// the auto worker heuristic, or (with -scale-procs) once per
// listed core count with GOMAXPROCS and the engine worker pool pinned,
// requiring bit-for-bit identical colorings and counters across the
// sweep - and (with -scale-shards) one run per listed shard count on
// a sharded engine view with the same bit-for-bit gate, cross-
// gated against the core-count runs. All records go to the JSON-Lines
// stream (or a readable text line). A nonzero allocBudget gates the
// (flat) full runs' allocs/vertex - the CI regression check for the
// word-column plumbing - and a nonzero wallBudget gates their wall
// time the same way (the nightly wall-regression check). evalGate turns
// the field eval counters on for the whole invocation and fails it
// unless the recoloring steps counted into them: each vertex step
// counts its own point, and each conflict neighbour as a closed-form
// hit or a ladder evaluation.
func runScale(n, a, p int, seed int64, graphPath string, allocBudget, wallBudget float64, evalGate bool, procs, shards []int, jsonOut bool, tracePath string, serving bool) error {
	if evalGate {
		field.SetEvalStats(true)
		field.ResetEvalStats()
	}
	var tw *obs.TraceWriter
	var probe *dist.Probe
	if tracePath != "" {
		var err error
		tw, err = obs.CreateTrace(tracePath)
		if err != nil {
			return err
		}
		probe = dist.NewProbe(tw)
		field.SetEvalStats(true)
		obs.PublishProbe(probe)
	} else if serving {
		// Metrics-only probe: nothing is written, but the -serve expvar
		// scrape (coloring.probe) sees live run/round/message totals.
		probe = dist.NewProbe(discardSink{})
		obs.PublishProbe(probe)
	}

	var recs []experiments.Record
	emit := func(res *experiments.ScaleResult) {
		recs = append(recs, res.Record)
		if !jsonOut {
			r := res.Record
			fmt.Printf("SCALE %-28s %-22s procs=%d workers=%d shards=%d colors=%d rounds=%d messages=%d palette=%.0f wall=%.0fms mallocs=%d alloc=%.1fMB allocs/vertex=%.2f ok=%v\n",
				r.Workload, r.Params, r.GoMaxProcs, r.Workers, r.Shards, r.Colors, r.Rounds, r.Messages, r.Measured, r.WallMS, r.Mallocs, r.AllocMB, r.AllocsPerVertex, r.OK)
		}
	}

	// The full-size run(s): a speedup sweep over the requested core
	// counts - the instance is prepared once, then each point pins
	// GOMAXPROCS (so GC and runtime assist work scale with the point
	// being measured) together with the engine worker pool and runs on
	// a fresh session - or a single auto-paced run when no sweep was
	// requested. ScaleSweep fails unless colors/rounds/messages are
	// bit-for-bit identical across the points; its partial results are
	// still emitted so the JSONL artifact keeps the diagnostics.
	opt := experiments.ScaleOptions{
		N: n, Arboricity: a, P: p, Seed: seed, GraphPath: graphPath,
		Probe: probe, TracePath: tracePath,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	var fulls []*experiments.ScaleResult
	var sweepErr error
	switch {
	case len(procs) > 0:
		fulls, sweepErr = experiments.ScaleSweep(opt, procs)
	case len(shards) > 0:
		// Shard-sweep-only invocation: the shard curve's count-1 point is
		// the flat baseline, no separate auto run needed.
	default:
		full, err := experiments.ScaleRun(opt)
		if err != nil {
			if probe != nil {
				probe.Close()
			}
			if tw != nil {
				tw.Close()
			}
			return err
		}
		fulls = []*experiments.ScaleResult{full}
	}
	for _, full := range fulls {
		emit(full)
	}

	// The shard-count curve: same instance and identifier permutation,
	// one run per shard count on a sharded engine view, emitted
	// next to the core-count records.
	var shardFulls []*experiments.ScaleResult
	var shardErr error
	if len(shards) > 0 {
		shardFulls, shardErr = experiments.ScaleShardSweep(opt, shards)
		for _, full := range shardFulls {
			emit(full)
		}
	}

	// Seal the trace: flush the probe's ring, append the eval-stat
	// snapshot, close the file. Done before the gates below so a failing
	// gate still leaves a complete trace artifact. A sink write failure
	// surfaces here - the run's numbers are still printed, but the exit
	// is non-zero because the trace artifact is incomplete.
	if probe != nil {
		if err := probe.Close(); err != nil {
			return fmt.Errorf("probe sink: %w", err)
		}
	}
	if tw != nil {
		tw.WriteEvalStats(field.EvalStatsSnapshot())
		rounds, runs := tw.Counts()
		if err := tw.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if !jsonOut {
			fmt.Printf("trace: %d round records, %d run records -> %s\n", rounds, runs, tracePath)
		}
	}

	// Write the records before applying any gate, so a failing run still
	// leaves its diagnostics in the JSON-Lines artifact.
	if jsonOut {
		if err := experiments.WriteJSON(os.Stdout, recs); err != nil {
			return err
		}
	}
	if sweepErr != nil {
		return sweepErr
	}
	if shardErr != nil {
		return shardErr
	}
	// Cross-gate the two curves: a shard-sweep point must reproduce the
	// core-sweep coloring exactly (both gates already pinned their own
	// sweeps internally, so comparing the first of each suffices).
	if len(fulls) > 0 && len(shardFulls) > 0 {
		a, b := fulls[0].Record, shardFulls[0].Record
		if !slices.Equal(fulls[0].Colors, shardFulls[0].Colors) ||
			a.Rounds != b.Rounds || a.Messages != b.Messages {
			return fmt.Errorf(
				"scale shard sweep diverges from core sweep (colors/rounds/messages %d/%d/%d vs %d/%d/%d)",
				b.Colors, b.Rounds, b.Messages, a.Colors, a.Rounds, a.Messages)
		}
	}
	for _, r := range recs {
		if !r.OK {
			return fmt.Errorf("scale run %s %s produced an illegal coloring: %s", r.Workload, r.Params, r.Note)
		}
	}
	for _, full := range fulls {
		if allocBudget > 0 && full.Record.AllocsPerVertex > allocBudget {
			return fmt.Errorf("scale run %s %s (workers=%d) allocated %.2f allocs/vertex, over the %.2f budget",
				full.Record.Workload, full.Record.Params, full.Record.Workers, full.Record.AllocsPerVertex, allocBudget)
		}
		if wallBudget > 0 && full.Record.WallMS > wallBudget*1000 {
			return fmt.Errorf("scale run %s %s (workers=%d) took %.0f ms, over the %.1f s wall budget",
				full.Record.Workload, full.Record.Params, full.Record.Workers, full.Record.WallMS, wallBudget)
		}
	}
	if evalGate {
		snap := field.EvalStatsSnapshot()
		if len(snap) == 0 {
			return fmt.Errorf("-scale-eval-gate: no eval counters registered (counting did not reach the pipeline)")
		}
		var hits, ladder int64
		for _, s := range snap {
			hits += s.Hits
			ladder += s.Batched
		}
		if !jsonOut {
			fmt.Printf("eval gate ok: %d evaluations, %d closed-form or own-point hits, %d ladder\n", hits+ladder, hits, ladder)
		}
	}
	return nil
}

// discardSink drops probe records; it backs the metrics-only probe the
// -serve endpoint scrapes when no -trace file was requested.
type discardSink struct{}

func (discardSink) FlushRounds([]dist.RoundRecord) error { return nil }
func (discardSink) FlushRuns([]dist.RunRecord) error     { return nil }
