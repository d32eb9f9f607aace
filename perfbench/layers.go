package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/field"
)

const (
	// setupReps is how many set-ups the traced run times; the graph.* and
	// dist.network_s metrics are their medians.
	setupReps = 5
	// minTraced is the fewest traced colorings a traced run measures.
	minTraced = 2
)

// phaseNames are the Tally phases the traced run reports. Legal-Coloring
// runs the first five, deltacolor the last four; the "(d=...)" variants
// of one phase are summed under its bare name.
var phaseNames = []string{
	"h-partition", "level-coloring", "orientation", "simple-arbdefective", "final-greedy",
	"defective", "base-linial", "base-reduce", "merge",
}

// layerMetrics lists every per-layer metric with its unit, in the order
// of BENCHMARK.json. A layer that does no work on a workload reports 0.
var layerMetrics = func() []metricName {
	ms := []metricName{
		{"graph.gen_s", "s"}, {"graph.write_s", "s"}, {"graph.load_s", "s"}, {"graph.file_mb", "MB"},
		{"dist.network_s", "s"},
		{"dist.runs", "count"}, {"dist.run_setup_s", "s"}, {"dist.topo_cache_hit_ratio", "ratio"},
		{"dist.scratch_pooled_ratio", "ratio"},
		{"dist.run_compute_s", "s"}, {"dist.rounds", "count"}, {"dist.vertex_steps", "count"},
		{"dist.step_ns_per_vertex", "ns"}, {"dist.shard_imbalance", "ratio"},
	}
	for _, p := range phaseNames {
		ms = append(ms, metricName{"phase." + p + ".wall_s", "s"}, metricName{"phase." + p + ".rounds", "count"},
			metricName{"phase." + p + ".messages", "count"}, metricName{"phase." + p + ".peak_live", "count"})
	}
	return append(ms,
		metricName{"core.host_s", "s"}, metricName{"deltacolor.host_s", "s"},
		metricName{"field.evals_hit", "count"}, metricName{"field.evals_batched", "count"},
		metricName{"field.evals_fallback", "count"},
		metricName{"field.batcheval_ns_per_point", "ns"}, metricName{"field.agreerun_ns", "ns"},
		metricName{"go.gc_cycles", "count"}, metricName{"go.gc_pause_s", "s"},
		metricName{"trace.overhead_ratio", "ratio"}, metricName{"trace.unattributed_s", "s"},
	)
}()

type metricName struct{ name, unit string }

// recorder is the benchmark's ProbeSink: it buffers every record in
// memory. The probe calls it from one goroutine, and the harness reads
// the buffers only after Probe.Close has returned.
type recorder struct {
	rounds []dist.RoundRecord
	runs   []dist.RunRecord
}

func (r *recorder) FlushRounds(rs []dist.RoundRecord) error {
	r.rounds = append(r.rounds, rs...)
	return nil
}

func (r *recorder) FlushRuns(rs []dist.RunRecord) error {
	r.runs = append(r.runs, rs...)
	return nil
}

// span is one traced interval. The spans of one set-up or one coloring
// share a trace id. Engine records carry a duration but no clock
// reading, so their start_ns is absent.
type span struct {
	Trace   int            `json:"trace"`
	ID      int            `json:"id"`
	Parent  int            `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns,omitempty"`
	DurNS   int64          `json:"dur_ns"`
	SelfNS  int64          `json:"self_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	trace int
	spans []span
}

// add records a span under parent (0 for a root) and returns its id; the
// parent's self time loses the child's duration.
func (t *tracer) add(parent int, name string, start time.Time, dur time.Duration, attrs map[string]any) int {
	s := span{Trace: t.trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		DurNS: dur.Nanoseconds(), SelfNS: dur.Nanoseconds(), Attrs: attrs}
	if !start.IsZero() {
		s.StartNS = start.Sub(t.epoch).Nanoseconds()
	}
	if parent > 0 {
		t.spans[parent-1].SelfNS -= s.DurNS
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) addSetup(st setupTimes, fileBytes int64) {
	t.trace++
	root := t.add(0, "setup", st.start, st.total, map[string]any{"file_bytes": fileBytes})
	at := st.start
	for _, part := range []struct {
		name string
		d    time.Duration
	}{{"graph.generate", st.gen}, {"graph.write_binary", st.write}, {"graph.load", st.load}, {"dist.network", st.network}} {
		t.add(root, part.name, at, part.d, nil)
		at = at.Add(part.d)
	}
}

// addColoring records a coloring span with one child per engine run and
// one grandchild per round, and returns the coloring span's self time:
// the orchestrator's host-side work between engine runs.
func (t *tracer) addColoring(name string, c *coloring, rec *recorder) time.Duration {
	t.trace++
	root := t.add(0, name, c.start, c.wall, map[string]any{
		"colors": c.counts.Colors, "rounds": c.counts.Rounds, "messages": c.counts.Messages,
	})
	byRun := make(map[int64][]dist.RoundRecord, len(rec.runs))
	for _, rr := range rec.rounds {
		byRun[rr.Run] = append(byRun[rr.Run], rr)
	}
	for _, r := range rec.runs {
		id := t.add(root, "dist.run", time.Time{}, time.Duration(r.SetupNS+r.ComputeNS), map[string]any{
			"phase": r.Phase, "setup_ns": r.SetupNS, "compute_ns": r.ComputeNS, "rounds": r.Rounds,
			"messages": r.Messages, "peak_live": r.PeakLive, "topo_cached": r.TopoCached,
			"scratch_pooled": r.ScratchPooled, "shards": r.Shards,
		})
		for _, rr := range byRun[r.Run] {
			t.add(id, "dist.round", time.Time{}, time.Duration(rr.WallNS), map[string]any{
				"round": rr.Round, "live": rr.Live, "messages": rr.Messages, "step_ns": stepNS(rr),
			})
		}
	}
	return time.Duration(t.spans[root-1].SelfNS)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stepNS is a round's vertex-step wall: the sum of the shard segments on
// a sharded run, the (single) chunk otherwise.
func stepNS(rr dist.RoundRecord) int64 {
	if len(rr.Shards) == 0 {
		return rr.MaxChunkNS
	}
	var sum int64
	for _, s := range rr.Shards {
		sum += s.WallNS
	}
	return sum
}

// layerSample is the per-layer view of one traced coloring.
type layerSample struct {
	metrics map[string]float64
	evals   []field.EvalStat
	wall    time.Duration
}

// tracedColoring colors once on a fresh network with a probe attached
// and field evaluation counting on.
func (h *harness) tracedColoring(inst *instance, t *tracer) (*layerSample, error) {
	net, err := h.freshNetwork(inst)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	probe := dist.NewProbe(rec)
	field.ResetEvalStats()
	field.SetEvalStats(true)
	c, err := h.color(inst, net.WithProbe(probe))
	field.SetEvalStats(false)
	if cerr := probe.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	evals := field.EvalStatsSnapshot()
	host := t.addColoring(h.w.orchestrator+".coloring", c, rec)

	m := map[string]float64{
		h.w.orchestrator + ".host_s": host.Seconds(),
		"dist.runs":                  float64(len(rec.runs)),
		"go.gc_cycles":               float64(c.gcCycles),
		"go.gc_pause_s":              c.gcPause.Seconds(),
	}
	var topoHits, pooled int
	var runSetup, runCompute int64
	for _, r := range rec.runs {
		runSetup += r.SetupNS
		runCompute += r.ComputeNS
		m["dist.rounds"] += float64(r.Rounds)
		if r.TopoCached {
			topoHits++
		}
		if r.ScratchPooled {
			pooled++
		}
	}
	m["dist.run_setup_s"] = float64(runSetup) / 1e9
	m["dist.run_compute_s"] = float64(runCompute) / 1e9
	if n := len(rec.runs); n > 0 {
		m["dist.topo_cache_hit_ratio"] = float64(topoHits) / float64(n)
		m["dist.scratch_pooled_ratio"] = float64(pooled) / float64(n)
	}
	var steps, stepTotal int64
	var shardMax, shardMean float64
	for _, rr := range rec.rounds {
		steps += int64(rr.Live)
		stepTotal += stepNS(rr)
		if k := len(rr.Shards); k > 0 {
			var mx, sum int64
			for _, s := range rr.Shards {
				mx = max(mx, s.WallNS)
				sum += s.WallNS
			}
			shardMax += float64(mx)
			shardMean += float64(sum) / float64(k)
		}
	}
	m["dist.vertex_steps"] = float64(steps)
	if steps > 0 {
		m["dist.step_ns_per_vertex"] = float64(stepTotal) / float64(steps)
	}
	if shardMean > 0 {
		m["dist.shard_imbalance"] = shardMax / shardMean
	}

	var phaseWall time.Duration
	for _, p := range c.out.tally.Phases() {
		phaseWall += p.Wall
		name, _, _ := strings.Cut(p.Name, "(")
		key := "phase." + name
		m[key+".wall_s"] += p.Wall.Seconds()
		m[key+".rounds"] += float64(p.Rounds)
		m[key+".messages"] += float64(p.Messages)
		m[key+".peak_live"] = max(m[key+".peak_live"], float64(p.PeakLive))
	}
	// Attribution: the Tally's phase walls plus the orchestrator's self
	// time should cover the coloring span. What they leave over is engine
	// run time no phase accounts for; it is negative when phase walls
	// also hold host work that the self time counts too.
	m["trace.unattributed_s"] = (c.wall - phaseWall - host).Seconds()

	for _, e := range evals {
		m["field.evals_hit"] += float64(e.Hits)
		m["field.evals_batched"] += float64(e.Batched)
		m["field.evals_fallback"] += float64(e.Fallbacks)
	}
	return &layerSample{metrics: m, evals: evals, wall: c.wall}, nil
}

// prepare runs setupReps set-ups and returns the last instance.
func (h *harness) prepare() (*instance, []setupTimes, error) {
	var inst *instance
	var setups []setupTimes
	for i := 0; i < setupReps; i++ {
		h.attempted++
		in, st, err := h.setup()
		if err != nil {
			h.failed++
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		if inst != nil && in.fingerprint() != inst.fingerprint() {
			h.failed++
			fmt.Fprintln(os.Stderr, "perfbench: set-up is not deterministic in the seed")
		}
		inst, setups = in, append(setups, st)
	}
	return inst, setups, nil
}

// measureLayers is the traced run. After the set-ups and the process's
// first coloring it alternates plain and traced colorings on fresh
// networks until the budget is spent; each per-layer metric is the median
// over the traced colorings, and trace.overhead_ratio compares them with
// the plain ones.
func (h *harness) measureLayers() (*result, error) {
	start := time.Now()
	t := &tracer{epoch: start}
	inst, setups, err := h.prepare()
	if err != nil {
		return nil, err
	}
	for _, st := range setups {
		t.addSetup(st, inst.fileBytes)
	}
	first, err := h.color(inst, inst.net)
	if err != nil {
		return nil, fmt.Errorf("first coloring: %w", err)
	}
	var plain, traced []float64
	var samples []*layerSample
	for len(samples) < minTraced || time.Since(start) < h.budget {
		net, err := h.freshNetwork(inst)
		if err != nil {
			return nil, err
		}
		c, err := h.color(inst, net)
		if err != nil {
			return nil, fmt.Errorf("plain coloring: %w", err)
		}
		plain = append(plain, c.wall.Seconds())
		s, err := h.tracedColoring(inst, t)
		if err != nil {
			return nil, fmt.Errorf("traced coloring: %w", err)
		}
		samples, traced = append(samples, s), append(traced, s.wall.Seconds())
	}
	if err := h.crossCheckFlat(inst, first); err != nil {
		return nil, err
	}

	metrics := make(map[string]metric, len(layerMetrics))
	for _, mn := range layerMetrics {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s.metrics[mn.name]
		}
		metrics[mn.name] = metric{median(vals), mn.unit}
	}
	var gen, write, load, network []float64
	for _, st := range setups {
		gen = append(gen, st.gen.Seconds())
		write = append(write, st.write.Seconds())
		load = append(load, st.load.Seconds())
		network = append(network, st.network.Seconds())
	}
	metrics["graph.gen_s"] = metric{median(gen), "s"}
	metrics["graph.write_s"] = metric{median(write), "s"}
	metrics["graph.load_s"] = metric{median(load), "s"}
	metrics["dist.network_s"] = metric{median(network), "s"}
	metrics["graph.file_mb"] = metric{float64(inst.fileBytes) / (1 << 20), "MB"}

	overhead := median(traced) / median(plain)
	metrics["trace.overhead_ratio"] = metric{overhead, "ratio"}
	// The phases and the self time must cover the coloring span to within
	// the tracing overhead.
	if rem := metrics["trace.unattributed_s"].Value; rem > max(overhead-1, 0.02)*median(traced) {
		h.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %.3fs of the traced coloring is attributed to no phase\n", rem)
	}

	busiest, err := busiestStep(samples[len(samples)-1].evals)
	if err != nil {
		return nil, err
	}
	perPoint, agree, err := fieldKernel(busiest, h.seed)
	if err != nil {
		return nil, err
	}
	metrics["field.batcheval_ns_per_point"] = metric{perPoint, "ns"}
	metrics["field.agreerun_ns"] = metric{agree, "ns"}

	if err := t.write(filepath.Join(h.dir, fmt.Sprintf("trace-%s-seed%d.jsonl", h.w.name, h.seed))); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d traced colorings, median %.3fs traced vs %.3fs plain; busiest field step q=%d d=%d\n",
		h.w.name, h.seed, len(samples), median(traced), median(plain), busiest.Q, busiest.D)
	return &result{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: metrics}, nil
}

// busiestStep is the (step, q, d) key with the most row evaluations.
func busiestStep(evals []field.EvalStat) (field.EvalStat, error) {
	var best field.EvalStat
	for _, e := range evals {
		if e.Total() > best.Total() {
			best = e
		}
	}
	if best.Total() == 0 {
		return best, fmt.Errorf("the traced coloring counted no field evaluations")
	}
	return best, nil
}

// agreeCandidates is the candidate-run length of the AgreeRun timing:
// the conflict neighbours one vertex holds on both instance families.
const agreeCandidates = 16

// fieldKernel times the recoloring kernel directly at one (q, d) step:
// field.BatchEval per evaluated point, and RowBlock.AgreeRun per call on
// sorted candidate runs drawn from the step's q^2 palette.
func fieldKernel(st field.EvalStat, seed int64) (nsPerPoint, agreeNS float64, err error) {
	fam, err := field.Families(st.Q, st.D)
	if err != nil {
		return 0, 0, err
	}
	b := fam.Block(-1)
	q := st.Q
	rng := rand.New(rand.NewSource(seed))
	xs := make([]int, 4096)
	for i := range xs {
		xs[i] = rng.Intn(q * q)
	}
	const minDur = 150 * time.Millisecond
	dst := make([]int, q)
	var points int
	begin := time.Now()
	for points == 0 || time.Since(begin) < minDur {
		for _, x := range xs {
			field.BatchEval(q, st.D, x, dst)
		}
		points += len(xs) * q
	}
	nsPerPoint = float64(time.Since(begin).Nanoseconds()) / float64(points)

	x0 := xs[0]
	ref := append([]int(nil), b.Row(x0, dst)...)
	agrees, scratch := make([]int, q), make([]int, q)
	runs := make([][]int, len(xs)/agreeCandidates)
	for i := range runs {
		runs[i] = xs[i*agreeCandidates : (i+1)*agreeCandidates]
		slices.Sort(runs[i])
	}
	var calls int
	begin = time.Now()
	for calls == 0 || time.Since(begin) < minDur {
		for _, ys := range runs {
			clear(agrees)
			b.AgreeRun(agrees, ref, ys, x0, scratch, nil)
		}
		calls += len(runs)
	}
	agreeNS = float64(time.Since(begin).Nanoseconds()) / float64(calls)
	return nsPerPoint, agreeNS, nil
}
