package obs

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/field"
	"repro/internal/graph"
)

// flood is a minimal multi-round algorithm for driving the probe.
type flood struct{ rounds int }

func (flood) MessageWords() int        { return 1 }
func (flood) InputWidth() int          { return 0 }
func (flood) OutputWidth() int         { return 0 }
func (f flood) InitWords(n *dist.Node) { n.SendAllWord(0) }
func (f flood) StepWords(n *dist.Node, inbox dist.WordInbox) {
	if n.Round() >= f.rounds {
		n.Halt()
		return
	}
	n.SendAllWord(int64(n.Round()))
}

// TestTraceRoundTrip drives a probed run through the JSONL writer and
// back through the reader, checking the decoded records match the
// engine's result and the evals snapshot survives.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	p := dist.NewProbe(tw)

	rng := rand.New(rand.NewSource(17))
	g := graph.ForestUnion(200, 3, rng)
	net := dist.NewNetworkPermuted(g, rng).WithProbe(p).WithPhase(new(dist.Tally), "test").WithPhase(new(dist.Tally), "flood")
	res, err := net.Run(flood{rounds: 5}, dist.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	evals := []field.EvalStat{{Step: 0, Q: 11, D: 2, Hits: 100, Fallbacks: 3}}
	tw.WriteEvalStats(evals)
	rounds, runs := tw.Counts()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if rounds != int64(res.Rounds) || runs != 1 {
		t.Fatalf("writer counted %d rounds / %d runs, want %d / 1", rounds, runs, res.Rounds)
	}

	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rounds) != res.Rounds || len(tr.Runs) != 1 {
		t.Fatalf("decoded %d rounds / %d runs, want %d / 1", len(tr.Rounds), len(tr.Runs), res.Rounds)
	}
	var sum int64
	for _, r := range tr.Rounds {
		sum += r.Messages
	}
	if sum != res.Messages {
		t.Fatalf("decoded messages sum to %d, want %d", sum, res.Messages)
	}
	run := tr.Runs[0]
	if run.Phase != "test/flood" || run.Rounds != res.Rounds || run.Messages != res.Messages {
		t.Fatalf("decoded run record %+v disagrees with result", run)
	}
	if len(tr.Evals) != 1 || tr.Evals[0] != evals[0] {
		t.Fatalf("evals snapshot did not round-trip: %+v", tr.Evals)
	}
}

// TestSummarize pins the per-phase aggregation: runs joined to rounds by
// sequence number, message and wall totals, cache-hit counts.
func TestSummarize(t *testing.T) {
	tr := &Trace{
		Runs: []dist.RunRecord{
			{Run: 1, Phase: "a", Rounds: 2, Messages: 10, PeakLive: 100, ComputeNS: 1000, SetupNS: 100},
			{Run: 2, Phase: "b", Rounds: 1, Messages: 5, PeakLive: 50, TopoCached: true, ScratchPooled: true},
			{Run: 3, Phase: "a", Rounds: 1, Messages: 2, PeakLive: 80, TopoCached: true, Err: "boom"},
		},
		Rounds: []dist.RoundRecord{
			{Run: 1, Round: 1, Live: 100, Messages: 7, MaxChunkNS: 30, MeanChunkNS: 10},
			{Run: 1, Round: 2, Live: 40, Messages: 3, MaxChunkNS: 10, MeanChunkNS: 10},
			{Run: 2, Round: 1, Live: 50, Messages: 5},
			{Run: 3, Round: 1, Live: 80, Messages: 2},
		},
	}
	phases := Summarize(tr)
	if len(phases) != 2 {
		t.Fatalf("%d phases, want 2", len(phases))
	}
	a, b := phases[0], phases[1]
	if a.Phase != "a" || b.Phase != "b" {
		t.Fatalf("phase order %q, %q; want a, b", a.Phase, b.Phase)
	}
	if a.Runs != 2 || a.Rounds != 3 || a.Messages != 12 {
		t.Fatalf("phase a totals %+v", a)
	}
	if a.PeakLive != 100 || a.LastLive != 80 {
		t.Fatalf("phase a live figures %+v", a)
	}
	if a.MaxImbalance != 3.0 {
		t.Fatalf("phase a imbalance %v, want 3.0", a.MaxImbalance)
	}
	if a.TopoHits != 1 || a.Errs != 1 {
		t.Fatalf("phase a cache/err counts %+v", a)
	}
	if b.ScratchHits != 1 || b.MsgsPerRound != 5 {
		t.Fatalf("phase b %+v", b)
	}

	var out strings.Builder
	if err := Table(&out, phases); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "a") || !strings.Contains(out.String(), "PHASE") {
		t.Fatalf("table output missing content:\n%s", out.String())
	}
}

// TestSummarizeShards pins the per-shard aggregation and its round trip
// through the JSONL envelope: a sharded probed run's shard stats must
// survive encode/decode and sum consistently per shard index.
func TestSummarizeShards(t *testing.T) {
	tr := &Trace{
		Rounds: []dist.RoundRecord{
			{Run: 1, Round: 1, Live: 5, Messages: 9, Shards: []dist.ShardRoundStat{
				{Live: 3, Messages: 6, WallNS: 300},
				{Live: 2, Messages: 3, WallNS: 100},
			}},
			{Run: 1, Round: 2, Live: 2, Messages: 4, Shards: []dist.ShardRoundStat{
				{Live: 2, Messages: 4, WallNS: 200},
				{Live: 0, Messages: 0, WallNS: 0},
			}},
		},
	}
	shards := SummarizeShards(tr)
	if len(shards) != 2 {
		t.Fatalf("%d shard summaries, want 2", len(shards))
	}
	s0, s1 := shards[0], shards[1]
	if s0.Rounds != 2 || s0.PeakLive != 3 || s0.Messages != 10 || s0.Wall != 500 {
		t.Fatalf("shard 0 summary %+v", s0)
	}
	if s1.Rounds != 1 || s1.PeakLive != 2 || s1.Messages != 3 || s1.Wall != 100 {
		t.Fatalf("shard 1 summary %+v", s1)
	}
	if want := 500.0 / 600.0; s0.WallShare != want {
		t.Fatalf("shard 0 wall share %v, want %v", s0.WallShare, want)
	}
	var out strings.Builder
	if err := ShardTable(&out, shards); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SHARD") || !strings.Contains(out.String(), "WALL-SHARE") {
		t.Fatalf("shard table missing content:\n%s", out.String())
	}
	// Flat traces summarize to nothing.
	if got := SummarizeShards(&Trace{Rounds: []dist.RoundRecord{{Run: 1, Round: 1}}}); got != nil {
		t.Fatalf("flat trace produced shard summaries: %+v", got)
	}
}

// TestShardStatsRoundTrip drives a sharded probed run through the JSONL
// writer and reader, checking the per-shard round stats survive.
func TestShardStatsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	p := dist.NewProbe(tw)

	rng := rand.New(rand.NewSource(23))
	g := graph.ForestUnion(200, 3, rng)
	sh, err := graph.NewSharding(g.N(), 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := dist.NewNetworkPermuted(g, rng).Sharded(sh)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.WithProbe(p).Run(flood{rounds: 5}, dist.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Runs) != 1 || tr.Runs[0].Shards != 4 {
		t.Fatalf("decoded run shards %+v", tr.Runs)
	}
	var total int64
	for _, r := range tr.Rounds {
		if len(r.Shards) != 4 {
			t.Fatalf("round %d decoded %d shard stats", r.Round, len(r.Shards))
		}
		var live int
		var msgs int64
		for _, ss := range r.Shards {
			live += ss.Live
			msgs += ss.Messages
		}
		if live != r.Live || msgs != r.Messages {
			t.Fatalf("round %d shard stats inconsistent after decode", r.Round)
		}
		total += msgs
	}
	if total != res.Messages {
		t.Fatalf("decoded shard messages sum to %d, want %d", total, res.Messages)
	}
}

// TestReadTraceSkipsUnknownTypes pins forward compatibility.
func TestReadTraceSkipsUnknownTypes(t *testing.T) {
	in := strings.NewReader(
		`{"t":"future","x":1}` + "\n" +
			`{"t":"round","run":1,"round":1,"live":2,"messages":4}` + "\n")
	tr, err := ReadTrace(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rounds) != 1 || tr.Rounds[0].Messages != 4 {
		t.Fatalf("decoded %+v", tr)
	}
}
