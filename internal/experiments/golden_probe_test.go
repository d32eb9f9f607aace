package experiments

import (
	"sync"
	"testing"

	"repro/internal/arbdefect"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/recolor"
)

// The probed golden suite re-runs the E04/E05/E14 goldens with a
// dist.Probe attached: tracing must be purely observational, so the
// colors (hashed), rounds and message counts must still match the seed
// captures bit for bit, and the per-round message deltas must sum to
// exactly the run totals.

// countSink tallies flushed records without retaining them.
type countSink struct {
	mu       sync.Mutex
	rounds   int
	runs     int
	messages int64
}

func (s *countSink) FlushRounds(recs []dist.RoundRecord) error {
	s.mu.Lock()
	s.rounds += len(recs)
	for _, r := range recs {
		s.messages += r.Messages
	}
	s.mu.Unlock()
	return nil
}

func (s *countSink) FlushRuns(recs []dist.RunRecord) error {
	s.mu.Lock()
	s.runs += len(recs)
	s.mu.Unlock()
	return nil
}

func TestGoldenE04LinialProbed(t *testing.T) {
	s := Sizes{N: 1000, Seed: 1}
	for _, want := range goldenE04 {
		rng := s.rng(300 + int64(want.param))
		g := graph.RandomRegularish(s.N, want.param, rng)
		sink := &countSink{}
		p := dist.NewProbe(sink)
		net := dist.NewNetworkPermuted(g, rng).WithProbe(p)
		res, err := recolor.Linial(net)
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		checkGolden(t, "E04+probe", want, res.Colors, res.Rounds, res.Messages)
		if sink.rounds != want.rounds {
			t.Errorf("E04 param=%d: %d round records, want %d", want.param, sink.rounds, want.rounds)
		}
		// Rounds==0 runs emit no round records; their Init messages appear
		// only in the run record (the documented contract).
		if want.rounds > 0 && sink.messages != want.messages {
			t.Errorf("E04 param=%d: traced messages %d, want %d", want.param, sink.messages, want.messages)
		}
	}
}

func TestGoldenE05DefectiveProbed(t *testing.T) {
	s := Sizes{N: 1000, Seed: 1}
	for _, want := range goldenE05 {
		rng := s.rng(400 + int64(want.param))
		g := graph.RandomRegularish(s.N, 24, rng)
		sink := &countSink{}
		p := dist.NewProbe(sink)
		net := dist.NewNetworkPermuted(g, rng).WithProbe(p)
		res, err := recolor.Defective(net, want.param)
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		checkGolden(t, "E05+probe", want, res.Colors, res.Rounds, res.Messages)
		if sink.rounds != want.rounds || sink.messages != want.messages {
			t.Errorf("E05 param=%d: traced %d rounds / %d messages, want %d / %d",
				want.param, sink.rounds, sink.messages, want.rounds, want.messages)
		}
	}
}

func TestGoldenE14ArbKuhnProbed(t *testing.T) {
	s := Sizes{N: 1000, Seed: 1}
	for _, want := range goldenE14 {
		_, net := s.forestNet(16, 1300+int64(want.param))
		sink := &countSink{}
		p := dist.NewProbe(sink)
		res, err := arbdefect.Kuhn(net.WithProbe(p), 16, want.param, forest.DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		checkGolden(t, "E14+probe", want, res.Colors, res.Tally.Rounds(), res.Tally.Messages())
		if sink.runs == 0 {
			t.Errorf("E14 param=%d: pipeline emitted no run records", want.param)
		}
		// The trace covers every engine run of the pipeline, and the tally
		// charges every one of them, so traced == tallied.
		if sink.messages != want.messages {
			t.Errorf("E14 param=%d: traced messages %d, tallied %d", want.param, sink.messages, want.messages)
		}
	}
}
