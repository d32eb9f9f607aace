package distcolor

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/arbdefect"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/deltacolor"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/recolor"
)

// recordSink keeps every flushed record.
type recordSink struct {
	mu     sync.Mutex
	rounds []dist.RoundRecord
	runs   []dist.RunRecord
}

func (s *recordSink) FlushRounds(recs []dist.RoundRecord) error {
	s.mu.Lock()
	s.rounds = append(s.rounds, recs...)
	s.mu.Unlock()
	return nil
}

func (s *recordSink) FlushRuns(recs []dist.RunRecord) error {
	s.mu.Lock()
	s.runs = append(s.runs, recs...)
	s.mu.Unlock()
	return nil
}

// TestTallyMatchesEngine is the accounting invariant: for every pipeline,
// the tally it returns equals the engine's own count - the summed run
// records of its runs - and each run's round records sum to its run
// record. A facade builds its own network, so its tally is compared with
// the run records of the same call on a probed network with the same
// identifiers.
func TestTallyMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := graph.ForestUnion(1500, 8, rng)
	tree, parentOf := rootedTree(1500)
	eps := forest.DefaultEps
	type pipeline struct {
		name string
		g    *graph.Graph
		run  func(net *dist.Network) (*dist.Tally, error)
	}
	// facade runs the engine call on the probed network and returns the
	// facade's tally for the same instance.
	facade := func(engine func(*dist.Network) error, res func() (*Result, error)) func(*dist.Network) (*dist.Tally, error) {
		return func(net *dist.Network) (*dist.Tally, error) {
			if err := engine(net); err != nil {
				return nil, err
			}
			r, err := res()
			if err != nil {
				return nil, err
			}
			return dist.TallyFromPhases(r.Phases), nil
		}
	}
	pipelines := []pipeline{
		{"Legal-Coloring", g, func(net *dist.Network) (*dist.Tally, error) {
			res, err := core.LegalColoring(net, core.Config{Arboricity: 8, P: 4})
			if err != nil {
				return nil, err
			}
			return res.Tally, nil
		}},
		{"OneShot", g, func(net *dist.Network) (*dist.Tally, error) {
			res, err := core.OneShot(net, 8, eps)
			if err != nil {
				return nil, err
			}
			return res.Tally, nil
		}},
		{"FastColoring", g, func(net *dist.Network) (*dist.Tally, error) {
			res, err := core.FastColoring(net, 8, 1, eps)
			if err != nil {
				return nil, err
			}
			return res.Tally, nil
		}},
		{"ColorAT", g, func(net *dist.Network) (*dist.Tally, error) {
			res, err := core.ColorAT(net, 8, 2, 2.0/3.0, eps)
			if err != nil {
				return nil, err
			}
			return res.Tally, nil
		}},
		{"MIS", g, func(net *dist.Network) (*dist.Tally, error) {
			_, tally, err := core.MIS(net, core.Config{Arboricity: 8, P: 4})
			return tally, err
		}},
		{"DeltaPlusOne", g, func(net *dist.Network) (*dist.Tally, error) {
			res, err := deltacolor.ColorDeltaPlusOne(net)
			if err != nil {
				return nil, err
			}
			return res.Tally, nil
		}},
		{"Arb-Kuhn", g, func(net *dist.Network) (*dist.Tally, error) {
			res, err := arbdefect.Kuhn(net, 8, 2, eps)
			if err != nil {
				return nil, err
			}
			return res.Tally, nil
		}},
		{"BE08", g, func(net *dist.Network) (*dist.Tally, error) {
			res, err := baseline.BE08Coloring(net, 8, eps)
			if err != nil {
				return nil, err
			}
			return res.Tally, nil
		}},
		{"Decompose", g, func(net *dist.Network) (*dist.Tally, error) {
			fd, err := forest.Decompose(net, 8, eps)
			if err != nil {
				return nil, err
			}
			return fd.Tally, nil
		}},
		{"EstimateArboricity", g, func(net *dist.Network) (*dist.Tally, error) {
			_, _, tally, err := forest.EstimateArboricity(net, eps)
			return tally, err
		}},
		// Linial's schedule is empty at this instance's degree; the tree
		// gives it rounds to count.
		{"Linial", tree, facade(func(net *dist.Network) error {
			_, err := recolor.Linial(net)
			return err
		}, func() (*Result, error) { return Linial(tree, Options{}) })},
		{"Defective", g, facade(func(net *dist.Network) error {
			_, err := recolor.Defective(net, 4)
			return err
		}, func() (*Result, error) { return Defective(g, 4, Options{}) })},
		{"RandomizedColoring", g, facade(func(net *dist.Network) error {
			_, err := baseline.RandomizedColoring(net, 0)
			return err
		}, func() (*Result, error) { return RandomizedColoring(g, Options{}) })},
		{"ColeVishkinForest", tree, facade(func(net *dist.Network) error {
			_, err := baseline.ColeVishkinForest(net, parentOf)
			return err
		}, func() (*Result, error) { return ColeVishkinForest(tree, parentOf, Options{}) })},
	}
	for _, pl := range pipelines {
		sink := &recordSink{}
		p := dist.NewProbe(sink)
		tally, err := pl.run(Options{}.network(pl.g).WithProbe(p))
		if cerr := p.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatalf("%s: %v", pl.name, err)
		}
		perRun := make(map[int64][2]int64)
		for _, r := range sink.rounds {
			c := perRun[r.Run]
			perRun[r.Run] = [2]int64{c[0] + 1, c[1] + r.Messages}
		}
		var rounds, msgs int64
		for _, r := range sink.runs {
			rounds += int64(r.Rounds)
			msgs += r.Messages
			// A run that halts at Init emits no round records (probe.go).
			if got := perRun[r.Run]; r.Rounds > 0 && got != [2]int64{int64(r.Rounds), r.Messages} {
				t.Errorf("%s: run %d (%s) records %d rounds / %d messages, its round records %d / %d",
					pl.name, r.Run, r.Phase, r.Rounds, r.Messages, got[0], got[1])
			}
		}
		if len(sink.runs) == 0 || msgs == 0 {
			t.Errorf("%s: %d runs traced, %d messages", pl.name, len(sink.runs), msgs)
		}
		t.Logf("%s: %d runs, %d rounds, %d messages", pl.name, len(sink.runs), rounds, msgs)
		if int64(tally.Rounds()) != rounds || tally.Messages() != msgs {
			t.Errorf("%s: tally %d rounds / %d messages, engine %d / %d",
				pl.name, tally.Rounds(), tally.Messages(), rounds, msgs)
		}
	}
}
