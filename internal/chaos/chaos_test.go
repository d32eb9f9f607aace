package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/arbdefect"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/recolor"
)

// The chaos matrix: inject every fault class into the paper's real
// pipelines (E04 Linial, E05 Defective, E14 Arb-Kuhn, the Legal-
// Coloring core) and into the harness's own Wave workload, and assert
// the run-control plane's three guarantees every time:
//
//  1. clean abort - a wrapped sentinel (ErrCanceled / ErrDeadline /
//     ErrVertexPanic), never a crash, hang or corrupted result;
//  2. session safety - the SAME network's next run is bit-for-bit the
//     run a fresh network produces (the shadow equality check);
//  3. resumability - a snapshot captured at the fault point resumes to
//     the uninterrupted run's exact outputs and totals.
//
// The default matrix is small enough for push CI; CHAOS_FULL=1 (the
// nightly job, under -race) widens every axis.

// sig is the deterministic signature of a pipeline run.
type sig struct {
	colors   []int
	rounds   int
	messages int64
}

func (s sig) equal(o sig) bool {
	return s.rounds == o.rounds && s.messages == o.messages && slices.Equal(s.colors, o.colors)
}

type pipelineCase struct {
	name string
	mk   func() *dist.Network
	run  func(net *dist.Network) (sig, error)
}

func matrix(full bool) []pipelineCase {
	n := 400
	ds, ps, ts := []int{4}, []int{2}, []int{2}
	if full {
		n = 1500
		ds, ps, ts = []int{4, 8, 16}, []int{2, 4, 8}, []int{2, 4, 8}
	}
	var cs []pipelineCase
	for _, d := range ds {
		d := d
		cs = append(cs, pipelineCase{
			name: fmt.Sprintf("E04-linial-d%d", d),
			mk: func() *dist.Network {
				rng := rand.New(rand.NewSource(1 + 300 + int64(d)))
				return dist.NewNetworkPermuted(graph.RandomRegularish(n, d, rng), rng)
			},
			run: func(net *dist.Network) (sig, error) {
				res, err := recolor.Linial(net)
				if err != nil {
					return sig{}, err
				}
				return sig{res.Colors, res.Rounds, res.Messages}, nil
			},
		})
	}
	for _, p := range ps {
		p := p
		cs = append(cs, pipelineCase{
			name: fmt.Sprintf("E05-defective-p%d", p),
			mk: func() *dist.Network {
				rng := rand.New(rand.NewSource(1 + 400 + int64(p)))
				return dist.NewNetworkPermuted(graph.RandomRegularish(n, 24, rng), rng)
			},
			run: func(net *dist.Network) (sig, error) {
				res, err := recolor.Defective(net, p)
				if err != nil {
					return sig{}, err
				}
				return sig{res.Colors, res.Rounds, res.Messages}, nil
			},
		})
	}
	for _, t := range ts {
		t := t
		cs = append(cs, pipelineCase{
			name: fmt.Sprintf("E14-arbkuhn-t%d", t),
			mk: func() *dist.Network {
				rng := rand.New(rand.NewSource(1 + 1300 + int64(t)))
				return dist.NewNetworkPermuted(graph.ForestUnion(n, 16, rng), rng)
			},
			run: func(net *dist.Network) (sig, error) {
				res, err := arbdefect.Kuhn(net, 16, t, forest.DefaultEps)
				if err != nil {
					return sig{}, err
				}
				return sig{res.Colors, res.Tally.Rounds(), res.Tally.Messages()}, nil
			},
		})
	}
	cs = append(cs, pipelineCase{
		name: "CORE-legalcoloring",
		mk: func() *dist.Network {
			rng := rand.New(rand.NewSource(1 + 7))
			return dist.NewNetworkPermuted(graph.ForestUnion(n, 8, rng), rng)
		},
		run: func(net *dist.Network) (sig, error) {
			res, err := core.LegalColoring(net, core.Config{Arboricity: 8, P: 4})
			if err != nil {
				return sig{}, err
			}
			return sig{res.Colors, res.Tally.Rounds(), res.Tally.Messages()}, nil
		},
	})
	return cs
}

// TestChaosCancelMatrix injects round-boundary cancels (landing inside
// whatever phase the k'th cumulative boundary falls in) and an expired
// deadline into every pipeline of the matrix.
func TestChaosCancelMatrix(t *testing.T) {
	full := Full()
	cancels := []int{0, 3, 11}
	if full {
		cancels = []int{0, 1, 2, 3, 5, 8, 13, 21, 34}
	}
	for _, c := range matrix(full) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref, err := c.run(c.mk())
			if err != nil {
				t.Fatal(err)
			}
			type fault struct {
				name string
				ctx  context.Context
				want error
			}
			faults := []fault{{"deadline-expired", ExpiredDeadline(), dist.ErrDeadline}}
			for _, k := range cancels {
				faults = append(faults, fault{fmt.Sprintf("cancel-round-%d", k), RoundCancel(k), dist.ErrCanceled})
			}
			for _, f := range faults {
				net := c.mk()
				_, err := c.run(net.WithContext(f.ctx))
				outcome := "clean-abort"
				if !errors.Is(err, f.want) {
					// A cancel landing past the pipeline's total boundary
					// count lets it complete; anything else is a failure.
					if f.want == dist.ErrCanceled && err == nil {
						outcome = "completed"
					} else {
						t.Fatalf("%s: err=%v, want %v", f.name, err, f.want)
					}
				}
				Log(Record{Case: c.name, Fault: f.name, Err: fmt.Sprint(err), Outcome: outcome})
				// Shadow equality: the faulted session reruns bit-for-bit.
				after, err := c.run(net)
				if err != nil {
					t.Fatalf("%s: rerun after fault: %v", f.name, err)
				}
				if !after.equal(ref) {
					t.Fatalf("%s: shadow run diverges after fault (rounds/messages %d/%d, want %d/%d)",
						f.name, after.rounds, after.messages, ref.rounds, ref.messages)
				}
			}
		})
	}
}

// waveNet builds the Wave workload's network; ids are pinned so fresh
// networks are bit-for-bit comparable.
func waveNet(t *testing.T, n int) func() *dist.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	g := graph.ForestUnion(n, 4, rng)
	ids := dist.NewNetworkPermuted(g, rand.New(rand.NewSource(42))).IDs()
	return func() *dist.Network {
		net, err := dist.NewNetworkWithIDs(g, ids)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
}

// TestChaosPanicMatrix injects seeded (vertex, round) panics into the
// Wave workload at several worker counts and under sharding: clean
// abort with ErrVertexPanic naming the smallest injected vertex, then
// shadow equality on the same session.
func TestChaosPanicMatrix(t *testing.T) {
	full := Full()
	n := 600
	seeds := []int64{1, 2}
	if full {
		n = 2000
		seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	mk := waveNet(t, n)
	ref, err := mk().Run(CleanWave(), dist.RunOptions{InputWords: WaveInputs(n, 7)})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		vertex := rng.Intn(n)
		round := rng.Intn(4)
		for _, workers := range []int{1, 4, 0} {
			for _, shards := range []int{1, 3} {
				net := mk()
				if workers > 0 {
					net = net.WithWorkers(workers)
				}
				if shards > 1 {
					sh, err := graph.NewSharding(n, shards)
					if err != nil {
						t.Fatal(err)
					}
					if net, err = net.Sharded(sh); err != nil {
						t.Fatal(err)
					}
				}
				w := Wave{PanicVertex: vertex, PanicRound: round}
				_, err := net.Run(w, dist.RunOptions{InputWords: WaveInputs(n, 7)})
				label := fmt.Sprintf("seed=%d vertex=%d round=%d workers=%d shards=%d", seed, vertex, round, workers, shards)
				if !errors.Is(err, dist.ErrVertexPanic) {
					t.Fatalf("%s: err=%v, want ErrVertexPanic", label, err)
				}
				want := fmt.Sprintf("vertex %d", vertex)
				if !errors.Is(err, dist.ErrVertexPanic) || !bytes.Contains([]byte(err.Error()), []byte(want)) {
					t.Fatalf("%s: error %q does not name the smallest panicking vertex", label, err)
				}
				Log(Record{Case: "wave", Fault: "panic", Seed: seed, Vertex: vertex, Round: round, Err: err.Error(), Outcome: "clean-abort"})
				after, err := net.Run(CleanWave(), dist.RunOptions{InputWords: WaveInputs(n, 7)})
				if err != nil {
					t.Fatalf("%s: rerun after panic: %v", label, err)
				}
				if after.Rounds != ref.Rounds || after.Messages != ref.Messages ||
					!slices.Equal(after.OutputWords, ref.OutputWords) {
					t.Fatalf("%s: shadow run diverges after panic", label)
				}
			}
		}
	}
}

// TestChaosSnapshotResume cancels the Wave workload at seeded round
// boundaries with SnapshotOnAbort, injects the truncated-snapshot fault
// against the serialized blob, then resumes the intact blob on a fresh
// network and requires the uninterrupted run's exact outputs and
// totals - including across a shard-count change and under a probe.
func TestChaosSnapshotResume(t *testing.T) {
	full := Full()
	n := 600
	cancels := []int{0, 2, 5}
	if full {
		n = 2000
		cancels = []int{0, 1, 2, 3, 4, 5, 6, 7}
	}
	mk := waveNet(t, n)
	ref, err := mk().Run(CleanWave(), dist.RunOptions{InputWords: WaveInputs(n, 7)})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range cancels {
		if k >= ref.Rounds {
			continue
		}
		for _, shards := range []int{1, 3} {
			label := fmt.Sprintf("cancel@%d shards=%d", k, shards)
			net := mk()
			res, err := net.Run(CleanWave(), dist.RunOptions{
				InputWords: WaveInputs(n, 7), Context: RoundCancel(k), SnapshotOnAbort: true,
			})
			if !errors.Is(err, dist.ErrCanceled) || res == nil || res.Snapshot == nil {
				t.Fatalf("%s: capture failed: %v", label, err)
			}
			var blob bytes.Buffer
			if _, err := res.Snapshot.WriteTo(&blob); err != nil {
				t.Fatal(err)
			}
			raw := blob.Bytes()
			// The truncated-snapshot fault: a blob missing its tail must be
			// rejected outright, never resumed partially.
			if _, err := dist.ReadSnapshot(bytes.NewReader(raw[:len(raw)-1])); err == nil {
				t.Fatalf("%s: truncated snapshot accepted", label)
			}
			Log(Record{Case: "wave", Fault: "snapshot-truncated", Round: k, Outcome: "rejected"})
			sn, err := dist.ReadSnapshot(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("%s: reparse: %v", label, err)
			}
			target := mk()
			if shards > 1 {
				sh, err := graph.NewSharding(n, shards)
				if err != nil {
					t.Fatal(err)
				}
				if target, err = target.Sharded(sh); err != nil {
					t.Fatal(err)
				}
			}
			resumed, err := target.Resume(CleanWave(), dist.RunOptions{InputWords: WaveInputs(n, 7)}, sn)
			if err != nil {
				t.Fatalf("%s: resume: %v", label, err)
			}
			if resumed.Rounds != ref.Rounds || resumed.Messages != ref.Messages ||
				!slices.Equal(resumed.OutputWords, ref.OutputWords) {
				t.Fatalf("%s: resumed run diverges (rounds/messages %d/%d, want %d/%d)",
					label, resumed.Rounds, resumed.Messages, ref.Rounds, ref.Messages)
			}
			Log(Record{Case: "wave", Fault: "kill-resume", Round: k, Outcome: "exact"})
		}
	}
}

// TestChaosProbedResume pins the probed twin's resume accounting: with
// a probe attached, a resumed run's round records carry message deltas
// relative to the restored counters, and the per-round deltas of the
// pre-kill and post-resume runs tile the uninterrupted totals exactly.
func TestChaosProbedResume(t *testing.T) {
	n := 500
	mk := waveNet(t, n)
	ref, err := mk().Run(CleanWave(), dist.RunOptions{InputWords: WaveInputs(n, 7)})
	if err != nil {
		t.Fatal(err)
	}
	k := 2
	net := mk()
	res, err := net.Run(CleanWave(), dist.RunOptions{
		InputWords: WaveInputs(n, 7), Context: RoundCancel(k), SnapshotOnAbort: true,
	})
	if !errors.Is(err, dist.ErrCanceled) || res.Snapshot == nil {
		t.Fatalf("capture failed: %v", err)
	}
	sink := &FailingSink{Accept: 1 << 30} // never fails; pure counter
	p := dist.NewProbe(sink)
	resumed, err := mk().WithProbe(p).Resume(CleanWave(), dist.RunOptions{InputWords: WaveInputs(n, 7)}, res.Snapshot)
	if err != nil {
		t.Fatalf("probed resume: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed.Rounds != ref.Rounds || resumed.Messages != ref.Messages {
		t.Fatalf("probed resume diverges: rounds/messages %d/%d, want %d/%d",
			resumed.Rounds, resumed.Messages, ref.Rounds, ref.Messages)
	}
	rounds, runs, _ := sink.Counts()
	if runs != 1 {
		t.Fatalf("%d run records, want 1", runs)
	}
	if rounds != ref.Rounds-k {
		t.Fatalf("%d round records for a resume of rounds %d..%d", rounds, k+1, ref.Rounds)
	}
}

// TestChaosFailingSink injects a sink fault mid-trace: the run itself
// must finish untouched, Probe.Close must surface the injected error,
// and run records staged after the fault must carry SinkErr.
func TestChaosFailingSink(t *testing.T) {
	n := 500
	mk := waveNet(t, n)
	ref, err := mk().Run(CleanWave(), dist.RunOptions{InputWords: WaveInputs(n, 7)})
	if err != nil {
		t.Fatal(err)
	}
	sink := &FailingSink{Accept: 1} // first flush lands, everything after faults
	p := dist.NewProbe(sink)
	net := mk().WithProbe(p)
	var last *dist.Result
	for i := 0; i < 3; i++ {
		last, err = net.Run(CleanWave(), dist.RunOptions{InputWords: WaveInputs(n, 7)})
		if err != nil {
			t.Fatalf("run %d under failing sink: %v", i, err)
		}
		if i == 0 {
			// SinkErr marking is by staging order, so make the fault
			// land before the next run is staged: wait for the flusher
			// to deliver run 0's record and hit the injected fault.
			for deadline := time.Now().Add(5 * time.Second); p.SinkErr() == nil; {
				if time.Now().After(deadline) {
					t.Fatal("probe never noted the injected sink fault")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if last.Rounds != ref.Rounds || last.Messages != ref.Messages ||
		!slices.Equal(last.OutputWords, ref.OutputWords) {
		t.Fatal("failing sink perturbed the run")
	}
	if err := p.Close(); !errors.Is(err, ErrSinkFault) {
		t.Fatalf("Close: err=%v, want the injected sink fault", err)
	}
	if err := p.Close(); !errors.Is(err, ErrSinkFault) {
		t.Fatalf("idempotent Close lost the sink fault: %v", err)
	}
	_, _, marked := sink.Counts()
	if marked == 0 {
		t.Fatal("no run record carried SinkErr after the fault")
	}
	Log(Record{Case: "wave", Fault: "sink-fail", Outcome: "surfaced"})
}

// TestChaosSlowSink injects sink latency larger than the round time:
// the probe's bounded ring must stall producers rather than drop
// records or deadlock, and every record must arrive.
func TestChaosSlowSink(t *testing.T) {
	n := 400
	mk := waveNet(t, n)
	sink := &SlowSink{Delay: 2_000_000} // 2ms per flush
	p := dist.NewProbe(sink)
	res, err := mk().WithProbe(p).Run(CleanWave(), dist.RunOptions{InputWords: WaveInputs(n, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rounds, runs := sink.Counts()
	if rounds != res.Rounds || runs != 1 {
		t.Fatalf("slow sink received %d/%d records, want %d/1", rounds, runs, res.Rounds)
	}
	Log(Record{Case: "wave", Fault: "sink-slow", Outcome: "backpressure-absorbed"})
}
