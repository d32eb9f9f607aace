package dist

import (
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
)

// memSink collects flushed records; the mutex makes it safe against the
// probe's flusher goroutine.
type memSink struct {
	mu     sync.Mutex
	rounds []RoundRecord
	runs   []RunRecord
}

func (s *memSink) FlushRounds(recs []RoundRecord) error {
	s.mu.Lock()
	s.rounds = append(s.rounds, recs...) // must copy: the slice is reused
	s.mu.Unlock()
	return nil
}

func (s *memSink) FlushRuns(recs []RunRecord) error {
	s.mu.Lock()
	s.runs = append(s.runs, recs...)
	s.mu.Unlock()
	return nil
}

func probedGossip(t *testing.T, workers int) (*Result, *memSink) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	g := graph.ForestUnion(600, 4, rng)
	net := NewNetworkPermuted(g, rng)
	sink := &memSink{}
	p := NewProbe(sink)
	res, err := net.WithProbe(p).WithWorkers(workers).Run(gossip{rounds: 8}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	return res, sink
}

// TestProbeRoundAccounting pins the trace-record contract: one record
// per Step round, message deltas summing exactly to Result.Messages
// (Init's sends folded into record 1), live counts decreasing to the
// halting pattern, and a matching run record.
func TestProbeRoundAccounting(t *testing.T) {
	res, sink := probedGossip(t, 0)
	if len(sink.rounds) != res.Rounds {
		t.Fatalf("%d round records for %d rounds", len(sink.rounds), res.Rounds)
	}
	var sum int64
	for i, r := range sink.rounds {
		if r.Round != i+1 {
			t.Fatalf("record %d has round %d, want %d", i, r.Round, i+1)
		}
		sum += r.Messages
		if r.Live <= 0 || r.Live > res.PeakLive {
			t.Fatalf("round %d live=%d outside (0, %d]", r.Round, r.Live, res.PeakLive)
		}
	}
	if sum != res.Messages {
		t.Fatalf("round messages sum to %d, Result.Messages = %d", sum, res.Messages)
	}
	if len(sink.runs) != 1 {
		t.Fatalf("%d run records, want 1", len(sink.runs))
	}
	run := sink.runs[0]
	if run.Rounds != res.Rounds || run.Messages != res.Messages || run.PeakLive != res.PeakLive {
		t.Fatalf("run record %+v disagrees with result rounds=%d messages=%d peak=%d",
			run, res.Rounds, res.Messages, res.PeakLive)
	}
	if run.Err != "" {
		t.Fatalf("successful run recorded error %q", run.Err)
	}
}

// TestProbeOnMatchesProbeOff pins the zero-interference property: a
// probed run produces the identical Result.
func TestProbeOnMatchesProbeOff(t *testing.T) {
	plain := runGossip(t, 42, 0)
	probed, _ := probedGossip(t, 0)
	probed.Wall = 0 // host wall time, not deterministic
	if !reflect.DeepEqual(plain, probed) {
		t.Fatal("attaching a probe changed the run result")
	}
}

// TestProbeDeterministicAcrossWorkers pins that every record field
// except the wall-clock and fan-out ones is identical across worker
// counts.
func TestProbeDeterministicAcrossWorkers(t *testing.T) {
	scrub := func(rounds []RoundRecord, runs []RunRecord) {
		for i := range rounds {
			rounds[i].WallNS, rounds[i].MaxChunkNS, rounds[i].MeanChunkNS = 0, 0, 0
			rounds[i].Workers = 0
		}
		for i := range runs {
			runs[i].SetupNS, runs[i].ComputeNS = 0, 0
			runs[i].Workers = 0
		}
	}
	_, seq := probedGossip(t, 1)
	scrub(seq.rounds, seq.runs)
	for _, w := range []int{4, 0} {
		_, par := probedGossip(t, w)
		scrub(par.rounds, par.runs)
		if !reflect.DeepEqual(seq.rounds, par.rounds) {
			t.Fatalf("round records diverge between workers=1 and workers=%d", w)
		}
		if !reflect.DeepEqual(seq.runs, par.runs) {
			t.Fatalf("run records diverge between workers=1 and workers=%d", w)
		}
	}
}

// TestProbeSessionEvents pins the run-level session telemetry: a second
// run on the same network view hits the topology cache and reuses the
// pooled scratch; run sequence numbers grow.
func TestProbeSessionEvents(t *testing.T) {
	net := NewNetworkPermuted(graph.Grid(8, 8), rand.New(rand.NewSource(5)))
	sink := &memSink{}
	p := NewProbe(sink)
	probed := net.WithProbe(p)
	for i := 0; i < 2; i++ {
		if _, err := probed.Run(gossip{rounds: 3}, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if len(sink.runs) != 2 {
		t.Fatalf("%d run records, want 2", len(sink.runs))
	}
	first, second := sink.runs[0], sink.runs[1]
	if first.Run >= second.Run {
		t.Fatalf("run sequence not increasing: %d then %d", first.Run, second.Run)
	}
	if first.TopoCached {
		t.Error("first run reported a topology cache hit")
	}
	if !second.TopoCached {
		t.Error("second run missed the topology cache")
	}
	if !second.ScratchPooled {
		t.Error("second run did not reuse the pooled scratch")
	}
}

// TestProbeMultiChunkFlush pushes more rounds through the probe than one
// ring chunk holds, checking nothing is lost or reordered.
func TestProbeMultiChunkFlush(t *testing.T) {
	sink := &memSink{}
	p := NewProbe(sink)
	net := NewNetwork(graph.Path(2)).WithProbe(p)
	const runs = 3
	for i := 0; i < runs; i++ {
		// A long path-free run: gossip on K2 for many rounds.
		if _, err := net.Run(gossip{rounds: probeChunk + 7}, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	want := runs * (probeChunk + 7)
	if len(sink.rounds) != want {
		t.Fatalf("%d round records, want %d", len(sink.rounds), want)
	}
	for i := 1; i < len(sink.rounds); i++ {
		a, b := sink.rounds[i-1], sink.rounds[i]
		if a.Run == b.Run && b.Round != a.Round+1 {
			t.Fatalf("records reordered within run %d: round %d then %d", a.Run, a.Round, b.Round)
		}
		if a.Run != b.Run && b.Round != 1 {
			t.Fatalf("run %d does not start at round 1", b.Run)
		}
	}
	if len(sink.runs) != runs {
		t.Fatalf("%d run records, want %d", len(sink.runs), runs)
	}
}

// TestProbeRecordsFailedRun pins the error path: an over-budget run
// emits a run record carrying the error and its staged round records.
func TestProbeRecordsFailedRun(t *testing.T) {
	sink := &memSink{}
	p := NewProbe(sink)
	net := NewNetwork(graph.Path(9)).WithProbe(p)
	_, err := net.Run(chainColor{}, RunOptions{InputWords: pathInputs(9), MaxRounds: 4})
	if err == nil {
		t.Fatal("over-budget run succeeded")
	}
	p.Close()
	if len(sink.runs) != 1 {
		t.Fatalf("%d run records, want 1", len(sink.runs))
	}
	if sink.runs[0].Err == "" {
		t.Fatal("failed run recorded no error")
	}
	if len(sink.rounds) != 4 {
		t.Fatalf("%d round records before the abort, want 4", len(sink.rounds))
	}
}

// initSender sends on every port and halts in InitWords.
type initSender struct{ idler }

func (initSender) InitWords(n *Node) { n.SendAllWord(0); n.Halt() }

// TestProbeInitOnlyRunEmitsNoRounds pins the documented Rounds==0 case:
// no round records, Init messages visible only in the run record.
func TestProbeInitOnlyRunEmitsNoRounds(t *testing.T) {
	sink := &memSink{}
	p := NewProbe(sink)
	net := NewNetwork(graph.Star(5)).WithProbe(p)
	res, err := net.Run(initSender{}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if res.Rounds != 0 {
		t.Fatalf("rounds = %d, want 0", res.Rounds)
	}
	if len(sink.rounds) != 0 {
		t.Fatalf("%d round records for a 0-round run", len(sink.rounds))
	}
	if len(sink.runs) != 1 || sink.runs[0].Messages != res.Messages {
		t.Fatalf("run record %+v, want 1 record with %d messages", sink.runs, res.Messages)
	}
}

// TestProbeTotals pins the live aggregate counters scraped by -serve.
func TestProbeTotals(t *testing.T) {
	res, _ := probedGossip(t, 0)
	sink := &memSink{}
	p := NewProbe(sink)
	rng := rand.New(rand.NewSource(42))
	g := graph.ForestUnion(600, 4, rng)
	net := NewNetworkPermuted(g, rng).WithProbe(p)
	if _, err := net.Run(gossip{rounds: 8}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	tot := p.Totals()
	p.Close()
	if tot.Runs != 1 || tot.Rounds != int64(res.Rounds) || tot.Messages != res.Messages {
		t.Fatalf("totals %+v, want runs=1 rounds=%d messages=%d", tot, res.Rounds, res.Messages)
	}
}

// BenchmarkRunProbeOff / BenchmarkRunProbeOn quantify the probe's cost:
// the disabled path must stay within noise of the seed run loop (the CI
// microbenchmark gate), the enabled path shows the tracing overhead.
func benchGossipNet(b *testing.B) *Network {
	rng := rand.New(rand.NewSource(9))
	g := graph.ForestUnion(2000, 4, rng)
	return NewNetworkPermuted(g, rng)
}

func BenchmarkRunProbeOff(b *testing.B) {
	net := benchGossipNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Run(gossip{rounds: 6}, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

type nullSink struct{}

func (nullSink) FlushRounds([]RoundRecord) error { return nil }
func (nullSink) FlushRuns([]RunRecord) error     { return nil }

func BenchmarkRunProbeOn(b *testing.B) {
	net := benchGossipNet(b)
	p := NewProbe(nullSink{})
	defer p.Close()
	probed := net.WithProbe(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probed.Run(gossip{rounds: 6}, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProbeDisabledOverheadGate is the CI gate on the cost of the probe
// plumbing for unprobed runs. Probed and unprobed runs share one round
// loop (simulation.run); without a probe its tracer hooks cost one nil
// check each per round and none per vertex, so the one exact,
// machine-independent assertion is on allocations: a steady-state run
// must allocate identically with and without a probe attached (the
// tracer and the probe's ring are pooled, and records are flushed off
// the round loop). Wall clock is measured on interleaved samples and
// the unprobed median must not exceed the probed one - a probed run
// does strictly more work per round, so on any sane machine the nil
// checks cost well under the probed delta. Opt-in via
// PROBE_OVERHEAD_GATE=1: wall medians on shared runners are too noisy
// for an always-on test.
func TestProbeDisabledOverheadGate(t *testing.T) {
	if os.Getenv("PROBE_OVERHEAD_GATE") == "" {
		t.Skip("set PROBE_OVERHEAD_GATE=1 to run the overhead gate")
	}
	rng := rand.New(rand.NewSource(9))
	g := graph.ForestUnion(2000, 4, rng)
	net := NewNetworkPermuted(g, rng)
	p := NewProbe(nullSink{})
	defer p.Close()
	probed := net.WithProbe(p)

	run := func(n *Network) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := n.Run(gossip{rounds: 6}, RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// Warm the session caches so both sides measure the pooled steady
	// state, then interleave samples so drift hits both sides equally.
	testing.Benchmark(run(net))
	testing.Benchmark(run(probed))
	const samples = 5
	off := make([]float64, 0, samples)
	on := make([]float64, 0, samples)
	var offAllocs, onAllocs int64
	for i := 0; i < samples; i++ {
		ro := testing.Benchmark(run(net))
		rp := testing.Benchmark(run(probed))
		off = append(off, float64(ro.NsPerOp()))
		on = append(on, float64(rp.NsPerOp()))
		offAllocs, onAllocs = ro.AllocsPerOp(), rp.AllocsPerOp()
	}
	sort.Float64s(off)
	sort.Float64s(on)
	offMed, onMed := off[samples/2], on[samples/2]
	t.Logf("disabled %.0f ns/op (%d allocs), probed %.0f ns/op (%d allocs), enabled overhead %+.2f%%",
		offMed, offAllocs, onMed, onAllocs, 100*(onMed-offMed)/offMed)
	if offAllocs != onAllocs {
		t.Errorf("probe changed steady-state allocations: %d without vs %d with", offAllocs, onAllocs)
	}
	if offMed > onMed*1.01 {
		t.Errorf("disabled path (%.0f ns/op) slower than the probed run (%.0f ns/op)", offMed, onMed)
	}
}
