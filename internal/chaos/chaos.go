// Package chaos is the deterministic fault-injection harness of the
// run-control plane. Every fault is seeded and lands at an exact,
// reproducible point - a chosen round boundary, a chosen (vertex,
// round) step, a chosen probe flush - so a failing chaos case replays
// bit-for-bit from its seed. The package provides the fault sources
// (round-deterministic cancel contexts, panic-injecting programs,
// failing and slow probe sinks, snapshot truncation) and a JSONL
// record channel (CHAOS_JSONL) for archiving what was injected and
// what the engine did about it; the matrix lives in the package tests
// and runs small on every push and in full (CHAOS_FULL=1) nightly
// under the race detector.
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/dist"
)

// RoundCancel returns a context whose Err trips at the k'th round-
// boundary poll. The engine polls ctx.Err() exactly once per round
// boundary, so the returned context cancels a run after exactly k
// completed rounds - no timers, no goroutines, fully deterministic.
// Pipelines poll across all their engine runs, so on a multi-phase
// pipeline (attached via dist.Network.WithContext) the k'th boundary
// may land mid-phase - which is the point.
func RoundCancel(k int) context.Context { return &roundCtx{after: k} }

type roundCtx struct {
	mu    sync.Mutex
	calls int
	after int
}

func (c *roundCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *roundCtx) Done() <-chan struct{}       { return nil }
func (c *roundCtx) Value(any) any               { return nil }
func (c *roundCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// ExpiredDeadline returns a context whose deadline has already passed:
// the engine's first round-boundary poll maps it to dist.ErrDeadline.
func ExpiredDeadline() context.Context {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	_ = cancel // the context is born expired; nothing to release early
	return ctx
}

// Wave is a multi-round gossip program with column-only state
// (the dist.Snapshot contract's qualifying shape): in[0] is the rolling
// digest, in[1] the per-vertex round budget, the output the final
// digest. It is the chaos harness's workload for panic and
// checkpoint/resume faults.
type Wave struct {
	// PanicVertex/PanicRound inject a vertex-program panic at that step
	// for every vertex >= PanicVertex (so the engine's smallest-vertex-
	// wins report is observable at any worker count). PanicRound < 0
	// disables injection.
	PanicVertex int
	PanicRound  int
}

// CleanWave is a Wave with panic injection disabled.
func CleanWave() Wave { return Wave{PanicRound: -1} }

func (Wave) MessageWords() int { return 1 }
func (Wave) InputWidth() int   { return 2 }
func (Wave) OutputWidth() int  { return 1 }

func (w Wave) trip(n *dist.Node) {
	if n.Round() == w.PanicRound && n.Vertex() >= w.PanicVertex {
		panic(fmt.Sprintf("chaos: injected panic at vertex %d round %d", n.Vertex(), n.Round()))
	}
}

func (w Wave) InitWords(n *dist.Node) {
	w.trip(n)
	in := n.InputWords()
	in[0] = in[0]*1000003 + int64(n.ID())
	n.SendAllWord(in[0] % 99991)
}

func (w Wave) StepWords(n *dist.Node, inbox dist.WordInbox) {
	w.trip(n)
	in := n.InputWords()
	acc := in[0]
	for p := 0; p < n.Degree(); p++ {
		if inbox.Has(p) {
			acc = acc*31 + inbox.Word(p) + int64(p)
		}
	}
	in[0] = acc
	if int64(n.Round()) >= in[1]+int64(n.ID()%3) {
		n.SetOutputWord(acc)
		n.Halt()
		return
	}
	n.SendAllWord(acc % 99991)
}

// WaveInputs builds a seeded input column for an n-vertex Wave run:
// deterministic per-vertex digests and round budgets.
func WaveInputs(n int, seed int64) []int64 {
	words := make([]int64, 2*n)
	x := uint64(seed)*2862933555777941757 + 3037000493
	for v := 0; v < n; v++ {
		x = x*2862933555777941757 + 3037000493
		words[2*v] = int64(x % 1000)
		words[2*v+1] = int64(4 + x%3)
	}
	return words
}

// FailingSink is a dist.ProbeSink that accepts the first Accept flush
// calls (rounds and runs pooled) and fails every one after that,
// modelling a trace disk filling up mid-run. It tallies what it saw so
// tests can assert the probe's sticky-error contract: the run itself is
// unaffected, Probe.Close surfaces the first error, the sink keeps
// receiving (and rejecting) later batches, and run records staged after
// the failure carry SinkErr.
type FailingSink struct {
	Accept int

	mu          sync.Mutex
	calls       int
	rounds      int
	runs        int
	sinkErrRuns int
}

// ErrSinkFault is the error injected by FailingSink.
var ErrSinkFault = fmt.Errorf("chaos: injected sink fault")

func (s *FailingSink) fail() error {
	s.calls++
	if s.calls > s.Accept {
		return ErrSinkFault
	}
	return nil
}

func (s *FailingSink) FlushRounds(recs []dist.RoundRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fail(); err != nil {
		return err
	}
	s.rounds += len(recs)
	return nil
}

func (s *FailingSink) FlushRuns(recs []dist.RunRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The probe keeps delivering batches after the first error, so even
	// a failed sink observes the SinkErr marks on records it rejects.
	for _, r := range recs {
		if r.SinkErr {
			s.sinkErrRuns++
		}
	}
	if err := s.fail(); err != nil {
		return err
	}
	s.runs += len(recs)
	return nil
}

// Counts reports the records accepted before the fault and how many
// accepted run records were marked SinkErr.
func (s *FailingSink) Counts() (rounds, runs, sinkErrRuns int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds, s.runs, s.sinkErrRuns
}

// SlowSink delays every flush by Delay before delegating to Inner (nil
// Inner discards), modelling a slow trace disk. The probe's ring must
// absorb the backpressure by stalling producers, never by dropping
// records or deadlocking.
type SlowSink struct {
	Delay time.Duration
	Inner dist.ProbeSink

	mu     sync.Mutex
	rounds int
	runs   int
}

func (s *SlowSink) FlushRounds(recs []dist.RoundRecord) error {
	time.Sleep(s.Delay)
	s.mu.Lock()
	s.rounds += len(recs)
	s.mu.Unlock()
	if s.Inner != nil {
		return s.Inner.FlushRounds(recs)
	}
	return nil
}

func (s *SlowSink) FlushRuns(recs []dist.RunRecord) error {
	time.Sleep(s.Delay)
	s.mu.Lock()
	s.runs += len(recs)
	s.mu.Unlock()
	if s.Inner != nil {
		return s.Inner.FlushRuns(recs)
	}
	return nil
}

// Counts reports the records that reached the slow sink.
func (s *SlowSink) Counts() (rounds, runs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds, s.runs
}

// Record is one injected fault and its observed outcome, archived as a
// JSONL line when CHAOS_JSONL names a file.
type Record struct {
	Case    string `json:"case"`
	Fault   string `json:"fault"`
	Seed    int64  `json:"seed,omitempty"`
	Round   int    `json:"round,omitempty"`
	Vertex  int    `json:"vertex,omitempty"`
	Err     string `json:"err,omitempty"`
	Outcome string `json:"outcome"`
}

var (
	logMu   sync.Mutex
	logFile *os.File
	logInit bool
)

// Log appends rec to the CHAOS_JSONL file (a no-op when the variable
// is unset). Failures to open or write are silently dropped: the
// archive is diagnostics, never a gate.
func Log(rec Record) {
	logMu.Lock()
	defer logMu.Unlock()
	if !logInit {
		logInit = true
		if path := os.Getenv("CHAOS_JSONL"); path != "" {
			logFile, _ = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		}
	}
	if logFile == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	logFile.Write(append(b, '\n'))
}

// Full reports whether the full chaos matrix was requested
// (CHAOS_FULL=1); the default is the small push-CI matrix.
func Full() bool { return os.Getenv("CHAOS_FULL") == "1" }
