package dist

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file implements the engine's observability hook: an optional Probe
// a Network view carries into its Runs. When attached, the run loop
// (simulation.run) drives a round tracer that emits one fixed-width
// RoundRecord per communication round and one RunRecord per Run,
// buffered in a preallocated ring and flushed to a ProbeSink off the
// round loop. Probed and unprobed runs share that one loop; without a
// probe each tracer hook costs one nil check per round and nothing per
// vertex - a benchmark pins the disabled-path overhead at ~0.
//
// Determinism. Everything in a record except the wall-clock and fan-out
// fields (WallNS, MaxChunkNS, MeanChunkNS, SetupNS, ComputeNS, Workers)
// is derived from the simulation state and is therefore bit-for-bit
// identical across worker counts and repeated runs; a test pins that.

// RoundRecord is the fixed-width per-round trace record. One record is
// emitted per Step round r = 1..Result.Rounds; the messages Init sends
// (round 0) are folded into the first record, so the Messages fields of a
// run's records sum exactly to Result.Messages. A run whose every node
// halts during Init (Result.Rounds == 0) emits no round records; its
// Init messages appear only in the RunRecord.
type RoundRecord struct {
	// Run is the probe-scoped sequence number tying the record to its
	// RunRecord.
	Run int64 `json:"run"`
	// Round is the Step round index, starting at 1.
	Round int `json:"round"`
	// Live is the number of live nodes stepping this round.
	Live int `json:"live"`
	// Messages is the number of messages sent this round (round 1
	// includes Init's sends; see above).
	Messages int64 `json:"messages"`
	// Workers is the fan-out the step sweep used this round.
	Workers int `json:"workers"`
	// WallNS is the wall time of the full round (step + delivery
	// housekeeping + halt collection).
	WallNS int64 `json:"wall_ns"`
	// MaxChunkNS / MeanChunkNS measure per-chunk imbalance of the step
	// sweep: with a single worker both equal the step time. On sharded
	// runs the chunks ARE the shard segments (see Shards).
	MaxChunkNS  int64 `json:"max_chunk_ns"`
	MeanChunkNS int64 `json:"mean_chunk_ns"`
	// Shards holds the per-shard slice of a sharded run's round - live
	// nodes, messages sent, and step wall per shard, summing (wall
	// aside) to the record's own fields. Nil on flat runs.
	Shards []ShardRoundStat `json:"shards,omitempty"`
}

// ShardRoundStat is one shard's slice of a sharded round: how many of
// the round's live nodes it held, how many messages they sent, and the
// wall time of its step segment. Live and Messages are deterministic;
// WallNS is not (it is a measurement, like the record's WallNS).
type ShardRoundStat struct {
	Live     int   `json:"live"`
	Messages int64 `json:"messages"`
	WallNS   int64 `json:"wall_ns"`
}

// RunRecord is the per-Run trace record: aggregates plus the run-level
// session events (topology cache hit, pooled-scratch reuse, setup vs.
// compute wall).
type RunRecord struct {
	// Run is the probe-scoped sequence number shared with the run's
	// RoundRecords.
	Run int64 `json:"run"`
	// Phase is the orchestrator-declared label current at the start of
	// the run (see Probe.SetPhase); empty when none was set.
	Phase string `json:"phase,omitempty"`
	// Rounds / Messages / PeakLive mirror Result.
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
	PeakLive int   `json:"peak_live"`
	// Workers is the resolved pool size of the run.
	Workers int `json:"workers"`
	// TopoCached reports a session topology-cache hit; ScratchPooled
	// reports reuse of the pooled per-run scratch bundle.
	TopoCached    bool `json:"topo_cached"`
	ScratchPooled bool `json:"scratch_pooled"`
	// Shards is the shard count of the run's engine view (0 on flat
	// runs, where no per-shard telemetry is emitted).
	Shards int `json:"shards,omitempty"`
	// SetupNS is the wall time of simulation assembly (topology resolve +
	// column borrow); ComputeNS is the wall time of the round loop and
	// result collection.
	SetupNS   int64 `json:"setup_ns"`
	ComputeNS int64 `json:"compute_ns"`
	// Err is the run's error text when it aborted (budget, Node.Fail,
	// cancellation); empty on success.
	Err string `json:"err,omitempty"`
	// SinkErr marks a record staged after the probe's sink had already
	// failed: earlier records of the trace may be missing from the
	// sink's backing store (the flusher keeps delivering every batch,
	// so a sink that recovers resumes with marked records; one that
	// stays down costs a cheap rejected call per chunk). The first sink
	// error itself is returned by Probe.Close.
	SinkErr bool `json:"sink_err,omitempty"`
}

// RunStats is the compact cost summary of one engine run, carried by
// orchestrator results so every pipeline phase can be attributed wall
// time and peak live-set size alongside the LOCAL measures.
type RunStats struct {
	Rounds   int
	Messages int64
	Wall     time.Duration
	PeakLive int
}

// Stats summarizes the run as a RunStats.
func (r *Result) Stats() RunStats {
	return RunStats{Rounds: r.Rounds, Messages: r.Messages, Wall: r.Wall, PeakLive: r.PeakLive}
}

// ProbeSink receives flushed trace records. Flushes happen on a single
// background goroutine per Probe, so a sink needs no locking against the
// probe itself (only against its own other readers). The record slices
// are reused after the call returns: a sink must consume or copy them
// before returning.
//
// Sink errors are first-error-sticky: the probe records the first
// non-nil return, marks subsequently staged RunRecords with SinkErr,
// and surfaces the error from Probe.Close. The sink keeps receiving
// every later batch (a recovered sink resumes with marked records; a
// dead one just rejects cheaply), and the ring keeps draining either
// way, so runs never block on a failed sink.
type ProbeSink interface {
	FlushRounds([]RoundRecord) error
	FlushRuns([]RunRecord) error
}

// probeChunk is the RoundRecord capacity of one ring chunk; probeChunks
// is the number of chunks in flight (one being written, the rest queued
// or free). A chunk flushes when full and at run end.
const (
	probeChunk  = 256
	probeChunks = 4
)

// probeBatch is one unit of work for the flusher: a filled round-record
// chunk, a run record, or both (run end flushes the partial chunk first).
type probeBatch struct {
	rounds []RoundRecord
	run    RunRecord
	hasRun bool
}

// ProbeTotals are the monotonically growing aggregates a live Probe
// exposes (e.g. through expvar on a -serve endpoint).
type ProbeTotals struct {
	Runs     int64 `json:"runs"`
	Rounds   int64 `json:"rounds"`
	Messages int64 `json:"messages"`
}

// Probe collects round- and run-level trace records from every Run of
// the Network views it is attached to (Network.WithProbe). Records are
// staged in a preallocated ring of chunks and handed to the sink on a
// background goroutine, so the round loop never blocks on I/O unless the
// sink falls more than the whole ring behind. Close flushes the
// remainder and stops the goroutine; the probe must not be used after.
//
// A Probe may be shared by overlapping runs (its staging is mutexed),
// but record interleaving across concurrent runs is then arbitrary;
// the Run sequence number ties each record to its run.
type Probe struct {
	mu     sync.Mutex
	phase  string
	seq    int64
	cur    []RoundRecord
	free   chan []RoundRecord
	full   chan probeBatch
	done   chan struct{}
	closed bool
	totals ProbeTotals
	// errMu guards sinkErr alone and is never held across a channel
	// operation: the staging path (which can block on the free ring
	// while holding mu) and the flusher both touch it only briefly, so
	// the sticky-error bookkeeping cannot deadlock the ring.
	errMu   sync.Mutex
	sinkErr error
}

// noteSinkErr records the first sink error; later ones are dropped.
func (p *Probe) noteSinkErr(err error) {
	p.errMu.Lock()
	if p.sinkErr == nil {
		p.sinkErr = err
	}
	p.errMu.Unlock()
}

// SinkErr returns the first error the sink reported, or nil. It is
// inherently racy against in-flight flushes (a flush may fail right
// after it returns nil); Close is the authoritative read.
func (p *Probe) SinkErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.sinkErr
}

// NewProbe returns a Probe flushing into sink. The caller owns the probe
// and must Close it to flush trailing records and release the flusher
// goroutine; see the ownership notes in doc.go.
func NewProbe(sink ProbeSink) *Probe {
	p := &Probe{
		cur:  make([]RoundRecord, 0, probeChunk),
		free: make(chan []RoundRecord, probeChunks),
		full: make(chan probeBatch, probeChunks),
		done: make(chan struct{}),
	}
	for i := 0; i < probeChunks-1; i++ {
		p.free <- make([]RoundRecord, 0, probeChunk)
	}
	go p.flush(sink)
	return p
}

// flush is the background drain: chunks return to the free ring after
// the sink consumed them. A sink error is sticky for reporting (the
// FIRST one surfaces from Probe.Close and marks later run records with
// SinkErr) but the sink keeps receiving every batch: a transient fault
// (disk briefly full) yields a trace with a marked hole rather than a
// silent stop, and a persistently failing sink costs one cheap rejected
// call per chunk. Chunks always cycle back to the free ring, so
// producers never block on a dead sink.
func (p *Probe) flush(sink ProbeSink) {
	defer close(p.done)
	var runBuf [1]RunRecord
	for b := range p.full {
		if b.rounds != nil {
			if err := sink.FlushRounds(b.rounds); err != nil {
				p.noteSinkErr(fmt.Errorf("dist: probe sink FlushRounds: %w", err))
			}
			p.free <- b.rounds[:0]
		}
		if b.hasRun {
			runBuf[0] = b.run
			if err := sink.FlushRuns(runBuf[:]); err != nil {
				p.noteSinkErr(fmt.Errorf("dist: probe sink FlushRuns: %w", err))
			}
		}
	}
}

// SetPhase labels subsequent runs with an orchestrator-level phase name
// (snapshotted per run into RunRecord.Phase). Safe on a nil probe, so
// orchestrators call net.Probe().SetPhase(...) unconditionally.
func (p *Probe) SetPhase(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phase = name
	p.mu.Unlock()
}

// Totals returns the probe's running aggregates.
func (p *Probe) Totals() ProbeTotals {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totals
}

// beginRun assigns the next run sequence number and snapshots the
// current phase label.
func (p *Probe) beginRun() (seq int64, phase string) {
	p.mu.Lock()
	p.seq++
	seq, phase = p.seq, p.phase
	p.mu.Unlock()
	return seq, phase
}

// round stages one round record, flushing the chunk when full.
func (p *Probe) round(rec RoundRecord) {
	p.mu.Lock()
	p.cur = append(p.cur, rec)
	p.totals.Rounds++
	p.totals.Messages += rec.Messages
	if len(p.cur) == cap(p.cur) {
		next := <-p.free
		p.full <- probeBatch{rounds: p.cur}
		p.cur = next
	}
	p.mu.Unlock()
}

// endRun flushes the staged rounds of the finished run together with its
// run record, preserving rounds-before-run ordering at the sink.
func (p *Probe) endRun(rec RunRecord) {
	rec.SinkErr = p.SinkErr() != nil
	p.mu.Lock()
	b := probeBatch{run: rec, hasRun: true}
	if len(p.cur) > 0 {
		next := <-p.free
		b.rounds = p.cur
		p.cur = next
	}
	p.totals.Runs++
	p.full <- b
	p.mu.Unlock()
}

// Close flushes any staged records and stops the flusher goroutine,
// returning once the sink has consumed everything. It returns the first
// error the sink reported over the probe's lifetime (nil when every
// flush succeeded). Close is idempotent - every call returns the same
// error - and attaching the probe to further runs after Close panics.
func (p *Probe) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return p.SinkErr()
	}
	p.closed = true
	if len(p.cur) > 0 {
		p.full <- probeBatch{rounds: p.cur}
		p.cur = nil
	}
	close(p.full)
	p.mu.Unlock()
	<-p.done
	return p.SinkErr()
}

// WithProbe returns a view of the network sharing the graph, identifier
// assignment and session whose Runs report to p (nil detaches). Like
// WithWorkers, orchestrator-internal runs on the view inherit the
// probe, so attaching one at the pipeline entry point traces every
// phase.
func (net *Network) WithProbe(p *Probe) *Network {
	c := *net
	c.probe = p
	return &c
}

// Probe returns the probe attached to this network view, or nil. Its
// nil-safe methods (SetPhase) let orchestrators label phases without
// checking.
func (net *Network) Probe() *Probe { return net.probe }

// roundTracer is the per-run state of a probed run, pooled in the run
// scratch: the run's sequence number and phase, the round clock, and the
// per-range send counters the round records diff. A range is one shard
// of a sharded view, or the whole vertex space otherwise. The round loop
// calls its hooks - runStart, roundStart, roundEnd, runEnd - behind one
// nil check each; none runs per vertex.
type roundTracer struct {
	p       *Probe
	seq     int64
	phase   string
	compute time.Time
	round   time.Time
	live    int
	// vcuts are the vertex cuts of the ranges: range j is vertices
	// [vcuts[j], vcuts[j+1]).
	vcuts []int
	// chunkNS is the step wall per chunk of the round's live-list cut
	// (stepChunks writes it; zero for empty chunks).
	chunkNS []int64
	// cum/prev are the cumulative per-range send counters after this
	// round and the previous one; sent is prev's total.
	cum, prev []int64
	sent      int64
}

// sharded reports whether the run carries per-shard telemetry.
func (t *roundTracer) sharded() bool { return len(t.vcuts) > 2 }

// runStart opens the run: sequence number, phase label, compute clock
// and the send baseline. A resume from round r > 0 starts the baseline at
// the restored counters, whose pre-kill sends the first leg's records
// already carry. A round-0 resume starts it at zero, like a fresh run:
// the first leg emitted no record, so the restored Init sends belong to
// round 1's record.
//
//distvet:wallclock the compute clock feeds RunRecord.ComputeNS, documented non-deterministic
func (t *roundTracer) runStart(s *simulation) {
	t.p = s.net.probe
	t.seq, t.phase = t.p.beginRun()
	s.phase = t.phase
	t.compute = time.Now()
	t.vcuts = append(t.vcuts[:0], 0)
	if sh := s.net.sharding; sh.NumShards() > 1 {
		for j := 0; j < sh.NumShards(); j++ {
			_, hi := sh.Bounds(j)
			t.vcuts = append(t.vcuts, hi)
		}
	} else {
		t.vcuts = append(t.vcuts, len(s.sent))
	}
	k := len(t.vcuts) - 1
	t.cum = grown(t.cum, k)
	t.prev = grown(t.prev, k)
	clear(t.prev)
	t.sent = 0
	if s.startRound > 0 {
		t.sent = t.sentRanges(s, t.prev)
	}
}

// roundStart notes the live count and starts the round clock.
//
//distvet:wallclock the round clock feeds RoundRecord.WallNS, documented non-deterministic
func (t *roundTracer) roundStart(s *simulation) {
	t.live = len(s.live)
	t.round = time.Now()
}

// shardSegs cuts the ascending live list into its shard segments - shard
// j's live nodes are live[segs[j]:segs[j+1]] - in the pooled cut buffer
// stepRound steps.
func (t *roundTracer) shardSegs(s *simulation) []int {
	live := s.live
	segs := append(s.rs.cuts[:0], 0)
	for j := 1; j < len(t.vcuts); j++ {
		prev := segs[j-1]
		segs = append(segs, prev+sort.SearchInts(live[prev:], t.vcuts[j]))
	}
	s.rs.cuts = segs
	return segs
}

// sentRanges writes each range's cumulative sends into out and returns
// their total.
func (t *roundTracer) sentRanges(s *simulation, out []int64) int64 {
	var total int64
	for j := range out {
		out[j] = s.sentTotal(t.vcuts[j], t.vcuts[j+1])
		total += out[j]
	}
	return total
}

// roundEnd stages round r's record: messages are the counter deltas
// since the previous round, chunk times come from stepChunks, and a
// sharded run adds one ShardRoundStat per shard.
//
//distvet:wallclock the round clock feeds RoundRecord.WallNS, documented non-deterministic
func (t *roundTracer) roundEnd(s *simulation, r int) {
	wall := time.Since(t.round).Nanoseconds()
	cuts := s.rs.cuts
	var maxNS, sumNS int64
	nonempty := 0
	for c, ns := range t.chunkNS[:len(cuts)-1] {
		if cuts[c] == cuts[c+1] {
			continue
		}
		nonempty++
		maxNS = max(maxNS, ns)
		sumNS += ns
	}
	cum := t.sentRanges(s, t.cum)
	var shards []ShardRoundStat
	if t.sharded() {
		shards = make([]ShardRoundStat, len(t.cum))
		for j := range shards {
			shards[j] = ShardRoundStat{
				Live:     cuts[j+1] - cuts[j],
				Messages: t.cum[j] - t.prev[j],
				WallNS:   t.chunkNS[j],
			}
		}
	}
	t.p.round(RoundRecord{
		Run:         t.seq,
		Round:       r,
		Live:        t.live,
		Messages:    cum - t.sent,
		Workers:     s.net.sweepWorkers(t.live),
		WallNS:      wall,
		MaxChunkNS:  maxNS,
		MeanChunkNS: sumNS / int64(max(nonempty, 1)),
		Shards:      shards,
	})
	copy(t.prev, t.cum)
	t.sent = cum
}

// runEnd stages the run record. res is nil when the run failed without a
// partial Result (round budget exhausted): the record then reports zero
// rounds and messages.
//
//distvet:wallclock ComputeNS is wall telemetry, documented non-deterministic
func (t *roundTracer) runEnd(s *simulation, res *Result, err error) {
	rec := RunRecord{
		Run:           t.seq,
		Phase:         t.phase,
		PeakLive:      len(s.topo.live),
		Workers:       s.net.Workers(),
		TopoCached:    s.topoCached,
		ScratchPooled: s.scratchPooled,
		SetupNS:       s.setupNS,
		ComputeNS:     time.Since(t.compute).Nanoseconds(),
	}
	if res != nil {
		rec.Rounds, rec.Messages = res.Rounds, res.Messages
	}
	if t.sharded() {
		rec.Shards = len(t.vcuts) - 1
	}
	if err != nil {
		rec.Err = err.Error()
	}
	t.p.endRun(rec)
	t.p = nil // the pooled scratch outlives the run; it must not pin the probe
}
