package dist

import (
	"fmt"
	"sync"
	"time"
)

// This file implements the engine's observability hook: an optional Probe
// a Network view carries into its Runs. When attached, the run loop emits
// one fixed-width RoundRecord per communication round and one RunRecord
// per Run, buffered in a preallocated ring and flushed to a ProbeSink off
// the round loop. With no probe attached the engine takes the plain run
// loop, whose only extra cost is a single nil check per Run - a benchmark
// pins the disabled-path overhead at ~0.
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
	// node wiring); ComputeNS is the wall time of the round loop and
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

// runProbed is the traced twin of simulation.run: identical engine
// semantics (same step / flush / collect order), plus per-round timing
// and record emission. Keeping it separate leaves the disabled path
// untouched.
//
//distvet:wallclock the probed twin exists to measure rounds; every wall field it feeds is documented non-deterministic
func (s *simulation) runProbed() (*Result, error) {
	defer s.close()
	p := s.net.probe
	seq, phase := p.beginRun()
	s.phase = phase
	compute := time.Now()
	// fail ends the run early at a round boundary: vertex failures (and
	// recovered panics) report the partial Result alongside the error;
	// abort wraps the same path with the optional snapshot capture.
	fail := func(rounds int, err error) (*Result, error) {
		res := s.partial(rounds)
		s.emitRun(p, seq, phase, rounds, res.Messages, time.Since(compute), err)
		return res, err
	}
	abort := func(rounds int, err error) (*Result, error) {
		res, aerr := s.abortResult(rounds, err)
		s.emitRun(p, seq, phase, rounds, res.Messages, time.Since(compute), aerr)
		return res, aerr
	}
	rounds := s.startRound
	if rounds == 0 && !s.resumed {
		s.stepRound(0)
		s.collectHalted(0)
		if err := s.failSlot.take(); err != nil {
			return fail(0, err)
		}
		if s.hasAbort {
			if err := s.checkAbort(); err != nil {
				return abort(0, err)
			}
		}
	}
	budget := s.opts.MaxRounds
	if budget == 0 {
		budget = defaultMaxRounds
	}
	var prevSent int64
	// Sharded runs carry per-shard round telemetry: the step is timed
	// shard-segment by shard-segment (stepRoundShardTimed) and the send
	// counters are summed per shard, so every record's Shards slice
	// reports live/messages/wall per shard. The buffers come from the
	// pooled scratch; only the per-record slices allocate.
	st := s.topo.shard
	var segs []int
	var shardNS, shardCum, shardPrev []int64
	if st != nil {
		k := st.k()
		s.rs.shardSegs = grown(s.rs.shardSegs, k+1)
		s.rs.shardNS = grown(s.rs.shardNS, k)
		s.rs.shardCum = grown(s.rs.shardCum, k)
		s.rs.shardPrev = grown(s.rs.shardPrev, k)
		segs, shardNS = s.rs.shardSegs, s.rs.shardNS
		shardCum, shardPrev = s.rs.shardCum, s.rs.shardPrev
		clear(shardPrev)
	}
	if s.resumed {
		// Resumed run: the restored send counters include every pre-kill
		// send, so the per-round message deltas must start from them.
		if st != nil {
			prevSent = s.sentTotalShards(st, shardPrev)
		} else {
			prevSent = s.sentTotal()
		}
	}
	for r := rounds + 1; len(s.live) > 0; r++ {
		if r > budget {
			err := fmt.Errorf("dist: %d nodes still running after %d rounds: %w",
				len(s.live), budget, ErrMaxRounds)
			s.emitRun(p, seq, phase, 0, 0, time.Since(compute), err)
			return nil, err
		}
		live := len(s.live)
		roundStart := time.Now()
		var w int
		var maxNS, meanNS int64
		if st != nil {
			s.liveShardSegs(st, segs)
			w, maxNS, meanNS = s.stepRoundShardTimed(r, st, segs, shardNS)
		} else {
			w, maxNS, meanNS = s.stepRoundTimed(r)
		}
		s.flushHaltClears()
		rounds = r
		s.collectHalted(r)
		wall := time.Since(roundStart)
		var cum int64
		var shardStats []ShardRoundStat
		if st != nil {
			cum = s.sentTotalShards(st, shardCum)
			shardStats = make([]ShardRoundStat, st.k())
			for j := range shardStats {
				shardStats[j] = ShardRoundStat{
					Live:     segs[j+1] - segs[j],
					Messages: shardCum[j] - shardPrev[j],
					WallNS:   shardNS[j],
				}
			}
			copy(shardPrev, shardCum)
		} else {
			cum = s.sentTotal()
		}
		p.round(RoundRecord{
			Run:         seq,
			Round:       r,
			Live:        live,
			Messages:    cum - prevSent,
			Workers:     w,
			WallNS:      wall.Nanoseconds(),
			MaxChunkNS:  maxNS,
			MeanChunkNS: meanNS,
			Shards:      shardStats,
		})
		prevSent = cum
		if err := s.failSlot.take(); err != nil {
			return fail(rounds, err)
		}
		if s.hasAbort {
			if err := s.checkAbort(); err != nil {
				return abort(rounds, err)
			}
		}
	}
	msgs := s.collectMessages()
	res := &Result{
		OutputWords: s.outCol,
		Rounds:      rounds,
		Messages:    msgs,
		Wall:        time.Since(s.start),
		PeakLive:    len(s.topo.live),
	}
	s.emitRun(p, seq, phase, rounds, msgs, time.Since(compute), nil)
	return res, nil
}

// emitRun assembles and stages the run record.
func (s *simulation) emitRun(p *Probe, seq int64, phase string, rounds int, msgs int64, compute time.Duration, err error) {
	rec := RunRecord{
		Run:           seq,
		Phase:         phase,
		Rounds:        rounds,
		Messages:      msgs,
		PeakLive:      len(s.topo.live),
		Workers:       s.workers,
		TopoCached:    s.topoCached,
		ScratchPooled: s.scratchPooled,
		SetupNS:       s.setupNS,
		ComputeNS:     compute.Nanoseconds(),
	}
	if st := s.topo.shard; st != nil {
		rec.Shards = st.k()
	}
	if err != nil {
		rec.Err = err.Error()
	}
	p.endRun(rec)
}

// stepRoundTimed is stepRound with per-chunk wall measurement; it
// reports the fan-out used and the max/mean per-chunk step time.
//
//distvet:wallclock per-chunk step timing is this function's purpose; only non-deterministic wall telemetry depends on it
func (s *simulation) stepRoundTimed(r int) (workers int, maxNS, meanNS int64) {
	m := len(s.live)
	w := s.sweepWorkers(m)
	if w <= 1 {
		s.rs.curV = grown(s.rs.curV, 1)
		t := time.Now()
		s.stepSliceGuarded(r, 0, m, &s.rs.curV[0])
		d := time.Since(t).Nanoseconds()
		return 1, d, d
	}
	chunk := (m + w - 1) / w
	chunks := (m + chunk - 1) / chunk
	s.rs.chunkNS = grown(s.rs.chunkNS, chunks)
	s.rs.curV = grown(s.rs.curV, chunks)
	ns := s.rs.chunkNS
	cur := s.rs.curV
	parfor(m, w, func(lo, hi int) {
		t := time.Now()
		s.stepSliceGuarded(r, lo, hi, &cur[lo/chunk])
		ns[lo/chunk] = time.Since(t).Nanoseconds()
	})
	var sum int64
	for _, d := range ns[:chunks] {
		if d > maxNS {
			maxNS = d
		}
		sum += d
	}
	return w, maxNS, sum / int64(chunks)
}

// sentTotal sums the cumulative per-node send counters. It runs once per
// round on the probed path only; the plain path keeps its single
// end-of-run collection sweep.
func (s *simulation) sentTotal() int64 {
	var total int64
	for _, nd := range s.nodes {
		if nd != nil {
			total += nd.sent
		}
	}
	return total
}
