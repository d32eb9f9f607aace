package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
	"unsafe"

	"repro/internal/graph"
)

// ErrMaxRounds is returned (wrapped) by Run when nodes are still running
// after RunOptions.MaxRounds rounds, with the partial Result of those
// rounds. Callers that probe for a property -
// e.g. the H-partition testing an arboricity guess - detect the overrun
// with errors.Is.
var ErrMaxRounds = errors.New("dist: round budget exhausted")

// ErrCanceled is returned (wrapped) by Run when the run's context is
// canceled. The engine checks the context once per round boundary, so the
// returned partial Result reports a whole number of completed rounds and
// the session stays reusable: the next Run on the same Network is
// bit-for-bit identical to one on a fresh network.
var ErrCanceled = errors.New("dist: run canceled")

// ErrDeadline is returned (wrapped) by Run when the run's context
// deadline expires, with the same round-boundary and partial-Result
// semantics as ErrCanceled.
var ErrDeadline = errors.New("dist: run deadline exceeded")

// ErrVertexPanic is returned (wrapped) by Run when a vertex program
// panics. The panic is recovered on the worker goroutine and converted
// into the deterministic Node.Fail path: the smallest panicking vertex is
// reported (identically at every worker and shard count), the run aborts
// at that round boundary with a partial Result, and the session stays
// reusable.
var ErrVertexPanic = errors.New("dist: vertex program panicked")

// defaultMaxRounds caps runs that set no explicit budget, so a buggy
// vertex program deadlocks the simulation instead of the process. Every
// legitimate run in this repository finishes orders of magnitude earlier.
const defaultMaxRounds = 1 << 20

// Algorithm is a vertex program. Every message it sends is exactly
// MessageWords() int64 words, and its per-vertex input and output are
// fixed-width word columns (wordio.go). InitWords runs once per node at
// round 0 and sends the opening messages. StepWords runs once per round on
// every node that has not halted; the inbox holds the words each visible
// neighbor sent in the previous round (batch.go). Neither may keep the
// *Node (see Node).
type Algorithm interface {
	// MessageWords returns the fixed per-message word count W >= 1. It
	// must be constant across the run.
	MessageWords() int
	// InputWidth returns the per-vertex input word count (>= 0), or
	// PerPort. Zero means the program takes no input column. The width
	// may depend on the algorithm value (e.g. a variant flag), but must
	// be constant across one Run.
	InputWidth() int
	// OutputWidth returns the per-vertex output word count (>= 0), or
	// PerPort. Zero means the program produces no output column.
	OutputWidth() int
	// InitWords is round 0: send with SendWord / SendWords / SendAllWord.
	InitWords(n *Node)
	// StepWords is one round; inbox is the columnar view of the words
	// received this round.
	StepWords(n *Node, inbox WordInbox)
}

// RunOptions configures a single Run: the subgraph it runs on, its round
// budget, its input column and its snapshot request. The worker pool and
// the abort context are properties of the Network view the run starts on
// (WithWorkers, WithContext).
type RunOptions struct {
	// Labels restricts communication to the label-induced subgraphs: only
	// same-label neighbors are visible (nil = one subgraph).
	Labels []int
	// Active masks the run to a vertex subset: inactive vertices do not
	// run at all, are invisible to their neighbors, and read as zero
	// words in fixed-width output columns (nil = all active).
	Active []bool
	// MaxRounds bounds the number of StepWords rounds; exceeding it
	// aborts the run with ErrMaxRounds. Zero means the (very large)
	// engine default.
	MaxRounds int
	// InputWords is the flat input column (see wordio.go for the
	// layout); its length must match the algorithm's InputWidth. The
	// engine reads it during the Run only, but the vertex program may
	// reuse its own slots as scratch.
	InputWords []int64
	// SnapshotOnAbort captures a Snapshot of the round-structured engine
	// state into Result.Snapshot when the run aborts through its view's
	// context (WithContext; not on vertex failure, whose mid-round state
	// is not snapshot-clean). Requires a program whose state lives
	// entirely in the word columns (see Snapshot); the capture verifies
	// this and the abort error is annotated if the program does not
	// qualify.
	SnapshotOnAbort bool
}

// Result reports a completed run.
type Result struct {
	// OutputWords is the flat output column (nil when the algorithm
	// declares no output). It aliases an engine-owned column that the
	// next Run on the same Network reclaims and re-zeroes: decode or copy
	// it before starting another run.
	OutputWords []int64
	// Rounds is the number of StepWords rounds executed - the LOCAL
	// running time. A run in which every node halts during InitWords
	// costs 0 rounds.
	Rounds int
	// Messages is the total number of messages sent.
	Messages int64
	// Wall is the host-side wall time of the whole Run (setup through
	// result collection). Unlike everything else in a Result it is not
	// deterministic; a WithPhase view charges it to PhaseStat.Wall.
	Wall time.Duration
	// PeakLive is the number of live vertices the run started with (the
	// live set only shrinks).
	PeakLive int
	// Snapshot is the captured engine state of a run aborted with
	// RunOptions.SnapshotOnAbort (nil otherwise). It owns its memory -
	// nothing aliases the session's pooled columns - so it stays valid
	// across later runs and can be serialized (WriteTo) or resumed
	// (Network.Resume) at any time.
	Snapshot *Snapshot
}

// Node is the per-vertex view an Algorithm operates on: its step chunk's
// cursor, re-pointed at every vertex the chunk steps, so a *Node and every
// slice it hands out are valid only during the call they are passed to.
// State is the one program-owned slot; everything else is engine state,
// reached through the word-column accessors.
type Node struct {
	// State holds arbitrary per-node algorithm state across rounds (e.g.
	// a randomized program's per-node rand.Rand), kept between steps in a
	// run-scratch column. Programs that keep their state in the word
	// columns leave it nil, which is what makes their runs snapshotable.
	State any

	id     int
	vertex int
	total  int
	round  int
	ports  []int
	// wout/wmark alias the node's outbox slots in the current round's
	// message column (batch.go).
	width int
	wout  []int64
	wmark []uint8
	// win/wob are the input and output column views (wordio.go); nil
	// when the algorithm declares no input or output.
	win    []int64
	wob    []int64
	fail   *runFailure
	sent   int64 // the call's sends, added to the run's sent column
	halted bool
}

// ID returns the node's LOCAL-model identifier in {1..n}.
func (n *Node) ID() int { return n.id }

// Round returns the current round: 0 during InitWords, then 1, 2, ...
// for successive StepWords calls.
func (n *Node) Round() int { return n.round }

// Degree returns the number of visible ports (the degree within the
// simulated subgraph).
func (n *Node) Degree() int { return len(n.ports) }

// N returns the number of vertices of the whole underlying graph, the
// globally known quantity n of the LOCAL model.
func (n *Node) N() int { return n.total }

// Halt marks the node finished: it takes no further steps and sends
// nothing after the current call. Messages sent in the same call are
// still delivered next round.
func (n *Node) Halt() { n.halted = true }

// Network binds a graph to an identifier assignment and runs vertex
// programs over it. A Network is immutable and reusable: successive Run
// calls are independent, and repeated runs reuse the session's cached
// topologies and pooled per-run state (session.go).
type Network struct {
	g   *graph.Graph
	ids []int
	// workers is the pinned pool size of every Run and ParallelFor on
	// this view (0 = the auto heuristic); see WithWorkers.
	workers int
	// sharding is the vertex partition of a Sharded view (the zero value
	// on unsharded networks); see shard.go.
	sharding graph.Sharding
	// sess is the persistent per-network session: cached topologies and
	// pooled per-run state. It is a pointer so WithWorkers/WithProbe/
	// WithContext views share it.
	sess *session
	// probe, when non-nil, receives round- and run-level trace records
	// from every Run on this view; see WithProbe and probe.go.
	probe *Probe
	// ctx, when non-nil, aborts every Run on this view; see WithContext.
	ctx context.Context
	// phase, when non-nil, is the tally phase every Run on this view is
	// charged to; see WithPhase.
	phase *phase
}

// NewNetwork returns a network with canonical identifiers id(v) = v+1.
func NewNetwork(g *graph.Graph) *Network {
	ids := make([]int, g.N())
	for v := range ids {
		ids[v] = v + 1
	}
	return &Network{g: g, ids: ids, sess: &session{}}
}

// NewNetworkPermuted returns a network whose identifiers {1..n} are
// assigned by a random permutation drawn from rng, stressing
// identifier-dependent symmetry breaking. A fixed rng seed yields a fixed
// assignment and hence bit-for-bit reproducible runs.
func NewNetworkPermuted(g *graph.Graph, rng *rand.Rand) *Network {
	ids := make([]int, g.N())
	for v, p := range rng.Perm(g.N()) {
		ids[v] = p + 1
	}
	return &Network{g: g, ids: ids, sess: &session{}}
}

// NewNetworkWithIDs returns a network with the given identifier
// assignment (ids[v] in {1..n}, each exactly once) and a fresh session.
// Harnesses use it to re-run the exact same instance - typically ids
// captured from NewNetworkPermuted via IDs - on independent sessions,
// e.g. one cold-cache network per point of a speedup sweep, without
// replaying the rng stream that generated the graph.
func NewNetworkWithIDs(g *graph.Graph, ids []int) (*Network, error) {
	n := g.N()
	if len(ids) != n {
		return nil, fmt.Errorf("dist: %d identifiers for %d vertices", len(ids), n)
	}
	seen := make([]bool, n+1)
	for v, id := range ids {
		if id < 1 || id > n || seen[id] {
			return nil, fmt.Errorf("dist: ids is not a permutation of 1..%d (ids[%d]=%d)", n, v, id)
		}
		seen[id] = true
	}
	return &Network{g: g, ids: append([]int(nil), ids...), sess: &session{}}, nil
}

// Graph returns the underlying graph.
func (net *Network) Graph() *graph.Graph { return net.g }

// IDs returns a copy of the identifier assignment, indexed by vertex.
func (net *Network) IDs() []int { return append([]int(nil), net.ids...) }

// WithContext returns a view of the network sharing the graph,
// identifier assignment and session whose Runs abort when ctx is
// canceled or its deadline expires. The engine checks ctx exactly once
// per round boundary (never mid-round), so an aborted run returns a
// partial Result wrapped in ErrCanceled or ErrDeadline and the session
// stays reusable. Pipelines that call Run internally inherit the
// context, which is how a whole multi-phase algorithm (LegalColoring and
// friends) becomes cancelable without threading a context through every
// signature. A nil ctx never aborts; runs without a context pay one nil
// check per round boundary.
func (net *Network) WithContext(ctx context.Context) *Network {
	c := *net
	c.ctx = ctx
	return &c
}

// autoParallelThreshold is the participant count above which the auto
// worker heuristic fans a sweep out; below it the per-round
// synchronization costs more than it saves. Pinned worker counts
// (WithWorkers) bypass the threshold.
const autoParallelThreshold = 512

// minChunk is the smallest per-worker slice of nodes the auto heuristic
// considers worth a goroutine.
const minChunk = 64

// Run executes the vertex program round-by-round until every active node
// has halted or the round budget trips.
func (net *Network) Run(algo Algorithm, opts RunOptions) (*Result, error) {
	s, err := net.prepare(algo, opts)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// prepare validates a run's options and assembles the pooled simulation -
// everything Run does before entering the round loop. Resume
// (snapshot.go) shares it.
func (net *Network) prepare(algo Algorithm, opts RunOptions) (*simulation, error) {
	if algo == nil {
		return nil, errors.New("dist: nil algorithm")
	}
	n := net.g.N()
	if opts.Labels != nil && len(opts.Labels) != n {
		return nil, fmt.Errorf("dist: %d labels for %d vertices", len(opts.Labels), n)
	}
	if opts.Active != nil && len(opts.Active) != n {
		return nil, fmt.Errorf("dist: %d active flags for %d vertices", len(opts.Active), n)
	}
	if opts.MaxRounds < 0 {
		return nil, fmt.Errorf("dist: negative round budget %d", opts.MaxRounds)
	}
	start := time.Now() //distvet:wallclock setup-vs-compute attribution (Result.Wall, RunRecord.SetupNS); wall figures are documented non-deterministic
	s, err := newSimulation(net, algo, opts)
	if err != nil {
		return nil, err
	}
	s.start = start
	s.setupNS = time.Since(start).Nanoseconds() //distvet:wallclock same setup-vs-compute attribution
	return s, nil
}

// simulation is the per-Run state of the engine. It is pooled inside the
// session's runScratch; newSimulation re-initializes every field.
type simulation struct {
	net  *Network
	algo Algorithm
	opts RunOptions

	// topo is the cached immutable wiring (port lists, live set, slot
	// bases, delivery table) shared with other runs; see session.go.
	topo *topology
	// rs is the borrowed per-run scratch bundle, released on completion.
	rs *runScratch

	// live is the mutable live list: each step chunk compacts its range
	// in place, parking halted vertices in liveSpare at the same offsets,
	// and joinChunks concatenates the chunks.
	live      []int
	liveSpare []int
	// sent[v] is v's cumulative send count; states[v] is v's Node.State
	// between its steps, a column the step loop touches only once the run
	// has stored a State (hasState).
	sent     []int64
	states   []any
	hasState bool

	// start/setupNS time the run for Result.Wall and the probe's
	// setup-vs-compute split; topoCached/scratchPooled are the session
	// events the run record reports (probe.go).
	start         time.Time
	setupNS       int64
	topoCached    bool
	scratchPooled bool

	// failSlot is the per-run error slot Node.Fail records into.
	failSlot runFailure

	// tr is the round tracer of a probed run (probe.go), nil unprobed:
	// the round loop's hooks cost one nil check each per round.
	tr *roundTracer

	// Run-control state. resumed is set by restore (snapshot.go): the
	// loop starts at startRound+1 and Init is skipped (a snapshot captured
	// at round 0 already holds Init's sends, so startRound alone cannot
	// distinguish the cases).
	startRound int
	resumed    bool

	// Message-column state (see batch.go): the width and the two
	// round-parity column descriptors every inbox of a round points at.
	width  int
	cols   [2]wordColumn
	clearQ []int // nodes halted last round, flags pending a clear

	// inCol/outCol are the input and output columns and iw/ow their
	// declared widths (wordio.go); a column is nil when its width is 0.
	iw, ow int
	inCol  []int64
	outCol []int64
}

// maxSlots bounds the columnar slot space of a run.
const maxSlots = 1 << 31

// newSimulation assembles a run: resolve the (cached) topology, validate
// the algorithm's declared shape against it and borrow the pooled per-run
// columns. Nothing is wired per vertex; stepSlice binds each vertex.
func newSimulation(net *Network, algo Algorithm, opts RunOptions) (*simulation, error) {
	n := net.g.N()
	// The topology's delivery-slot table is int32: guard the whole-graph
	// directed edge count (which bounds every filtered run's visible port
	// count) BEFORE building anything, so an oversized graph can never
	// leave a wrapped table in the cache.
	if 2*net.g.M() >= maxSlots {
		return nil, fmt.Errorf("dist: graph has %d directed edges (max %d)", 2*net.g.M(), maxSlots-1)
	}
	setupW := net.sweepWorkers(n)
	topo, topoHit := net.sess.topology(net.g, opts.Labels, opts.Active, setupW)

	width := algo.MessageWords()
	if width < 1 {
		return nil, fmt.Errorf("dist: algorithm %T declares %d message words", algo, width)
	}
	if topo.totalPorts >= maxSlots/width {
		return nil, fmt.Errorf("dist: message columns need %d word slots (max %d)", topo.totalPorts, maxSlots/width)
	}
	iw, ow := algo.InputWidth(), algo.OutputWidth()
	if iw < PerPort || ow < PerPort {
		return nil, fmt.Errorf("dist: algorithm %T declares widths (%d, %d)", algo, iw, ow)
	}
	inCol := opts.InputWords
	if want := columnLen(iw, n, topo.totalPorts); len(inCol) != want {
		return nil, fmt.Errorf("dist: %d input words for width %d (want %d)", len(inCol), iw, want)
	}
	if inCol == nil {
		inCol = []int64{} // InputWords of an empty column is non-nil
	}

	rs, pooled := net.sess.borrowRun()
	s := &rs.sim
	*s = simulation{
		net:           net,
		algo:          algo,
		opts:          opts,
		topo:          topo,
		rs:            rs,
		topoCached:    topoHit,
		scratchPooled: pooled,
		width:         width,
		iw:            iw,
		ow:            ow,
		inCol:         inCol,
	}
	rs.live = grown(rs.live, len(topo.live))
	rs.liveSpare = grown(rs.liveSpare, len(topo.live))
	s.live, s.liveSpare = rs.live, rs.liveSpare
	copy(s.live, topo.live)
	rs.sent = grown(rs.sent, n)
	clear(rs.sent)
	rs.states = grown(rs.states, n) // all nil: close clears it after use
	s.sent, s.states = rs.sent, rs.states
	// The pooled message columns are NOT zeroed between runs: a WordInbox
	// only reads slots whose sent flag is set, and every flag read at
	// round r belongs to a sender that either stepped round r-1 (clearing
	// its flags at step start) or halted earlier and had them flushed
	// (flushHaltClears) - so stale content from a previous run, even one
	// with a different topology, is never observed.
	for i := 0; i < 2; i++ {
		rs.wwords[i] = grown(rs.wwords[i], topo.totalPorts*width)
		rs.wsent[i] = grown(rs.wsent[i], topo.totalPorts)
		s.cols[i] = wordColumn{width: width, words: rs.wwords[i], sent: rs.wsent[i]}
	}
	s.clearQ = rs.clearQ[:0]
	if ow != 0 {
		s.outCol = net.sess.borrowOut(columnLen(ow, n, topo.totalPorts), setupW)
	}
	return s, nil
}

// close releases the pooled per-run state: the output column goes back
// to the session (the NEXT run's borrow reclaims it, which is why
// Result.OutputWords may alias it until then) and the scratch bundle
// becomes available to the next run.
func (s *simulation) close() {
	s.net.sess.publishOut(s.outCol)
	// Slices the run grew in place flow back into the scratch so their
	// capacity survives into the next run.
	s.rs.clearQ = s.clearQ[:0]
	if s.hasState {
		clear(s.states) // the next run starts from nil States
	}
	s.net.sess.releaseRun(s.rs)
}

// run is the round loop: InitWords at round 0 (skipped on resume), then
// StepWords rounds until every node halts, with the fail/abort checks at
// every round boundary. A probed run attaches a round tracer (probe.go)
// whose hooks - run start, round start and end, run end - are the only
// difference from an unprobed one.
func (s *simulation) run() (*Result, error) {
	defer s.close()
	if s.net.probe != nil {
		s.tr = &s.rs.tr
		s.tr.runStart(s)
	}
	rounds := s.startRound
	if rounds == 0 && !s.resumed {
		s.stepRound(0)
		s.joinChunks()
		if res, err := s.boundary(0); err != nil {
			return s.end(res, err)
		}
	}
	budget := s.opts.MaxRounds
	if budget == 0 {
		budget = defaultMaxRounds
	}
	for r := rounds + 1; len(s.live) > 0; r++ {
		if r > budget {
			return s.end(s.partial(budget), fmt.Errorf("dist: %d nodes still running after %d rounds: %w",
				len(s.live), budget, ErrMaxRounds))
		}
		if s.tr != nil {
			s.tr.roundStart(s)
		}
		s.stepRound(r)
		rounds = r
		s.joinChunks()
		if s.tr != nil {
			s.tr.roundEnd(s, r)
		}
		if res, err := s.boundary(rounds); err != nil {
			return s.end(res, err)
		}
	}
	return s.end(s.partial(rounds), nil)
}

// boundary runs the round-boundary checks after completed round
// `rounds`: a vertex failure (or contained panic) or an abort ends the
// run with the partial Result and the error; nil error continues.
func (s *simulation) boundary(rounds int) (*Result, error) {
	if err := s.failSlot.take(); err != nil {
		return s.partial(rounds), err
	}
	if s.net.ctx != nil {
		if err := s.checkAbort(); err != nil {
			return s.abortResult(rounds, err)
		}
	}
	return nil, nil
}

// end is the run's single exit: the view's phases are charged the
// Result, and a probed run emits its run record.
func (s *simulation) end(res *Result, err error) (*Result, error) {
	s.net.phase.charge(res)
	if s.tr != nil {
		s.tr.runEnd(s, res, err)
	}
	return res, err
}

// checkAbort reports the view context's abort condition at a round
// boundary: canceled maps to ErrCanceled, an expired deadline to
// ErrDeadline. Only called between rounds, so an abort never observes
// mid-round state.
func (s *simulation) checkAbort() error {
	err := s.net.ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("dist: run aborted at round boundary: %v: %w", err, ErrDeadline)
	default:
		return fmt.Errorf("dist: run aborted at round boundary: %v: %w", err, ErrCanceled)
	}
}

// partial assembles the Result of a run at a round boundary: the outputs
// and message totals of the rounds completed so far. A completed run and
// every early stop - abort, vertex failure, exhausted round budget -
// report through it.
func (s *simulation) partial(rounds int) *Result {
	return &Result{
		OutputWords: s.outCol,
		Rounds:      rounds,
		Messages:    s.sentTotal(0, len(s.sent)),
		Wall:        time.Since(s.start), //distvet:wallclock Result.Wall is host-side observability, documented non-deterministic
		PeakLive:    len(s.topo.live),
	}
}

// abortResult pairs the partial Result of a context abort with
// its error, capturing a Snapshot first when the run asked for one (the
// session's pooled columns are still bound at this point; close() runs
// after).
func (s *simulation) abortResult(rounds int, abortErr error) (*Result, error) {
	res := s.partial(rounds)
	if s.opts.SnapshotOnAbort {
		snap, err := s.captureSnapshot(rounds)
		if err != nil {
			return res, fmt.Errorf("%w; snapshot not captured: %v", abortErr, err)
		}
		res.Snapshot = snap
	}
	return res, abortErr
}

// sentTotal sums the cumulative send counters of the vertices [lo, hi).
func (s *simulation) sentTotal(lo, hi int) int64 {
	var total int64
	for _, m := range s.sent[lo:hi] {
		total += m
	}
	return total
}

// stepRound executes round r (round 0 = InitWords) on every live node. A
// step writes only its own vertex's column slots, through its chunk's
// cursor, and its chunk's range of the live list and its spare; delivery
// reads only the previous round's buffers. So the live list can be cut
// into chunks stepped on any number of workers without changing results.
// The cut is an even split over the w workers, or the shard segments on a
// probed sharded run; either way the chunks go through parfor, so at most
// w goroutines step at once. Long-tail rounds of wave-style programs leave
// only a few live nodes; the auto heuristic then steps inline, where the
// fan-out would cost more than it saves.
func (s *simulation) stepRound(r int) {
	m := len(s.live)
	w := s.net.sweepWorkers(m)
	var cuts []int
	if s.tr != nil && s.tr.sharded() {
		cuts = s.tr.shardSegs(s)
	} else {
		cuts = s.evenCuts(m, w)
	}
	chunks := len(cuts) - 1
	s.rs.cursors = grown(s.rs.cursors, chunks)
	if s.tr != nil {
		s.tr.chunkNS = grown(s.tr.chunkNS, chunks)
	}
	if w <= 1 {
		s.stepChunks(r, 0, chunks)
		return
	}
	parfor(chunks, w, func(lo, hi int) {
		s.stepChunks(r, lo, hi)
	})
}

// evenCuts splits the m live nodes into one contiguous chunk per worker
// (ceil(m/w) nodes each, the last one shorter) in the pooled cut buffer.
func (s *simulation) evenCuts(m, w int) []int {
	chunk := (m + w - 1) / w
	cuts := append(s.rs.cuts[:0], 0)
	for lo := chunk; lo < m; lo += chunk {
		cuts = append(cuts, lo)
	}
	s.rs.cuts = append(cuts, m)
	return s.rs.cuts
}

// cacheLine is the cache-line size cursors are padded to.
const cacheLine = 64

// chunkCursor is one step chunk's Node and its halt collection so far:
// kept vertices compact in place from the chunk's first live index, halted
// ones fill liveSpare from the same offset. stored reports that a vertex
// of the chunk set Node.State this round.
type chunkCursor struct {
	Node
	kept, halts int
	stored      bool
}

// cursor is a chunkCursor padded to whole cache lines, so the cursors of
// chunks stepped on different workers never share one.
type cursor struct {
	chunkCursor
	_ [cacheLine - unsafe.Sizeof(chunkCursor{})%cacheLine]byte
}

// stepChunks steps chunks [lo, hi) of the round's live-list cut, each
// under the panic guard with its own cursor; a traced run also times
// every nonempty chunk.
//
//distvet:wallclock per-chunk step timing of traced runs; only non-deterministic wall telemetry depends on it
func (s *simulation) stepChunks(r, lo, hi int) {
	cuts, curs := s.rs.cuts, s.rs.cursors
	for c := lo; c < hi; c++ {
		cur := &curs[c]
		cur.chunkCursor = chunkCursor{Node: Node{vertex: -1, total: s.net.g.N(), round: r, width: s.width, fail: &s.failSlot}}
		if s.tr == nil {
			s.stepSliceGuarded(r, cuts[c], cuts[c+1], cur)
			continue
		}
		var ns int64
		if cuts[c] < cuts[c+1] {
			t := time.Now()
			s.stepSliceGuarded(r, cuts[c], cuts[c+1], cur)
			ns = time.Since(t).Nanoseconds()
		}
		s.tr.chunkNS[c] = ns
	}
}

// stepSliceGuarded runs stepSlice under the panic guard: a panic out of
// a vertex program (or an engine misuse panic raised inside one, e.g. a
// bad SendWord port) is recovered on this worker goroutine and converted
// into the Node.Fail path so the run degrades to a deterministic failed
// run instead of a crashed process.
//
// Determinism: the live list ascends and a panic only skips the REST of
// its own chunk, so the globally smallest panicking vertex always gets
// stepped, and runFailure keeps the smallest vertex across chunks - the
// reported failure is identical at every worker and shard count. (The
// sends of vertices after a panic in one chunk are skipped, so message
// totals of panicked runs are not pinned across worker counts.)
//
//distvet:noalloc
func (s *simulation) stepSliceGuarded(r, lo, hi int, c *cursor) {
	defer s.recoverStep(r, lo, hi, c)
	s.stepSlice(r, lo, hi, c)
}

// recoverStep is stepSliceGuarded's deferred recovery: it fails the vertex
// the chunk's cursor is bound to with ErrVertexPanic, counting its partial
// sends, and closes the chunk's halt collection with the unstepped rest
// kept live.
func (s *simulation) recoverStep(r, lo, hi int, c *cursor) {
	rec := recover()
	if rec == nil {
		return
	}
	err := fmt.Errorf("vertex program panic at round %d phase %q: %v: %w", r, s.net.phase.label(), rec, ErrVertexPanic)
	nd := &c.Node
	if nd.vertex < 0 {
		// An engine bug: record it unattributed rather than crash.
		s.failSlot.record(-1, -1, err)
		return
	}
	s.sent[nd.vertex] += nd.sent
	nd.Fail(err)
	next := lo + c.kept + c.halts + 1
	s.liveSpare[lo+c.halts] = nd.vertex
	c.halts++
	c.kept += copy(s.live[lo+c.kept:], s.live[next:hi])
}

// stepSlice steps the live nodes in [lo, hi) through the chunk's cursor:
// bind the vertex (identifier, ports, outbox, input and output views),
// dispatch InitWords/StepWords, collect the step's sends, State and halt.
// The only allocations on a steady-state round are the vertex program's
// own. The round-parity columns are pooled and intentionally not zeroed:
// every flag a WordInbox reads was cleared this run by its owner's step
// (clear(nd.wmark) below) or by flushHaltClears.
//
//distvet:noalloc
func (s *simulation) stepSlice(r, lo, hi int, c *cursor) {
	w := s.width
	par := r % 2
	words := s.cols[par].words
	flags := s.cols[par].sent
	topo := s.topo
	ids := s.net.ids
	live, spare := s.live, s.liveSpare
	sent, states := s.sent, s.states
	hasState := s.hasState
	inCol, iw, outCol, ow := s.inCol, s.iw, s.outCol, s.ow
	// Every inbox of the round shares the previous parity's descriptor;
	// only the slot table is per node, so concurrent chunks never write
	// shared state.
	in := WordInbox{col: &s.cols[1-par]}
	nd := &c.Node
	for i := lo; i < hi; i++ {
		v := live[i]
		b := topo.base[v]
		ports := topo.ports[v]
		deg := len(ports)
		nd.vertex, nd.id, nd.ports = v, ids[v], ports
		nd.wout = words[b*w : (b+deg)*w : (b+deg)*w]
		nd.wmark = flags[b : b+deg : b+deg]
		clear(nd.wmark)
		nd.win = colView(inCol, iw, v, b, deg)
		nd.wob = colView(outCol, ow, v, b, deg)
		if hasState {
			nd.State = states[v]
		}
		if r == 0 {
			s.algo.InitWords(nd)
		} else {
			in.slots = topo.inSlots[b : b+deg : b+deg]
			s.algo.StepWords(nd, in)
		}
		sent[v] += nd.sent
		nd.sent = 0
		if hasState || nd.State != nil {
			states[v] = nd.State
			nd.State = nil
			c.stored = true
		}
		if nd.halted {
			nd.halted = false
			spare[lo+c.halts] = v
			c.halts++
		} else {
			live[lo+c.kept] = v
			c.kept++
		}
	}
}

// joinChunks ends a round's halt collection: the previous round's halting
// sends are delivered, so it flushes their flags, then concatenates the
// chunks' kept vertices into the live list, in order, and queues their
// halted vertices for the next flush.
func (s *simulation) joinChunks() {
	s.flushHaltClears()
	cuts, curs := s.rs.cuts, s.rs.cursors
	k := 0
	for c := range curs {
		cur := &curs[c]
		lo := cuts[c]
		k += copy(s.live[k:], s.live[lo:lo+cur.kept])
		s.clearQ = append(s.clearQ, s.liveSpare[lo:lo+cur.halts]...)
		s.hasState = s.hasState || cur.stored
	}
	s.live = s.live[:k]
}
