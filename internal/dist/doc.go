// Package dist is a deterministic simulator for the synchronous LOCAL
// model of distributed computing, the model in which the paper states
// every running-time bound.
//
// An Algorithm is a vertex program in the Pregel style: InitWords runs
// once on every node (round 0), then StepWords runs once per node per
// round until every node has called Halt. Messages sent in round r
// (including from InitWords) are delivered at the start of round r+1, one
// inbox slot per port; WordInbox.Has reports whether the neighbor on a
// port sent anything that round. Ports are positions in the node's list
// of visible neighbors, which is the full sorted adjacency list of the
// underlying graph unless RunOptions.Labels/Active restrict the run to
// label-induced subgraphs or an active subset - the mechanism by which
// the paper's procedures recurse "on all subgraphs in parallel" within a
// single simulated network.
//
// Nodes are identified by LOCAL-model identifiers id(v) in {1..n}, either
// canonical (NewNetwork) or randomly permuted (NewNetworkPermuted) to
// stress identifier-dependent symmetry breaking. For a fixed rng seed the
// whole simulation is bit-for-bit deterministic: node steps touch only
// their own column slots, through the chunk's cursor, so the engine may
// execute each round on a worker pool without affecting results.
//
// Cost accounting follows the paper: Result reports the number of
// communication rounds (the LOCAL measure) and messages sent; Tally
// accumulates both across the phases of a multi-stage pipeline. A phase
// is a Network.WithPhase view: the engine charges every run on it, so no
// orchestrator copies a Result into a tally (tally.go).
//
// # Data plane
//
// Every value the engine moves is a fixed number of int64 words. Each
// message in the paper's algorithms carries one O(log n)-bit value - a
// color, an H-partition level, an identifier - so an Algorithm declares
// its message width (MessageWords) and its per-vertex input and output
// widths (InputWidth/OutputWidth, or one word per visible port), and the
// engine moves all three through flat []int64 columns: messages through
// two round-parity columns indexed by the port tables (batch.go), inputs
// and outputs through RunOptions.InputWords and Result.OutputWords (see
// wordio.go for the layout and ownership contract). A Run boxes nothing
// per vertex. Vertex programs report input or palette errors through
// Node.Fail, which aborts the run with a deterministic per-run error.
// Node.State is the one program-owned slot outside the columns, for
// state that is not a word (a randomized program's rand.Rand).
//
// The engine keeps no Node per vertex: each step chunk re-points one
// cursor at every vertex it steps, and the step's sends and State land in
// per-vertex run-scratch columns. A *Node, and every slice it hands out,
// is valid only during the InitWords/StepWords call it is passed to
// (distvet's wordio rule reports a program that keeps one).
//
// StepWords runs once per live vertex per round, the engine's hottest
// call, so nothing is copied into it: the WordInbox is a four-word view
// (a pointer to the previous parity's column descriptor plus the node's
// slot table), and a program wider than four words implements
// InitWords/StepWords on a pointer receiver (reduce.Algo, recolor.Algo).
// With the *Node, the call then fits the nine integer argument
// registers of the amd64 ABI; distvet's wordio rule keeps it there.
//
// # Sessions and parallelism
//
// A Network owns a persistent session (session.go) living as long as the
// Network itself and shared by all WithWorkers/WithProbe/WithContext/
// WithPhase views of it:
//
//   - Topology caches. The simulation wiring that depends only on the
//     (graph, Labels, Active) triple - visible port lists, live set,
//     columnar slot bases, the delivery-slot table - is built once, in
//     parallel, and reused by every later run with the same filters.
//     The unfiltered topology (including filters equivalent to none:
//     uniform labels, all-true active) is cached unconditionally;
//     filtered topologies live in a small content-keyed LRU, sized for
//     orchestrators that revisit one filter a few runs apart. Cached
//     tables are immutable and engine-owned; callers never see them.
//   - Run scratch. The mutable per-run state (live list and its spare,
//     send counters, the State column, step cursors, message columns,
//     the word output column) is pooled:
//     a repeated unfiltered run performs no setup allocations at all (a
//     regression test pins this). Concurrent runs on one
//     network are safe - whoever finds the pool busy falls back to
//     fresh allocations - but the Result.OutputWords reclamation
//     contract (wordio.go) still requires the caller to decode an output
//     column before STARTING the next run on that network.
//
// Rounds, engine setup sweeps, and the orchestrators' sweeps
// (Network.ParallelFor) fan out over one worker pool, paced by one knob:
// the Network.WithWorkers view. Its default 0 means the auto heuristic
// (GOMAXPROCS, gated by participant count); a pinned count always fans
// out exactly that wide. Node steps touch only their own column slots,
// through the chunk's cursor, and delivery reads only previous-round
// data, so results are bit-for-bit identical at every worker count - the
// speedup sweeps in CI assert exactly that.
//
// # Sharded execution
//
// Network.Sharded(sh) returns a view carrying a partition of the vertex
// space into graph.Sharding's contiguous shards (shard.go). The view
// runs on the same round loop and the same global message columns as
// every other view - a sharding never changes where a message word
// lives. What it does:
//
//   - Per-shard telemetry. Probed runs record per-shard live counts,
//     message counts and step wall time per round (ShardRoundStat),
//     and RunRecord.Shards carries the shard count.
//   - Chunking of probed steps. A probed sharded round is stepped along
//     the shard segments of the ascending live list (one timed chunk
//     per shard), on at most the run's worker count of goroutines.
//     Unprobed rounds split evenly over the workers, sharded or not.
//   - Streaming loads. The view gets a fresh session, so shard sweeps
//     measure cold caches at every point, and graph.OpenBinaryShards
//     pairs with it: it materializes the CSR per shard, so peak load
//     memory is bounded by one shard's adjacency instead of the whole
//     edge list.
//
// Sharding is observationally inert: colors, rounds and message counts
// are bit-for-bit identical at every shard count (golden tests pin
// this). Count 1 (or a zero Sharding) carries no per-shard telemetry.
//
// # Observability
//
// A Probe (probe.go) streams one RoundRecord per communication round
// and one RunRecord per engine run to a ProbeSink, for round-level
// tracing without touching results. Lifetime and ownership rules:
//
//   - Construct with NewProbe(sink), attach with Network.WithProbe
//     (a view, like WithWorkers/WithContext), and Close the probe after
//     the last run - Close flushes buffered records and stops the
//     flusher; writing sinks (obs.TraceWriter) are closed after the
//     probe. A run's RunRecord.Phase is its view's phase path
//     (WithPhase), so pipelines sharing one probe never label each
//     other's runs.
//   - Sink callbacks receive slices that the probe reuses after the
//     callback returns; a sink that retains records must copy them.
//     Callbacks run off the round loop (a background flusher drains
//     a chunked ring), so a slow sink back-pressures the flusher, not
//     the simulation.
//   - Probes are purely observational: a probed run produces
//     bit-for-bit identical colors, rounds and messages, and every
//     record field except the wall-clock timings (WallNS, chunk
//     times, SetupNS/ComputeNS) is deterministic across worker
//     counts. Probed and unprobed runs share one round loop; without
//     a probe its tracer hooks cost one nil check each per round and
//     nothing per vertex (BenchmarkRunProbeOff/On pins this).
//   - Records only cover rounds 1..Result.Rounds; Init's messages
//     fold into the first round's record, and a run that halts at
//     Init emits a RunRecord but no RoundRecords. A run that stops
//     early - abort, failure, exhausted round budget - records its
//     partial Result, so its round records still sum to its run
//     record.
//
// RunRecords also expose the session telemetry above (TopoCached,
// ScratchPooled, setup vs. compute time), which is how cache behavior
// is asserted in tests and surfaced in traces.
//
// # Run control: cancellation, deadlines, panic containment, snapshots
//
// Every abort the engine performs lands on a round boundary - after the
// current round's steps, delivery bookkeeping and halt flushes have
// completed, never mid-round. That single invariant is what makes the
// rest of the contract cheap to state:
//
//   - Cancellation and deadlines. A context comes only through the
//     Network.WithContext view, so orchestrator pipelines inherit it
//     across phases; a wall budget is a context deadline. The engine
//     polls it (ctx.Err, exactly once) at each round boundary. An
//     aborted run returns a non-nil partial Result (rounds completed,
//     messages so far, outputs as of the boundary) with an error
//     wrapping ErrCanceled or ErrDeadline. The unprobed fast path pays
//     one nil check when no context is set (the probe-overhead benchmark
//     gates this).
//   - Panic containment. A panic raised by a vertex program during
//     InitWords/StepWords (any worker count, sharded or flat) is
//     recovered by the engine and converted to the deterministic Node.Fail
//     path: the run aborts at the end of the round with an error wrapping
//     ErrVertexPanic that names the smallest panicking vertex, its round,
//     phase and the recovered value. Worker goroutines never die; the
//     session stays reusable.
//   - Session safety. After ANY abort - cancel, deadline, contained panic,
//     Node.Fail - the same Network's next run is bit-for-bit identical to
//     a fresh network's (the pooled scratch is re-prepared, and message
//     flags follow the same parity discipline as normal completion). The
//     cancel-at-every-round and chaos matrices assert this under -race.
//   - Snapshots. RunOptions.SnapshotOnAbort captures a Snapshot in the
//     partial Result at the abort boundary; Network.Resume(alg, opts, sn)
//     continues it to an end state bit-for-bit identical to the
//     uninterrupted run. Snapshots are only offered for runs whose state
//     lives entirely in the engine's columns (Node.State unset - the
//     capture verifies this and refuses otherwise), they serialize to a versioned binary framing (WriteTo /
//     ReadSnapshot, "DSN1") that rejects truncation and trailing bytes,
//     and they are portable across shard counts, since every view uses
//     the same global slot layout. A Snapshot is owned by the caller;
//     the engine never retains it after Resume.
//
// The deterministic fault-injection matrix over these guarantees lives in
// internal/chaos: seeded panics at chosen (vertex, round) steps, cancels
// at chosen boundaries, expired deadlines, failing and slow probe sinks,
// and snapshot truncation, each injected into the paper's real pipelines.
//
// # Static-analysis annotations
//
// The invariants above are machine-checked by the distvet suite
// (internal/analysis/distvet, run by cmd/distvet and the CI lint job):
// determinism, hotalloc, failpath and wordio. wordio needs no
// directives: it requires constant message/input/output widths, checks
// the width-bound Node calls against them, reports any
// InitWords/StepWords value receiver wider than four words (32 B on
// amd64: nine integer registers minus the *Node and the 4-word inbox),
// and reports an InitWords/StepWords body that keeps its *Node past the
// call (a store into a field, package variable, slice or map element or
// Node.State, a channel send, a go statement).
// Engine code declares its sanctioned exceptions in source with
// //distvet: directives:
//
//   - //distvet:wallclock <why> - on a site line or in a function's doc
//     comment: a sanctioned wall-clock read. Only the probe timing
//     paths and the Result.Wall/SetupNS attribution (which phase views
//     charge to their tallies) qualify; everything those reads feed is
//     documented non-deterministic.
//   - //distvet:noalloc - in a function's doc comment: the function is
//     on the per-vertex hot path and must contain no allocating
//     constructs. The step loop (stepSlice, stepSliceGuarded) and
//     flushHaltClears, the word-column Node accessors, and every
//     InitWords/StepWords implementation carry it. cmd/escapecheck
//     additionally pins the compiler's escape picture of these
//     functions against ESCAPES.baseline.
//   - //distvet:alloc-ok <why> - on a site line inside a noalloc
//     function: a justified allocation, in practice only the amortized
//     one-time growth of pooled scratch buffers.
//   - //distvet:unordered <why> - on a map-range line in an engine
//     package: the iteration is provably order-free (e.g. the result is
//     sorted before anything observes it).
//
// Site directives attach to their own line or the line directly above;
// every directive except noalloc requires a justification text, and a
// missing justification is itself a diagnostic - `git grep distvet:`
// therefore audits the complete exception list with reasons.
package dist
