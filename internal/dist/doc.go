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
// their own Node, so the engine may execute each round on a worker pool
// without affecting results.
//
// Cost accounting follows the paper: Result reports the number of
// communication rounds (the LOCAL measure) and messages sent; Tally
// accumulates both across the phases of a multi-stage pipeline.
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
// # Sessions and parallelism
//
// A Network owns a persistent session (session.go) living as long as the
// Network itself and shared by all WithWorkers/WithProbe/WithContext
// views of it:
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
//   - Run scratch. The mutable per-run state (node array, halt marks,
//     live list, message columns, the word output column) is pooled:
//     a repeated unfiltered run performs no setup allocations at all (a
//     regression test pins this). Concurrent runs on one
//     network are safe - whoever finds the pool busy falls back to
//     fresh allocations - but the Result.OutputWords reclamation
//     contract (wordio.go) still requires the caller to decode an output
//     column before STARTING the next run on that network.
//   - Session values. Algorithm layers pin small cross-run state on the
//     session through Network.SessionValue, keyed by unexported types -
//     e.g. recolor's per-(step, family) hot-row cache of resolved
//     row-table snapshots. Ownership contract: a value lives as long as
//     the Network, is shared by WithWorkers/WithProbe/WithContext
//     views (a Sharded view starts a fresh session and therefore a
//     fresh value store), and must be safe for concurrent use by
//     overlapping runs. Invalidation is the owning layer's concern; the
//     hot-row cache needs none, because its snapshots only ever advance
//     to larger prefixes of the same monotone (append-only) tables, so
//     a stale entry is never wrong, only smaller.
//
// Rounds, engine setup/collection sweeps, and the orchestrator helpers
// (Network.PortColumn, ParallelFor) fan out over a worker pool paced by
// RunOptions.Workers / Network.WithWorkers: 0 means the auto heuristic
// (GOMAXPROCS, gated by participant count), an explicit count always
// fans out exactly that wide. Nodes touch only their own state and
// delivery reads only previous-round data, so results are bit-for-bit
// identical at every worker count - the speedup sweeps in CI assert
// exactly that.
//
// # Sharded execution
//
// Network.Sharded(sh) returns a view running the shard-structured
// engine: the vertex space is partitioned into graph.Sharding's
// contiguous shards and the message columns become shard-local
// (shard.go). Ownership and delivery contract:
//
//   - Column ownership is by SENDER shard: the word a vertex u sends on
//     a port lives in the column of u's shard, at the shard-local slot
//     base[u] - slotCuts[shard(u)] + rank. A step writes only its own
//     vertex's slots in its own shard's column, so shard segments can
//     step concurrently without sharing cache lines across shards.
//   - Cross-shard delivery is by boundary table: for each visible port
//     the topology stores the shard-local slot plus a one-byte sending-
//     shard index (inShard), and a receiver resolves a word by indexing
//     the sender shard's previous-parity column directly. There is no
//     copy step - "exchange" between shards is the read itself, which
//     touches only previous-round columns.
//   - Previous-parity columns are immutable during a step (the same
//     double-buffered round-parity rule as the flat transport), which
//     is what makes the cross-shard read safe under any worker count.
//   - Sharding is observationally inert: colors, rounds and message
//     counts are bit-for-bit identical at every shard count (golden
//     tests pin this); only WHERE a message word lives changes.
//     Probed sharded runs additionally record per-shard live counts,
//     message counts and step wall time per round (ShardRoundStat).
//
// A Sharded view gets a fresh session, so one session never caches two
// shard layouts; count 1 (or a zero Sharding) normalizes to the flat
// engine. The streaming loader graph.OpenBinaryShards pairs with this:
// it materializes the CSR per shard so peak load memory is bounded by
// one shard's adjacency instead of the whole edge list.
//
// # Observability
//
// A Probe (probe.go) streams one RoundRecord per communication round
// and one RunRecord per engine run to a ProbeSink, for round-level
// tracing without touching results. Lifetime and ownership rules:
//
//   - Construct with NewProbe(sink), attach with Network.WithProbe
//     (a view, like WithWorkers/WithContext), label upcoming runs
//     with Probe.SetPhase, and Close the probe after the last run -
//     Close flushes buffered records and stops the flusher; writing
//     sinks (obs.TraceWriter) are closed after the probe.
//   - Sink callbacks receive slices that the probe reuses after the
//     callback returns; a sink that retains records must copy them.
//     Callbacks run off the round loop (a background flusher drains
//     a chunked ring), so a slow sink back-pressures the flusher, not
//     the simulation.
//   - Probes are purely observational: a probed run produces
//     bit-for-bit identical colors, rounds and messages, and every
//     record field except the wall-clock timings (WallNS, chunk
//     times, SetupNS/ComputeNS) is deterministic across worker
//     counts. A nil or absent probe costs the round loop one nil
//     check (BenchmarkRunProbeOff/On pins this).
//   - Records only cover rounds 1..Result.Rounds; Init's messages
//     fold into the first round's record, and a run that halts at
//     Init emits a RunRecord but no RoundRecords.
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
//   - Cancellation and deadlines. RunOptions.Context is polled (ctx.Err,
//     exactly once) at each round boundary; RunOptions.WallBudget bounds
//     the run's wall time the same way and composes with any context
//     deadline (whichever expires first wins). An aborted run returns a
//     non-nil partial Result (rounds completed, messages so far, outputs
//     as of the boundary) with an error wrapping ErrCanceled or
//     ErrDeadline. Network.WithContext attaches a context as a view, so
//     orchestrator pipelines inherit it across phases. The unprobed fast
//     path pays one nil check when no context is set (the probe-overhead
//     benchmark gates this).
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
//     and they are portable across shard counts: columns are normalized
//     to the flat global slot layout on capture and re-localized on
//     resume. A Snapshot is owned by the caller; the engine never retains
//     it after Resume.
//
// The deterministic fault-injection matrix over these guarantees lives in
// internal/chaos: seeded panics at chosen (vertex, round) steps, cancels
// at chosen boundaries, expired deadlines, failing and slow probe sinks,
// and snapshot truncation, each injected into the paper's real pipelines.
//
// # Static-analysis annotations
//
// The invariants above are machine-checked by the distvet suite
// (internal/analysis/distvet, run by cmd/distvet and the CI lint job).
// Engine code declares its sanctioned exceptions in source with
// //distvet: directives:
//
//   - //distvet:wallclock <why> - on a site line or in a function's doc
//     comment: a sanctioned wall-clock read. Only the probe/tally
//     timing paths and the Result.Wall/SetupNS attribution qualify;
//     everything those reads feed is documented non-deterministic.
//   - //distvet:noalloc - in a function's doc comment: the function is
//     on the per-vertex hot path and must contain no allocating
//     constructs. The round loops (stepSlice and its sharded twin,
//     flushHaltClears), the word-column Node accessors, and every
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
