//! Pipeline parsing, parallelization planning, and execution.
//!
//! This crate implements the KumQuat workflow of Figure 2: parse a shell
//! script into pipelines ([`parse`]), synthesize a combiner per stage and
//! decide which stages parallelize ([`plan`] — including the Theorem 5
//! intermediate-combiner elimination and the §2 rerun-cost heuristic),
//! execute on one work-stealing dataflow pool ([`scheduler`]), serially,
//! or with the paper's static `w`-way data parallelism ([`exec`]), and
//! compute the virtual wall-clock times the paper's performance tables
//! report ([`sim`] — a measured-cost scheduler replaying per-piece
//! durations, the honest substitute for the paper's 80-core testbed on a
//! single-core host; see DESIGN.md).
//!
//! # The zero-copy data plane
//!
//! All executors move stream payloads as [`kq_stream::Bytes`] — refcounted
//! slices of shared buffers — rather than owned `String`s:
//!
//! * input gathering reads the virtual filesystem by refcount bump
//!   (multi-file inputs gather through a [`kq_stream::Rope`], one memcpy
//!   total);
//! * splitting a stage input into `w` substreams ([`exec::run_parallel`])
//!   or into line-aligned chunks ([`scheduler::run_dataflow`]) allocates
//!   O(pieces): each piece is a slice of the parent buffer, and worker
//!   threads receive it as an `Arc` clone;
//! * a stage whose combiner is eliminated (Theorem 5) forwards its
//!   substream *vector* to the next stage with zero copies;
//! * k-way `concat` combining gathers segments with at most one memcpy,
//!   and `> file` redirection stores the shared slice directly.
//!
//! Commands still allocate their own transformed output once (that's the
//! command's job); what the data plane eliminates is every copy *between*
//! stages. `crates/bench/benches/bytes_dataplane.rs` measures the
//! difference against the legacy copy-per-piece path.
//!
//! # The executor matrix
//!
//! Three executors share the data plane and produce byte-identical output
//! (asserted across the whole corpus by
//! `tests/executor_differential.rs`, `tests/dataflow_differential.rs` and
//! the seeded pipeline fuzzer `tests/exec_fuzz.rs`); each has one job:
//!
//! | executor | parallelism | barriers | role |
//! |---|---|---|---|
//! | [`scheduler::run_dataflow`] | one work-stealing pool of `w` threads for the *whole script* | only where a stage truly needs its whole input | production (the CLI default): every statement's [`dataflow`] graph shares the same fixed pool, chunk-local stages (`grep`/`tr`/`cut`) flow chunks onward immediately, barrier stages (`sort`, `uniq -c`) fold their combiner *while upstream still computes*, independent statements overlap, early exit tears down queued upstream work, and barrier folds can spill |
//! | [`exec::run_serial`] | none | every stage | the correctness oracle every parallel run is checked against |
//! | [`exec::run_parallel`] | `w` static pieces per stage | every stage with a combiner | the paper's executor; [`sim`] and [`dist`] replay its per-piece timings for the paper's tables |
//!
//! The dataflow executor classifies each planned stage (chunk-local,
//! barrier, sequential, or prefix-bounded) as a graph node
//! ([`dataflow::NodeKind::for_stage`]) and executes the graph with the
//! shared scheduler ([`scheduler`]).
//! `crates/bench/benches/dataflow_exec.rs` measures it against serial on
//! a multi-statement script.
//!
//! # Fold finalization protocol
//!
//! The dataflow executor folds barrier-stage outputs incrementally and
//! must answer one question without a central coordinator: *who runs
//! `finish()` when the last piece lands?* No thread owns a fold: any pool
//! worker may integrate a fold's chunk, so finalization is a *claim*: a
//! task that observes `input closed && inflight == 0 && queue empty`
//! flips the node's phase to `Running` under the node lock and runs the
//! finish outside it. A combine fold that no chunk reached (empty input, or an
//! upstream `grep` that kept nothing) first folds in the command's output
//! on the empty stream, since the combine of zero pieces is empty but
//! `wc -l` on nothing prints `0`.
//!
//! The protocol's invariant: **every task that pops a chunk or observes
//! the closed edge re-evaluates the finalization condition after
//! integrating its own work** — unconditionally, not only on the path
//! that "should" be last. The condition is stable once true, so the extra
//! checks are idempotent; skipping one is how the lost-finalization race
//! happened (a task popped the final chunk, saw *its own* inflight claim
//! still counted, and only rescheduled upstream, while the concurrent
//! observer of the closed edge had already bailed on the nonzero
//! inflight — nobody checked again, and the run hung with the pool
//! idle). `tests/fold_finalize_stress.rs` hammers the window at both
//! gather and combine folds under tiny chunks and a shallow queue.
//!
//! # Spill lifecycle (bounded-memory barrier folds)
//!
//! A merge-combiner fold normally keeps every sorted run on the heap
//! until the final k-way merge, so a big `sort`'s peak memory is O(input).
//! Under a [`kq_dsl::SpillPolicy`] (CLI `--spill-mb`, carried by
//! [`DataflowOptions::spill`]) each barrier
//! stage derives a per-stage [`kq_dsl::SpillConfig`] and the fold spills:
//!
//! 1. runs accumulate on the heap only while their total stays within
//!    the budget; past it, each completed run is written to a temp file
//!    (`kq_io::RunWriter`) and **immediately mapped back and unlinked** —
//!    the inode survives while mapped, so cleanup is structural on every
//!    exit path (success, error, cancellation, even SIGKILL once the
//!    process dies);
//! 2. `finish()` then streams the k-way merge of the mapped runs through
//!    a bounded fragment sink into one output run file, releasing each
//!    run's consumed pages as the merge frontier passes them
//!    ([`kq_stream::ReleaseCursor`]), and maps that output back the same
//!    way — so neither the runs nor the merged result are ever fully
//!    heap-resident;
//! 3. the executor snapshots the stage's [`kq_dsl::SpillMetrics`] into
//!    [`StageTiming::spill`] ([`exec::SpillTelemetry`]), which the CLI
//!    reports as `spill: ...` notes.
//!
//! `tests/spill_differential.rs` pins byte-identity with the serial
//! oracle under a one-byte budget (every run spills), plus the
//! no-leftover-files property across success, failure, and
//! early-exit teardowns; `crates/bench/benches/spill_fold.rs` records
//! peak RSS for a 256 MiB sort with and without a budget
//! (`BENCH_spill.json`).
//!
//! # The adaptive control loop
//!
//! The dataflow executor can run two of its knobs closed-loop
//! ([`scheduler::ChunkSizing::Auto`] / [`scheduler::QueueCredit::Auto`],
//! CLI `--chunk-kb auto` / `--queue-depth auto` under the default
//! `--exec dataflow`):
//!
//! * **Adaptive chunk sizing.** Each statement's base chunk target is
//!   derived from its input size and the worker count when the statement
//!   starts (≈8 chunks per worker, clamped to [128 KiB, 8 MiB]), and
//!   producers feeding a combine fold *coarsen* geometrically as they cut
//!   — doubling the target every 8 chunks, up to 6 doublings. The first
//!   wave of small chunks gets every worker busy; later, larger chunks
//!   amortize per-chunk overhead and shrink the fold's merge frontier
//!   (fewer, bigger sorted runs to k-way merge).
//! * **Queue-credit rebalancing.** Edges start at the default credit and
//!   a controller tick — piggybacked on the worker loop between tasks, no
//!   extra thread — samples per-edge gate/starve event deltas and moves
//!   one chunk of credit per tick from the most starved edge to the most
//!   gated one (floor 1, cap 8× the seed).
//! * **Spill-aware run sizing.** Under a spill budget a merge fold
//!   accumulates incoming pieces until a quarter of the budget before
//!   sorting/spilling a run ([`kq_dsl` `kway`]), so run count tracks the
//!   budget rather than the chunk count.
//!
//! The invariant that makes all three safe: **adaptation moves chunk
//! boundaries and scheduling, never bytes**. Chunk targets are pure
//! functions of (statement base, chunks already cut) — independent of
//! timing, credit, and worker interleaving — and reorder buffers already
//! make every node's output order-deterministic, so serial byte-equality
//! holds with the knobs on; `tests/dataflow_differential.rs` sweeps the
//! corpus with both knobs on at several worker counts. Decisions are
//! traced (`adaptive` instants) and summarized in
//! [`TimingLog::adaptive`](exec::AdaptiveTelemetry);
//! `crates/bench/benches/adaptive_exec.rs` measures auto against static
//! configurations (`BENCH_adaptive.json`).
//!
//! # The trace plane
//!
//! Every executor is instrumented through [`kq_trace`]: node-task spans
//! (`dataflow`/`static`/`serial` categories), graph
//! structure metas, and per-node counters (bytes in/out, tasks,
//! max-queued, send/recv stall time). Instrumentation is off unless a
//! `kq_trace::TraceSession` is live — a disabled probe is one relaxed
//! atomic load, so the executors' hot loops carry no tracing cost on
//! normal runs (`crates/bench/benches/trace_overhead.rs` guards this).
//! Span identity is `(kind, cat, name, si, ni, seq, label)`: `si` the
//! statement index, `ni` the dataflow node / stage index, `seq` the chunk
//! ordinal. Chunk cuts are deterministic for a given input and chunk
//! size, so the identity multiset is stable across runs and worker counts
//! (absent early-exit cancellation) — `tests/trace_plane.rs` pins that
//! contract, plus graph coverage: every node of every statement's graph
//! appears with at least one task span. The CLI exports sessions via
//! `--trace-out` (JSONL + a Chrome `trace_event` file for Perfetto) and
//! summarizes them with `kumquat trace report` (per-node busy time and
//! the critical path).

//! ```
//! use kq_pipeline::exec::{run_parallel, run_serial};
//! use kq_pipeline::parse::parse_script;
//! use kq_pipeline::plan::Planner;
//! use kq_coreutils::ExecContext;
//! use kq_synth::SynthesisConfig;
//!
//! let script = parse_script("cat /in | sort | uniq -c", &Default::default()).unwrap();
//! let ctx = ExecContext::default();
//! ctx.vfs.write("/in", "b\na\nb\n".repeat(40));
//! let mut planner = Planner::new(SynthesisConfig::default());
//! let plan = planner.plan(&script, &ctx, "b\na\nb\n");
//! let serial = run_serial(&script, &ctx).unwrap();
//! let parallel = run_parallel(&script, &plan, &ctx, 4, true).unwrap();
//! assert_eq!(parallel.output, serial.output);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dataflow;
pub mod dist;
pub mod exec;
pub mod lattice;
pub mod parse;
pub mod plan;
pub mod scheduler;
pub mod sim;

pub use cache::{cache_key, CacheStats, CombinerCache};
pub use dataflow::{DataflowGraph, DataflowNode, FoldMode, NodeKind};
pub use exec::{
    AdaptiveTelemetry, EarlyExit, ExecutionResult, QueueTelemetry, SpillTelemetry, StageTiming,
    TimingLog,
};
pub use lattice::{classify, EffectClass, EffectSet};
pub use parse::{InputSource, ParseError, Script, SourceSpan, Stage, Statement};
pub use plan::{PlannedScript, PlannedStage, Planner, StageMode};
pub use scheduler::{
    run_dataflow, ChunkSizing, DataflowOptions, QueueCredit, DEFAULT_CHUNK_BYTES,
    DEFAULT_QUEUE_DEPTH,
};
pub use sim::{PipelineCosts, SimParams};
