//! The per-layer replay: each statement's dataflow graph executed on one
//! thread through the layers' public functions, with a `bench` span
//! around every call.
//!
//! | node | calls | spans |
//! |---|---|---|
//! | split, and every re-chunking point | `Bytes::split_chunks`, `IncrementalChunker` | `split` |
//! | stage worker | `Command::run` per chunk, per stage | `map` |
//! | combine fold | `Command::run` per chunk, then `IncrementalCombine::push` / `finish` | `map`, `fold.push`, `fold.finish` |
//! | gather fold | `Command::run` once on the gathered input | `map` |
//! | bounded consumer | pulls chunks only until its line bound is met, then `Command::run` once | `map` |
//!
//! Chunks move lazily, as in the scheduler, so a bounded consumer stops
//! upstream work once satisfied. The replay's output must equal the serial
//! oracle's, which checks that it did the work the run does.

use kq_coreutils::{Command, ExecContext};
use kq_dsl::eval::CommandEnv;
use kq_dsl::SpillPolicy;
use kq_pipeline::dataflow::DataflowGraph;
use kq_pipeline::parse::InputSource;
use kq_pipeline::{FoldMode, NodeKind, PlannedScript, Script, StageMode, DEFAULT_CHUNK_BYTES};
use kq_stream::{Bytes, IncrementalChunker, Rope};
use std::collections::VecDeque;

/// Work counts the replay observed (the times are in its spans).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Chunks cut by splits and re-chunking points.
    pub split_chunks: u64,
    /// Bytes fed to `Command::run`.
    pub map_bytes_in: u64,
    /// Bytes `Command::run` returned.
    pub map_bytes_out: u64,
    /// Pieces pushed into combine folds.
    pub fold_runs: u64,
}

/// Replays `script` under `plan` against `ctx` (redirect targets are
/// written into it) and returns the script's standard output.
pub fn replay(
    script: &Script,
    plan: &PlannedScript,
    ctx: &ExecContext,
    spill: Option<&SpillPolicy>,
    counts: &mut Counts,
) -> Result<Bytes, String> {
    let mut stdout = Rope::new();
    for (statement, planned) in script.statements.iter().zip(&plan.statements) {
        let input = match &statement.input {
            InputSource::None => Bytes::new(),
            InputSource::Files(files) => {
                let mut rope = Rope::new();
                for f in files {
                    rope.push(
                        ctx.vfs
                            .read_bytes(f)
                            .ok_or_else(|| format!("{f}: no such file"))?,
                    );
                }
                rope.into_bytes()
            }
        };
        let output = if statement.stages.is_empty() {
            input
        } else {
            let graph = DataflowGraph::build(planned, true);
            let mut stream = Puller::Chunks(split(input, counts).into());
            for node in graph.nodes.iter().skip(1) {
                let chain: Vec<&Command> = node
                    .stages
                    .clone()
                    .map(|i| &statement.stages[i].command)
                    .collect();
                stream = match node.kind {
                    NodeKind::Split => unreachable!("only node 0 splits"),
                    NodeKind::StageWorker => Puller::Worker {
                        up: Box::new(stream),
                        chain,
                        chunker: Some(IncrementalChunker::new(DEFAULT_CHUNK_BYTES)),
                        eager: node.eager_flush,
                        ready: VecDeque::new(),
                    },
                    NodeKind::Fold {
                        mode: FoldMode::Combine,
                    } => {
                        let StageMode::Parallel { combiner, .. } =
                            &planned.stages[node.stages.start].mode
                        else {
                            return Err("combine fold on a sequential stage".into());
                        };
                        let env = CommandEnv {
                            command: chain[0],
                            ctx,
                        };
                        let mut fold =
                            combiner.incremental_with_spill(&env, spill.map(|p| p.stage_config()));
                        while let Some(chunk) = stream.next(ctx, counts)? {
                            let piece = run_chain(&chain, chunk, ctx, counts)?;
                            if !piece.is_empty() {
                                counts.fold_runs += 1;
                            }
                            let span = kq_trace::span("bench", "fold.push");
                            fold.push(piece);
                            span.done();
                        }
                        let span = kq_trace::span("bench", "fold.finish");
                        let combined = fold.finish().map_err(|e| e.to_string())?;
                        span.done();
                        Puller::Chunks(split(combined, counts).into())
                    }
                    NodeKind::Fold {
                        mode: FoldMode::Gather,
                    } => {
                        let mut rope = Rope::new();
                        while let Some(chunk) = stream.next(ctx, counts)? {
                            rope.push(chunk);
                        }
                        let out = run_chain(&chain, rope.into_bytes(), ctx, counts)?;
                        Puller::Chunks(split(out, counts).into())
                    }
                    NodeKind::BoundedConsumer { lines } => {
                        let mut rope = Rope::new();
                        let mut seen = 0;
                        while seen < lines {
                            let Some(chunk) = stream.next(ctx, counts)? else {
                                break;
                            };
                            seen += chunk.count_newlines();
                            rope.push(chunk);
                        }
                        let out = run_chain(&chain, rope.into_bytes(), ctx, counts)?;
                        Puller::Chunks(split(out, counts).into())
                    }
                };
            }
            let mut rope = Rope::new();
            while let Some(chunk) = stream.next(ctx, counts)? {
                rope.push(chunk);
            }
            rope.into_bytes()
        };
        match &statement.output {
            Some(target) => ctx.vfs.write(target.clone(), output),
            None => stdout.push(output),
        }
    }
    Ok(stdout.into_bytes())
}

/// A lazily pulled chunk stream.
enum Puller<'a> {
    /// Materialized chunks (a split, or a barrier's re-chunked output).
    Chunks(VecDeque<Bytes>),
    /// A fused chain of chunk-local stages, re-chunked like the
    /// scheduler's stage workers.
    Worker {
        up: Box<Puller<'a>>,
        chain: Vec<&'a Command>,
        /// `None` once upstream ended and the tail was flushed.
        chunker: Option<IncrementalChunker>,
        /// Ship complete lines at once (a bounded consumer is downstream).
        eager: bool,
        ready: VecDeque<Bytes>,
    },
}

impl Puller<'_> {
    fn next(&mut self, ctx: &ExecContext, counts: &mut Counts) -> Result<Option<Bytes>, String> {
        match self {
            Puller::Chunks(chunks) => Ok(chunks.pop_front()),
            Puller::Worker {
                up,
                chain,
                chunker,
                eager,
                ready,
            } => loop {
                if let Some(chunk) = ready.pop_front() {
                    return Ok(Some(chunk));
                }
                let Some(active) = chunker.as_mut() else {
                    return Ok(None);
                };
                match up.next(ctx, counts)? {
                    Some(chunk) => {
                        let out = run_chain(chain, chunk, ctx, counts)?;
                        let span = kq_trace::span("bench", "split");
                        ready.extend(active.push(out));
                        if *eager {
                            ready.extend(active.flush_pending());
                        }
                        span.done();
                        counts.split_chunks += ready.len() as u64;
                    }
                    None => {
                        let span = kq_trace::span("bench", "split");
                        ready.extend(chunker.take().expect("checked above").finish());
                        span.done();
                        counts.split_chunks += ready.len() as u64;
                    }
                }
            },
        }
    }
}

/// Cuts `data` into line-aligned chunks of the scheduler's default size.
fn split(data: Bytes, counts: &mut Counts) -> Vec<Bytes> {
    if data.is_empty() {
        return Vec::new();
    }
    let span = kq_trace::span("bench", "split");
    let chunks = data.split_chunks(DEFAULT_CHUNK_BYTES);
    span.done();
    counts.split_chunks += chunks.len() as u64;
    chunks
}

/// Pipes one chunk through `chain`, one `map` span per command.
fn run_chain(
    chain: &[&Command],
    mut data: Bytes,
    ctx: &ExecContext,
    counts: &mut Counts,
) -> Result<Bytes, String> {
    for command in chain {
        counts.map_bytes_in += data.len() as u64;
        let span = kq_trace::span("bench", "map");
        data = command.run(data, ctx).map_err(|e| e.to_string())?;
        span.done();
        counts.map_bytes_out += data.len() as u64;
    }
    Ok(data)
}
