//! The `sort` fold's three kernels over a 16 MiB word stream (book text
//! through `tr -cs A-Za-z '\n'`, the shape the word-frequency pipeline
//! sorts): the per-chunk sort of 64 KiB chunks, the 32-way merge that
//! forms one run from 32 sorted chunks while pieces arrive, and the final
//! merge of every run — flat (P=1) and cut into two key ranges merged on
//! two threads (P=2), the partitioned finish the dataflow scheduler runs.
//!
//! `KQ_BENCH_QUICK=1` runs each benchmark once (CI smoke).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use kq_coreutils::sort::merge_streams;
use kq_coreutils::{parse_command, ExecContext};
use kq_dsl::eval::CommandEnv;
use kq_dsl::kway::MERGE_RUN_ARITY;
use kq_dsl::{Candidate, FoldFinish, IncrementalFold, RunOp};
use kq_stream::{Bytes, IncrementalChunker};
use kq_workloads::inputs::gutenberg_text;
use std::hint::black_box;

const INPUT_BYTES: usize = 16 << 20;
const CHUNK_BYTES: usize = 64 << 10;

/// One word per line, like `tr -cs A-Za-z '\n'`.
fn word_stream(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for word in text.split(|c: char| !c.is_ascii_alphabetic()) {
        if !word.is_empty() {
            out.push_str(word);
            out.push('\n');
        }
    }
    out
}

fn bench_sort_kernel(c: &mut Criterion) {
    let words = Bytes::from(word_stream(&gutenberg_text(INPUT_BYTES, 12)));
    let mut chunker = IncrementalChunker::new(CHUNK_BYTES);
    let mut chunks = chunker.push(words.clone());
    chunks.extend(chunker.finish());
    let sort = parse_command("sort").unwrap();
    let ctx = ExecContext::default();
    let sorted: Vec<Bytes> = chunks
        .iter()
        .map(|chunk| sort.run(chunk.clone(), &ctx).unwrap())
        .collect();

    let mut group = c.benchmark_group("sort_kernel");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(words.len() as u64));
    group.bench_function(format!("chunk_sort_64KiB_x{}", chunks.len()), |b| {
        b.iter(|| {
            chunks
                .iter()
                .map(|chunk| sort.run(black_box(chunk.clone()), &ctx).unwrap().len())
                .sum::<usize>()
        })
    });

    let batch: Vec<&str> = sorted[..MERGE_RUN_ARITY.min(sorted.len())]
        .iter()
        .map(|s| s.to_str().unwrap())
        .collect();
    group.throughput(Throughput::Bytes(
        batch.iter().map(|s| s.len()).sum::<usize>() as u64,
    ));
    group.bench_function(format!("run_merge_{}way", batch.len()), |b| {
        b.iter(|| merge_streams(&[], black_box(&batch)).unwrap().len())
    });

    // The final merge: a fold that has taken every sorted chunk (runs
    // formed along the way), settled flat or as two parallel ranges.
    let candidate = Candidate::run(RunOp::Merge(Vec::new()));
    let env = CommandEnv {
        command: &sort,
        ctx: &ctx,
    };
    let filled_fold = || {
        let mut fold = IncrementalFold::new(&candidate, &env);
        for piece in &sorted {
            fold.push(piece.clone()).unwrap();
        }
        fold
    };
    group.throughput(Throughput::Bytes(words.len() as u64));
    for parts in [1usize, 2] {
        group.bench_function(format!("final_merge_p{parts}"), |b| {
            b.iter_batched(
                filled_fold,
                |fold| match fold.finish_ranges(parts).unwrap() {
                    FoldFinish::Done(out) => out.len(),
                    FoldFinish::Ranges(ranges) => std::thread::scope(|scope| {
                        let ranges = &ranges;
                        let merges: Vec<_> = (0..ranges.len())
                            .map(|r| scope.spawn(move || ranges.merge_range(r).unwrap().len()))
                            .collect();
                        merges.into_iter().map(|m| m.join().unwrap()).sum()
                    }),
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sort_kernel);
criterion_main!(benches);
