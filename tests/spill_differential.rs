//! Spill differential suite: barrier folds running under a deliberately
//! tiny `--spill-mb` budget (every run goes to disk) must produce output
//! byte-identical to the serial oracle under the dataflow executor, at
//! several worker counts, chunk sizes and queue credits, with chunk-local
//! stages fused or kept one node each — and must never leave run files
//! behind in the spill directory, whether the run succeeds, fails, or
//! exits early.
//!
//! Run files are unlinked the moment they are mapped back (see
//! `kq_io::RunWriter`), so "no leftovers" is structural rather than a
//! cleanup pass: these tests pin that property end-to-end through the
//! executor's success and teardown paths.

use kq_coreutils::ExecContext;
use kq_dsl::SpillPolicy;
use kq_pipeline::exec::{run_serial, ExecutionResult};
use kq_pipeline::parse::{parse_script, Script};
use kq_pipeline::plan::{PlannedScript, Planner};
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Barrier-bearing scripts: a pure sort, a sort feeding a stitch-combined
/// `uniq -c`, and an add-combined `wc`.
const SCRIPTS: &[&str] = &[
    "cat /in.txt | sort",
    "cat /in.txt | sort | uniq -c",
    "cat /in.txt | wc",
];

/// A fresh spill directory for one test, removed (and asserted empty) by
/// `assert_clean`.
fn spill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kq-spill-diff-{}-{tag}", std::process::id()))
}

/// Asserts no run file outlived the runs, then removes the directory.
fn assert_clean(dir: &Path) {
    if !dir.exists() {
        return; // nothing was ever spilled there — also clean
    }
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "run files left behind in {}: {leftovers:?}",
        dir.display()
    );
    std::fs::remove_dir(dir).unwrap();
}

/// A budget of one byte: every completed run spills.
fn tiny_policy(dir: &Path) -> SpillPolicy {
    SpillPolicy {
        budget_bytes: 1,
        dir: Some(dir.to_path_buf()),
    }
}

/// Dataflow options spilling every run to `dir`.
fn spill_opts(workers: usize, chunk_bytes: usize, dir: &Path) -> DataflowOptions {
    DataflowOptions {
        workers,
        chunk: ChunkSizing::Fixed(chunk_bytes),
        queue: QueueCredit::Fixed(2),
        fuse_streamable: true,
        spill: Some(tiny_policy(dir)),
    }
}

fn plan_over(script_text: &str, input: &str) -> (Script, PlannedScript, ExecContext) {
    let env: HashMap<String, String> = HashMap::new();
    let script = parse_script(script_text, &env).unwrap();
    let ctx = ExecContext::default();
    ctx.vfs.write("/in.txt", input);
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&script, &ctx, input);
    (script, plan, ctx)
}

/// Enough lines, with repeated keys, that a small chunk size yields many
/// runs per fold.
fn stress_input() -> String {
    let mut input = String::new();
    for i in 0..2_000 {
        input.push_str(&format!("key {} value {}\n", i % 13, i * 31 % 997));
    }
    input
}

/// Runs written to disk across every fold of a finished run.
fn runs_spilled(got: &ExecutionResult) -> u64 {
    got.timings
        .statements
        .iter()
        .flatten()
        .filter_map(|t| t.spill)
        .map(|sp| sp.runs_spilled)
        .sum()
}

#[test]
fn spilled_dataflow_matches_serial_across_corpus_and_workers() {
    let dir = spill_dir("dataflow");
    let input = stress_input();
    for script_text in SCRIPTS {
        let (script, plan, ctx) = plan_over(script_text, &input);
        let serial = run_serial(&script, &ctx).unwrap();
        for workers in [1, 4] {
            for chunk_bytes in [1, 256, 700, 16 << 20] {
                let got = run_dataflow(
                    &script,
                    &plan,
                    &ctx,
                    &spill_opts(workers, chunk_bytes, &dir),
                )
                .unwrap();
                assert_eq!(
                    got.output, serial.output,
                    "{script_text} w={workers} chunk={chunk_bytes} diverged under spilling"
                );
                // Every barrier fold in a sort-bearing script must
                // actually have hit the disk under the one-byte budget.
                if script_text.contains("sort") {
                    assert!(
                        runs_spilled(&got) > 0,
                        "{script_text} w={workers} chunk={chunk_bytes} never spilled"
                    );
                }
            }
        }
    }
    assert_clean(&dir);
}

/// The streaming shape under spilling: fusion off, so every chunk-local
/// stage before and after a fold is its own node, with queue credit 1
/// (the tightest gating) or rebalanced, and fixed or adaptive chunks. The
/// extra script puts two streamable stages in front of the sort fold.
#[test]
fn spilled_streaming_matches_serial_across_corpus_and_workers() {
    let dir = spill_dir("streaming");
    let input = stress_input();
    let streamed_prefix = "cat /in.txt | tr a-z A-Z | cut -d ' ' -f 1,2 | sort | uniq -c";
    for script_text in SCRIPTS.iter().copied().chain([streamed_prefix]) {
        let (script, plan, ctx) = plan_over(script_text, &input);
        let serial = run_serial(&script, &ctx).unwrap();
        for workers in [1, 4] {
            for chunk in [ChunkSizing::Fixed(256), ChunkSizing::Auto] {
                for queue in [QueueCredit::Fixed(1), QueueCredit::Auto] {
                    let opts = DataflowOptions {
                        workers,
                        chunk,
                        queue,
                        fuse_streamable: false,
                        spill: Some(tiny_policy(&dir)),
                    };
                    let got = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
                    assert_eq!(
                        got.output, serial.output,
                        "{script_text} w={workers} chunk={chunk:?} queue={queue:?} \
                         diverged under spilling"
                    );
                    if script_text.contains("sort") {
                        assert!(
                            runs_spilled(&got) > 0,
                            "{script_text} w={workers} chunk={chunk:?} queue={queue:?} never spilled"
                        );
                    }
                }
            }
        }
    }
    assert_clean(&dir);
}

#[test]
fn failed_run_leaves_no_spill_files() {
    // The failing stage sits downstream of the spilling sort (`comm`
    // needs a dictionary file nobody wrote), so the fold completes —
    // spilling and mapping its runs — before the error surfaces. Every
    // run file must already be unlinked by then.
    let dir = spill_dir("failure");
    let (script, plan, ctx) = plan_over("cat /in.txt | sort | comm -23 - /nodict", &stress_input());
    for workers in [1, 4] {
        run_dataflow(&script, &plan, &ctx, &spill_opts(workers, 256, &dir))
            .expect_err("comm without /nodict must fail");
    }
    assert_clean(&dir);
}

#[test]
fn early_exit_run_leaves_no_spill_files() {
    // A bounded consumer downstream of the spilling sort cancels the
    // fold's emit after one line: the mapped (already-unlinked) merge
    // output is dropped mid-stream, and nothing may remain on disk.
    let dir = spill_dir("early-exit");
    let input = stress_input();
    let (script, plan, ctx) = plan_over("cat /in.txt | sort | head -n 1", &input);
    let serial = run_serial(&script, &ctx).unwrap();
    for workers in [1, 4] {
        let got = run_dataflow(&script, &plan, &ctx, &spill_opts(workers, 256, &dir)).unwrap();
        assert_eq!(got.output, serial.output);
    }
    assert_clean(&dir);
}
