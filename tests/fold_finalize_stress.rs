//! Regression stress for lost-wakeup hangs in the dataflow scheduler:
//! the Fold-finalization race (promoted from a temporary reviewer repro)
//! and a credit-gated stage worker stranding its queued input (the last
//! test).
//!
//! The bug: `gather_task` claimed the inflight counter, popped the final
//! chunk, and then only rescheduled its *upstream* node — so when a
//! sibling task had already observed the closed edge and bailed out on
//! the nonzero inflight count, nobody ever re-ran the finalization check
//! and the run hung with the pool idle. The fix makes every pop path
//! call `maybe_finalize_gather`/`maybe_finalize_map` unconditionally
//! after integrating its chunk (the condition is stable once true, so
//! the extra call is idempotent).
//!
//! These tests hammer the window with tiny chunks (64 B) and a shallow
//! queue (depth 2) so the final-chunk/closed-edge interleaving happens
//! constantly. Each iteration runs on a detached thread watched over a
//! channel: a hang panics the test with the iteration number instead of
//! wedging the suite. (A detached thread is deliberate — `thread::scope`
//! would join the hung worker and turn the panic back into a wedge.)

use kq_coreutils::ExecContext;
use kq_pipeline::parse::{parse_script, Script};
use kq_pipeline::plan::{PlannedScript, Planner};
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const ITERATIONS: usize = 3000;

/// Plans `script_text` over a `lines`-line input (sampling its first 300
/// lines) and returns the shared state each stress iteration re-executes.
fn plan_stress_script(
    script_text: &str,
    lines: usize,
) -> (Arc<Script>, Arc<PlannedScript>, Arc<ExecContext>) {
    let env: HashMap<String, String> = HashMap::new();
    let mut input = String::new();
    let mut sample_len = 0;
    for i in 0..lines {
        input.push_str(&format!("line {} {}\n", i % 7, i));
        if i < 300 {
            sample_len = input.len();
        }
    }
    let script = parse_script(script_text, &env).unwrap();
    let ctx = ExecContext::default();
    ctx.vfs.write("/in.txt", &input);
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&script, &ctx, &input[..sample_len]);
    (Arc::new(script), Arc::new(plan), Arc::new(ctx))
}

/// Runs the planned script `ITERATIONS` times over a 300-line input under
/// the race-friendly configuration.
fn stress(script_text: &str) {
    stress_with(script_text, 300, ITERATIONS);
}

/// Runs the planned script `iterations` times over a `lines`-line input
/// under the race-friendly configuration (w=4, 64 B chunks, depth 2,
/// fused), each run on a detached watchdog-guarded thread.
fn stress_with(script_text: &str, lines: usize, iterations: usize) {
    let opts = DataflowOptions {
        workers: 4,
        chunk: ChunkSizing::Fixed(64),
        queue: QueueCredit::Fixed(2),
        fuse_streamable: true,
        spill: None,
    };
    stress_opts(script_text, lines, iterations, opts);
}

/// [`stress_with`] under explicit scheduler options.
fn stress_opts(script_text: &str, lines: usize, iterations: usize, opts: DataflowOptions) {
    let (script, plan, ctx) = plan_stress_script(script_text, lines);
    let expect = {
        let opts = DataflowOptions::default();
        run_dataflow(&script, &plan, &ctx, &opts).unwrap().output
    };
    for iter in 0..iterations {
        let (tx, rx) = mpsc::channel();
        let (script, plan, ctx) = (script.clone(), plan.clone(), ctx.clone());
        let opts = opts.clone();
        std::thread::spawn(move || {
            let got = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
            // A send failure means the watchdog already gave up.
            let _ = tx.send(got.output);
        });
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(out) => assert_eq!(out, expect, "dataflow output diverged at iteration {iter}"),
            Err(_) => panic!("scheduler hang at iteration {iter}"),
        }
    }
}

/// The original repro: `sed 1d` plans as a sequential Fold(Gather) node
/// fed by the split, the shape whose finalization was lost.
#[test]
fn gather_finalize_stress() {
    stress("cat /in.txt | sed 1d | sort");
}

/// The same window at a Fold(Combine) node: no gather stage in the
/// pipeline, so the incremental combiner fold's pop paths are the ones
/// racing the closed-edge observer.
#[test]
fn combine_finalize_stress() {
    stress("cat /in.txt | sort");
}

/// Early exit racing a partitioned fold finish: the input is large enough
/// (~3 MiB) that the sort fold's final merge is cut into key ranges, the
/// first range to land streams into `head -n 1`, and the bound's
/// cancellation tears the statement down while the other range tasks are
/// still merging. Every iteration must finish (watchdog) with the same
/// answer.
#[test]
fn early_exit_during_partitioned_fold_finish_stress() {
    stress_with("cat /in.txt | sort | head -n 1", 220_000, 40);
}

/// A credit-gated stage worker must never strand queued input. Under
/// depth-1 queues several tasks of an unfused `cut` node can find its
/// output edge full and return, each counting on a downstream pop to
/// reschedule the node; one pop then stands for all of them. When the
/// rescheduled task's output stays in the chunker (`cut` shrinks each
/// 64 B chunk below the target) nothing downstream pops again, and the
/// input left on the edge used to wait forever with the pool idle.
#[test]
fn gated_stage_worker_never_strands_queued_input() {
    let opts = DataflowOptions {
        workers: 4,
        chunk: ChunkSizing::Fixed(64),
        queue: QueueCredit::Fixed(1),
        fuse_streamable: false,
        spill: None,
    };
    stress_opts(
        "cat /in.txt | tr a-z A-Z | cut -d ' ' -f 1 | sort",
        300,
        ITERATIONS,
        opts,
    );
}
