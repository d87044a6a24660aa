//! The cancellation suite on the unfused graph: pipelines ending in a
//! prefix-bounded consumer (`head -n k`, `sed kq`) must produce output
//! byte-identical to serial while the dataflow scheduler cancels their
//! upstream early, with every chunk-local stage kept as its own node.
//!
//! `dataflow_differential.rs` runs the same two checks on the fused graph
//! at queue credit 2. Here fusion is off, so a cancellation has to cross
//! one edge per stage, and the queues run at credit 1 (the tightest
//! gating) or under the rebalancing controller, with fixed and adaptive
//! chunk sizes. The corpus is full of `… | sort -nr | head -n 1`-shaped
//! scripts (11 of its statements terminate in `head`/`sed kq`). A
//! watchdog test pins the point of the whole subsystem: a cancelled
//! 256 MiB producer terminates promptly *without draining its input* —
//! upstream work is O(first match), not O(file).

use kq_coreutils::ExecContext;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use kq_workloads::{corpus, setup, Scale};
use std::collections::HashMap;

#[test]
fn prefix_bounded_corpus_scripts_match_serial_under_early_exit() {
    let scale = Scale {
        input_bytes: 10_000,
    };
    // One planner across scripts: combiners cache per command signature.
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut covered: Vec<String> = Vec::new();
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 0xEA51);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        // Select scripts with a statement *terminating* in a bounded
        // consumer — the shape where cancellation saves the whole tail.
        let bounded_terminal = parsed.statements.iter().any(|st| {
            st.stages
                .last()
                .is_some_and(|stage| kq_synth::prefix_bound(&stage.command).is_some())
        });
        if !bounded_terminal {
            continue;
        }
        let id = format!("{}/{}", script.suite.dir(), script.id);
        covered.push(id.clone());
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(8_000)]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(sample.len());
        let plan = planner.plan(&parsed, &ctx, &sample[..cut]);
        let serial = run_serial(&parsed, &ctx).unwrap_or_else(|e| panic!("{id} serial: {e}"));
        for workers in [1usize, 4] {
            for chunk in [
                ChunkSizing::Fixed(1),
                ChunkSizing::Fixed(700),
                ChunkSizing::Auto,
            ] {
                for queue in [QueueCredit::Fixed(1), QueueCredit::Auto] {
                    let opts = DataflowOptions {
                        workers,
                        chunk,
                        queue,
                        fuse_streamable: false,
                        spill: None,
                    };
                    let got = run_dataflow(&parsed, &plan, &ctx, &opts).unwrap_or_else(|e| {
                        panic!("{id} unfused dataflow (chunk={chunk:?}, queue={queue:?}): {e}")
                    });
                    assert_eq!(
                        got.output, serial.output,
                        "{id}: early-exit unfused dataflow diverged \
                         (w={workers}, chunk={chunk:?}, queue={queue:?})"
                    );
                }
            }
        }
    }
    // The corpus has 11 head-/sed kq-terminated scripts; a corpus edit
    // that silently empties this suite should fail loudly.
    assert!(
        covered.len() >= 11,
        "expected >= 11 prefix-bounded corpus scripts, found {}: {covered:?}",
        covered.len()
    );
}

/// A cancelled 256 MiB producer must terminate promptly without draining
/// its input: the bounded consumer's demand is satisfied by the very
/// first matching line, so upstream work is O(first match) bytes — pinned
/// objectively via the grep node's consumed-byte count, with a watchdog
/// so a cancellation regression hangs the test instead of silently
/// scanning everything. Unfused at credit 1 on four workers, the
/// teardown has to reach the grep node across its own edge while the
/// other workers are still claiming split chunks.
#[test]
fn cancelled_256mib_producer_terminates_promptly_without_draining() {
    const TOTAL: usize = 256 << 20;
    let mut input = String::with_capacity(TOTAL + (1 << 20));
    input.push_str("needle alpha\n");
    let filler_block = "haystack filler line with nothing to find here\n".repeat(1 << 14);
    while input.len() < TOTAL {
        input.push_str(&filler_block);
    }
    let input_len = input.len();
    let ctx = ExecContext::default();
    ctx.vfs.write("/big", input); // moves the buffer; no copy
    let env: HashMap<String, String> = HashMap::new();
    let script = parse_script("cat /big | grep needle | head -n 1", &env).unwrap();
    let mut planner = Planner::new(SynthesisConfig::default());
    let sample = "needle alpha\nhaystack filler line\n".repeat(40);
    let plan = planner.plan(&script, &ctx, &sample);

    let opts = DataflowOptions {
        workers: 4,
        chunk: ChunkSizing::Fixed(64 * 1024),
        queue: QueueCredit::Fixed(1),
        fuse_streamable: false,
        spill: None,
    };
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let result = run_dataflow(&script, &plan, &ctx, &opts);
        done_tx.send(()).ok();
        result
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("cancelled pipeline hung: upstream kept draining after the bound was met");
    let got = handle.join().expect("dataflow thread panicked").unwrap();
    assert_eq!(got.output, "needle alpha\n");

    let stages = &got.timings.statements[0];
    let head = stages
        .iter()
        .find(|s| s.label.starts_with("head"))
        .expect("head node timing");
    assert!(
        head.early_exit.is_some(),
        "head must report its early exit: {head:?}"
    );
    let grep = stages
        .iter()
        .find(|s| s.label.starts_with("grep"))
        .expect("grep node timing");
    assert!(
        grep.bytes_in < 32 << 20,
        "grep consumed {} of {input_len} bytes: cancellation did not stop the producer",
        grep.bytes_in
    );
}
