//! The serial-vs-dataflow differential harness: the shared work-stealing
//! scheduler must produce byte-identical output on every script of the
//! paper corpus, at every chunk size and worker count.
//!
//! `run_serial` is the semantics oracle. `run_dataflow` compiles each
//! statement to a dataflow graph and executes the whole script on one
//! fixed pool, so every scheduler behaviour — reorder buffers, credit
//! gating, fusion, fold finalization, early-exit teardown — is in play on
//! every script. The sweep brackets the chunking extremes (1 byte → one
//! chunk per line; 16 MiB → one chunk total, i.e. serial execution with
//! scheduler plumbing) at w ∈ {1, 4}, a second sweep runs with both
//! *adaptive* knobs on (auto chunk sizing + credit rebalancing) checking
//! stdout and every redirect target, and a watchdog test pins the
//! cancellation property: a bounded consumer stops a 256 MiB producer
//! after O(first match) bytes, including chunks already queued.

use kq_coreutils::ExecContext;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use kq_workloads::{corpus, setup, Scale};
use std::collections::HashMap;

#[test]
fn full_corpus_dataflow_matches_serial_across_chunkings_and_workers() {
    let scale = Scale {
        input_bytes: 10_000,
    };
    // One planner across scripts: combiners cache per command line.
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut count = 0usize;
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 0xDF01);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(8_000)]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(sample.len());
        let plan = planner.plan(&parsed, &ctx, &sample[..cut]);

        let id = format!("{}/{}", script.suite.dir(), script.id);
        let serial = run_serial(&parsed, &ctx).unwrap_or_else(|e| panic!("{id} serial: {e}"));
        for workers in [1usize, 4] {
            for chunk_bytes in [1usize, 700, 16 << 20] {
                let opts = DataflowOptions {
                    workers,
                    chunk: ChunkSizing::Fixed(chunk_bytes),
                    queue: QueueCredit::Fixed(2),
                    fuse_streamable: true,
                    spill: None,
                };
                let got = run_dataflow(&parsed, &plan, &ctx, &opts).unwrap_or_else(|e| {
                    panic!("{id} dataflow (w={workers}, chunk={chunk_bytes}): {e}")
                });
                assert_eq!(
                    got.output, serial.output,
                    "{id}: dataflow diverged (w={workers}, chunk={chunk_bytes})"
                );
            }
        }
        count += 1;
    }
    assert!(count >= 70, "corpus shrank to {count} scripts");
}

/// The adaptation-invariance sweep: with *both* auto knobs on — adaptive
/// chunk sizing and queue-credit rebalancing — every corpus script must
/// stay byte-identical to serial, for stdout AND every `> file` redirect
/// target. The knobs move chunk boundaries and queue credit at runtime,
/// driven by timing-dependent stall samples; this test pins the contract
/// that none of that ever reaches the bytes. Each configuration runs in a
/// fresh context (same deterministic setup seed) so redirect targets
/// can't leak results between runs.
#[test]
fn full_corpus_adaptive_knobs_match_serial_including_redirects() {
    let scale = Scale {
        input_bytes: 10_000,
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut count = 0usize;
    let mut redirects_checked = 0usize;
    for script in corpus() {
        let serial_ctx = ExecContext::default();
        let env = setup(script, &serial_ctx, &scale, 0xADA9);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        let sample = serial_ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(8_000)]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(sample.len());
        let plan = planner.plan(&parsed, &serial_ctx, &sample[..cut]);

        let id = format!("{}/{}", script.suite.dir(), script.id);
        let serial =
            run_serial(&parsed, &serial_ctx).unwrap_or_else(|e| panic!("{id} serial: {e}"));
        let serial_files: Vec<(String, String)> = parsed
            .statements
            .iter()
            .filter_map(|s| s.output.clone())
            .map(|t| {
                let bytes = serial_ctx
                    .vfs
                    .read(&t)
                    .unwrap_or_else(|| panic!("{id}: serial run left no redirect file {t}"));
                (t, bytes)
            })
            .collect();

        for workers in [1usize, 4] {
            let ctx = ExecContext::default();
            setup(script, &ctx, &scale, 0xADA9);
            let opts = DataflowOptions {
                workers,
                chunk: ChunkSizing::Auto,
                queue: QueueCredit::Auto,
                fuse_streamable: true,
                spill: None,
            };
            let got = run_dataflow(&parsed, &plan, &ctx, &opts)
                .unwrap_or_else(|e| panic!("{id} adaptive dataflow (w={workers}): {e}"));
            assert_eq!(
                got.output, serial.output,
                "{id}: adaptive dataflow diverged on stdout (w={workers})"
            );
            for (target, want) in &serial_files {
                let have = ctx
                    .vfs
                    .read(target)
                    .unwrap_or_else(|| panic!("{id}: adaptive run left no redirect file {target}"));
                assert_eq!(
                    &have, want,
                    "{id}: adaptive dataflow diverged at redirect {target} (w={workers})"
                );
                redirects_checked += 1;
            }
        }
        count += 1;
    }
    assert!(count >= 70, "corpus shrank to {count} scripts");
    assert!(
        redirects_checked >= 10,
        "corpus drifted: only {redirects_checked} redirect targets checked"
    );
}

/// Every dataflow stage timing carries queue telemetry, and per-chunk
/// nodes report one task per chunk — the observability contract the
/// perf analysis relies on.
#[test]
fn dataflow_timings_report_queue_telemetry() {
    let ctx = ExecContext::default();
    let input: String = (0..2000)
        .map(|i| format!("word{} tail{}\n", i % 13, i % 7))
        .collect();
    ctx.vfs.write("/in.txt", input);
    let env: HashMap<String, String> = HashMap::new();
    let parsed = parse_script(
        "cat /in.txt | grep word | tr a-z A-Z | sort | uniq -c",
        &env,
    )
    .unwrap();
    let mut planner = Planner::new(SynthesisConfig::default());
    let sample = "word1 tail1\nword2 tail2\n".repeat(30);
    let plan = planner.plan(&parsed, &ctx, &sample);
    let opts = DataflowOptions {
        workers: 2,
        chunk: ChunkSizing::Fixed(1024),
        queue: QueueCredit::Fixed(2),
        fuse_streamable: true,
        spill: None,
    };
    let got = run_dataflow(&parsed, &plan, &ctx, &opts).unwrap();
    let stages = &got.timings.statements[0];
    assert!(!stages.is_empty());
    for stage in stages {
        let telem = stage
            .queue
            .unwrap_or_else(|| panic!("{}: dataflow stage without telemetry", stage.label));
        assert!(
            telem.tasks >= 1,
            "{}: node processed no tasks: {telem:?}",
            stage.label
        );
    }
    // The fused grep|tr node saw many chunks; its task count says so.
    let fused = stages.iter().find(|s| s.label.contains('|')).unwrap();
    assert!(
        fused.queue.unwrap().tasks > 5,
        "expected one task per chunk at the fused node: {:?}",
        fused.queue
    );
}

/// A cancelled 256 MiB producer must terminate promptly without draining
/// its input. Under the dataflow scheduler the bound's satisfaction tears
/// the graph down edge-by-edge — queued chunks are dropped, not drained —
/// so the grep node's consumed-byte count stays O(first match), with a
/// watchdog so a regression hangs the test rather than silently scanning
/// all 256 MiB.
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
        workers: 2,
        chunk: ChunkSizing::Fixed(64 * 1024),
        queue: QueueCredit::Fixed(2),
        fuse_streamable: true,
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
        .expect("cancelled pipeline hung: upstream kept running after the bound was met");
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

/// The prefix-bounded corpus scripts (`… | head -n 1`-shaped) under the
/// dataflow scheduler: byte-identical to serial while the bound cancels
/// upstream, at chunk sizes 1 B / 700 B / 16 MiB and w ∈ {1, 4}.
#[test]
fn prefix_bounded_corpus_scripts_match_serial_under_early_exit() {
    let scale = Scale {
        input_bytes: 10_000,
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut covered = 0usize;
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 0xDF0E);
        let parsed = parse_script(script.text, &env).unwrap();
        let bounded_terminal = parsed.statements.iter().any(|st| {
            st.stages
                .last()
                .is_some_and(|stage| kq_synth::prefix_bound(&stage.command).is_some())
        });
        if !bounded_terminal {
            continue;
        }
        covered += 1;
        let id = format!("{}/{}", script.suite.dir(), script.id);
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(8_000)]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(sample.len());
        let plan = planner.plan(&parsed, &ctx, &sample[..cut]);
        let serial = run_serial(&parsed, &ctx).unwrap();
        for workers in [1usize, 4] {
            for chunk_bytes in [1usize, 700, 16 << 20] {
                let opts = DataflowOptions {
                    workers,
                    chunk: ChunkSizing::Fixed(chunk_bytes),
                    queue: QueueCredit::Fixed(2),
                    fuse_streamable: true,
                    spill: None,
                };
                let got = run_dataflow(&parsed, &plan, &ctx, &opts)
                    .unwrap_or_else(|e| panic!("{id} dataflow (chunk={chunk_bytes}): {e}"));
                assert_eq!(
                    got.output, serial.output,
                    "{id}: early-exit dataflow diverged (w={workers}, chunk={chunk_bytes})"
                );
            }
        }
    }
    assert!(
        covered >= 11,
        "expected >= 11 prefix-bounded corpus scripts, found {covered}"
    );
}
