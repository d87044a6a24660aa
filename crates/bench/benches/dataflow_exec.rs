//! Shared-pool dataflow scheduler versus the serial oracle on a
//! multi-statement script — the workload the unified runtime exists for.
//!
//! The dataflow scheduler compiles every statement to one graph and runs
//! the whole script on a single fixed pool, so pool spawn/teardown is
//! paid once per script and statements without VFS dependencies overlap
//! on the shared workers. This bench times serial and dataflow at w=4 on
//! an eight-statement redirect script and persists the medians to
//! `BENCH_dataflow.json` at the repo root, so the perf trajectory is
//! tracked across PRs instead of living only in CI logs.
//!
//! Unlike the criterion-shim benches, this harness reports the *median*
//! of fixed-count samples (plus the process `VmHWM` after each bench) and
//! writes them as JSON. Input defaults to 16 MiB (`KQ_DATAFLOW_BENCH_KB`
//! overrides; `KQ_BENCH_QUICK=1` shrinks to 1 MiB and one sample for the
//! CI smoke). `KQ_BENCH_OUT` overrides the output path.

use kq_coreutils::ExecContext;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
const CHUNK_BYTES: usize = 128 * 1024;

/// Eight statements over one input: a fold-heavy frequency pipeline
/// checkpointed to a redirect, six independent analyses free to overlap
/// it, and a reader of the first statement's target (a real RAW
/// dependency). Dataflow pays one pool for the whole script, whatever the
/// statement count.
const SCRIPT: &str =
    "cat /in.txt | grep -v qqq | tr A-Z a-z | sort | uniq -c | sort -rn > /out/freq\n\
                      cat /in.txt | cut -d ' ' -f 1 | sort -u > /out/first\n\
                      cat /in.txt | grep Apple | wc -l\n\
                      cat /in.txt | tr A-Z a-z | head -n 3\n\
                      cat /in.txt | cut -d ' ' -f 2 | sort | uniq -c | sort -rn | head -n 5\n\
                      cat /in.txt | grep dog | cut -d ' ' -f 3 | sort -u | wc -l\n\
                      cat /in.txt | grep -c bird\n\
                      cat /out/freq | head -n 10";

fn quick_mode() -> bool {
    std::env::var("KQ_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn input_bytes() -> usize {
    let kb = std::env::var("KQ_DATAFLOW_BENCH_KB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if quick_mode() { 1024 } else { 16 * 1024 });
    kb * 1024
}

/// Mixed-case word lines, ~32 bytes each, deterministic.
fn make_input(bytes: usize) -> String {
    let words = [
        "Apple", "dog", "CAT", "bird", "Fox", "wolf", "Pear", "yak", "Emu", "newt",
    ];
    let mut s = String::with_capacity(bytes + 64);
    let mut i = 0usize;
    while s.len() < bytes {
        s.push_str(&format!(
            "{} {} item {:04}\n",
            words[i % words.len()],
            words[(i * 7 + 3) % words.len()],
            (i * 2654435761) % 9973
        ));
        i += 1;
    }
    s
}

fn fresh_ctx(input: &str) -> ExecContext {
    let ctx = ExecContext::default();
    ctx.vfs.write("/in.txt", input);
    ctx
}

/// Peak resident set of this process so far, from /proc (0 elsewhere).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs `routine` (setup excluded: the closure times itself) `n` times and
/// returns the median duration.
fn median_of(n: usize, mut routine: impl FnMut() -> Duration) -> (Duration, usize) {
    let mut samples: Vec<Duration> = (0..n).map(|_| routine()).collect();
    samples.sort();
    (samples[samples.len() / 2], samples.len())
}

struct BenchRow {
    name: &'static str,
    median: Duration,
    samples: usize,
    vm_hwm_kb: u64,
}

fn main() {
    let input = make_input(input_bytes());
    let env: HashMap<String, String> = HashMap::new();
    let script = parse_script(SCRIPT, &env).unwrap();
    let mut planner = Planner::new(SynthesisConfig::default());
    let cut = input[..input.len().min(16_384)]
        .rfind('\n')
        .map(|i| i + 1)
        .unwrap_or(input.len());
    let plan = planner.plan(&script, &fresh_ctx(&input), &input[..cut]);

    let dopts = DataflowOptions {
        workers: WORKERS,
        chunk: ChunkSizing::Fixed(CHUNK_BYTES),
        queue: QueueCredit::Fixed(4),
        fuse_streamable: true,
        spill: None,
    };

    // Correctness guard before timing anything: dataflow must agree with
    // serial on stdout AND on every redirect target.
    let serial_ctx = fresh_ctx(&input);
    let serial = run_serial(&script, &serial_ctx).unwrap();
    let ctx = fresh_ctx(&input);
    let r = run_dataflow(&script, &plan, &ctx, &dopts).unwrap();
    assert_eq!(
        r.output, serial.output,
        "dataflow: stdout diverged from serial"
    );
    for target in ["/out/freq", "/out/first"] {
        assert_eq!(
            ctx.vfs.read(target).map(|s| s.to_owned()),
            serial_ctx.vfs.read(target).map(|s| s.to_owned()),
            "dataflow: wrong bytes in {target}"
        );
    }

    let n = if quick_mode() { 1 } else { 9 };
    let mut rows: Vec<BenchRow> = Vec::new();
    let mut push = |name: &'static str, (median, samples): (Duration, usize)| {
        println!(
            "{:<28} median: {:>9.2} ms  ({samples} samples, VmHWM {} MiB)",
            format!("dataflow_exec/{name}"),
            median.as_secs_f64() * 1e3,
            vm_hwm_kb() / 1024
        );
        rows.push(BenchRow {
            name,
            median,
            samples,
            vm_hwm_kb: vm_hwm_kb(),
        });
    };

    push(
        "serial",
        median_of(n, || {
            let ctx = fresh_ctx(&input);
            let t0 = Instant::now();
            let r = run_serial(&script, &ctx).unwrap();
            let dt = t0.elapsed();
            std::hint::black_box(r.output.len());
            dt
        }),
    );
    push(
        "dataflow_w4",
        median_of(n, || {
            let ctx = fresh_ctx(&input);
            let t0 = Instant::now();
            let r = run_dataflow(&script, &plan, &ctx, &dopts).unwrap();
            let dt = t0.elapsed();
            std::hint::black_box(r.output.len());
            dt
        }),
    );

    // Hand-rolled JSON: names and floats only, nothing needing escaping.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"script_statements\": {},\n",
        script.statements.len()
    ));
    json.push_str(&format!("  \"input_bytes\": {},\n", input.len()));
    json.push_str(&format!("  \"workers\": {WORKERS},\n"));
    json.push_str(&format!("  \"chunk_bytes\": {CHUNK_BYTES},\n"));
    json.push_str("  \"benches\": {\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{\"median_ms\": {:.3}, \"samples\": {}, \"vm_hwm_kb\": {}}}{comma}\n",
            row.name,
            row.median.as_secs_f64() * 1e3,
            row.samples,
            row.vm_hwm_kb
        ));
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    let out = std::env::var("KQ_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_dataflow.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}
