//! The two modes of a run: timed (`--trace 0`, the end-to-end metrics)
//! and traced (`--trace 1`, the per-layer metrics).

use crate::measure::{measured, median, Sample};
use crate::replay::{replay, Counts};
use crate::workload::{fnv, Kind, Sizes, Tally, Workload};
use kq_pipeline::exec::ExecutionResult;
use kq_pipeline::{DataflowOptions, DEFAULT_CHUNK_BYTES, DEFAULT_QUEUE_DEPTH};
use kq_trace::{Kind as RecordKind, Record, TraceSession};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Cold set-ups per timed run: at least `SETUP_REPS`, and more until
/// `SETUP_SECONDS` have passed; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
/// Fewest parallel runs a timed run makes, however long they take.
const MIN_RUNS: usize = 3;
/// Untraced/traced run pairs behind `trace.overhead_ratio`.
const TRACE_ROUNDS: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// How long a timed run keeps measuring parallel runs.
    pub seconds: u64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (corpus, wordfreq, scan, spill)")
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        kind: kind.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.unwrap_or(false),
    })
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result line.
#[derive(Debug, Clone)]
pub struct Report {
    /// Parallel (and replay) runs checked against the oracle.
    pub attempted: usize,
    /// Of those, runs that errored or differed from the oracle.
    pub failed: usize,
    /// The metrics of the mode that ran.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The one-line JSON object the benchmark ends its output with.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Runs one workload in the mode `args` selects.
pub fn run(args: &Args) -> Result<Report, String> {
    // One pool worker per core: the configuration under test.
    let workers = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    crate::measure::reset_peak_rss()
        .map_err(|e| format!("cannot reset the peak-RSS mark (/proc/self/clear_refs): {e}"))?;
    let wl = Workload::generate(args.kind, args.seed, &Sizes::BENCH, &crate::work_dir())?;
    for line in header(args, &wl, workers) {
        println!("{line}");
    }
    let report = if args.trace {
        traced(&wl, workers)?
    } else {
        timed(args, &wl, workers)?
    };
    for m in report.metrics.iter().filter(|m| !m.value.is_finite()) {
        eprintln!("kqbench: {} is not finite; reported as 0", m.name);
    }
    Ok(report)
}

/// The executor configuration under test: the defaults, with one worker
/// per core and the workload's spill budget.
fn options(wl: &Workload, workers: usize) -> DataflowOptions {
    DataflowOptions {
        workers,
        spill: wl.spill.clone(),
        ..DataflowOptions::default()
    }
}

/// The lines that make a run's numbers comparable: host, knobs, sizes
/// and the code measured.
fn header(args: &Args, wl: &Workload, workers: usize) -> Vec<String> {
    let s = Sizes::BENCH;
    let spill = match &wl.spill {
        Some(p) => format!("{} MiB", p.budget_bytes >> 20),
        None => "off".to_owned(),
    };
    vec![
        format!(
            "kqbench: workload={} seed={} seconds={} trace={}",
            wl.kind.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!("kqbench: nproc={workers} workers={workers} executor=dataflow"),
        format!(
            "kqbench: chunk={} KiB queue_depth={DEFAULT_QUEUE_DEPTH} spill_budget={spill}",
            DEFAULT_CHUNK_BYTES >> 10
        ),
        format!(
            "kqbench: input_bytes={} ({} script(s), digest {:016x}); sizes: corpus=70x{} KiB \
             wordfreq={} MiB scan={} MiB spill={} MiB (budget {} MiB)",
            wl.input_bytes,
            wl.jobs.len(),
            wl.digest,
            s.corpus_script >> 10,
            s.wordfreq >> 20,
            s.scan >> 20,
            s.spill >> 20,
            s.spill_budget >> 20
        ),
        format!("kqbench: commit={}", commit(&crate::repo_root())),
    ]
}

/// The git revision when the repository is a git checkout, plus a digest
/// of the sources built, which identifies the code either way.
fn commit(root: &Path) -> String {
    let rev = root
        .join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .arg("-C")
                .arg(root)
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let digest = files.iter().fold(0xcbf2_9ce4_8422_2325, |h, f| {
        let rel = f.strip_prefix(root).unwrap_or(f);
        let h = fnv(h, rel.to_string_lossy().as_bytes());
        fnv(h, &std::fs::read(f).unwrap_or_default())
    });
    format!("{rev} sources={digest:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Timed mode: repeated cold set-ups, then parallel runs for
/// `args.seconds` (at least `MIN_RUNS`), then the oracle, which every run
/// is checked against. The oracle runs last so that nothing it leaves
/// resident counts towards a run's peak. Tracing is off throughout.
fn timed(args: &Args, wl: &Workload, workers: usize) -> Result<Report, String> {
    let opts = options(wl, workers);
    let mut setup = Vec::new();
    let mut prep = None;
    let started = Instant::now();
    while setup.len() < SETUP_REPS || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(prep.take());
        let (p, sample) = measured(|| wl.setup(workers)).map_err(|e| e.to_string())?;
        prep = Some(p?);
        setup.push(sample);
    }
    let prep = prep.expect("at least one set-up ran");
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut samples = Vec::new();
    let mut tally = Tally::new(wl);
    while samples.len() < MIN_RUNS || Instant::now() < deadline {
        let ctxs = wl.contexts()?;
        let (results, sample) =
            measured(|| wl.run_parallel(&prep, &ctxs, &opts)).map_err(|e| e.to_string())?;
        wl.record(&mut tally, &ctxs, &results);
        samples.push(sample);
    }
    let oracle = wl.oracle(&prep)?;
    let (attempted, failed) = (tally.attempted(), tally.failed(&oracle));
    let setup_s = summarize("setup_s", &setup, |s| s.wall_s);
    summarize("setup_raw_s", &setup, |s| s.raw_wall_s);
    let wall = summarize("wall_s", &samples, |s| s.wall_s);
    summarize("wall_raw_s", &samples, |s| s.raw_wall_s);
    summarize("steal_s", &samples, |s| s.steal_s);
    let cpu = summarize("cpu_s", &samples, |s| s.cpu_s);
    let rss = summarize("peak_rss_mib", &samples, |s| s.peak_rss_mib);
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            metric("wall_s", wall, "s"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mib", rss, "MiB"),
            metric("cpu_s", cpu, "s"),
            metric(
                "pass_frac",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
        ],
    })
}

/// Traced mode: one set-up, the per-layer replay and the oracle under a
/// trace session of the benchmark's own spans, then untraced and traced
/// parallel runs in turn.
fn traced(wl: &Workload, workers: usize) -> Result<Report, String> {
    let opts = options(wl, workers);
    let session = TraceSession::start();
    let (prep, setup) = measured(|| wl.setup(workers)).map_err(|e| e.to_string())?;
    let mut prep = prep?;
    let setup_s = setup.wall_s;
    let cache = prep.planner.cache_stats();
    let short_circuits = prep.planner.lattice_short_circuits;
    let reports = prep.planner.reports.clone();
    // The plan layer alone: re-planning against the now-warm cache does
    // everything planning does except synthesis.
    for (job, ctx) in wl.jobs.iter().zip(&prep.ctxs) {
        let span = kq_trace::span("bench", "plan");
        prep.planner.plan(&job.script, ctx, &job.sample);
        span.done();
    }
    let oracle = wl.oracle(&prep)?;
    let mut tally = Tally::new(wl);
    let ctxs = wl.copies(&prep);
    let mut counts = Counts::default();
    for (index, ((job, plan), ctx)) in wl.jobs.iter().zip(&prep.plans).zip(&ctxs).enumerate() {
        let outcome = replay(&job.script, plan, ctx, wl.spill.as_ref(), &mut counts)
            .map(|out| wl.outcome(job, ctx, &out))
            .map_err(|e| format!("{}: replay: {e}", job.id));
        tally.record(index, outcome);
    }
    drop(ctxs);
    let records = session.finish();

    // Untraced and traced runs alternate which goes first, so neither
    // side always runs on a warmer page cache.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for round in 0..2 * TRACE_ROUNDS {
        let ctxs = wl.contexts()?;
        if (round + round / 2) % 2 == 0 {
            let (results, sample) =
                measured(|| wl.run_parallel(&prep, &ctxs, &opts)).map_err(|e| e.to_string())?;
            wl.record(&mut tally, &ctxs, &results);
            plain.push(sample);
            last = Some((results, sample.raw_wall_s));
        } else {
            let ((results, session), sample) = measured(|| {
                let session = TraceSession::start();
                (wl.run_parallel(&prep, &ctxs, &opts), session)
            })
            .map_err(|e| e.to_string())?;
            drop(session.finish());
            traced.push(sample.wall_s);
            wl.record(&mut tally, &ctxs, &results);
        }
    }
    let (results, last_raw_wall): (Vec<Result<ExecutionResult, String>>, f64) =
        last.expect("TRACE_ROUNDS > 0");
    let wall = median(&plain.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    // Span and stage timings include stolen time; compare them with the
    // wall time as measured.
    let raw_wall = median(&plain.iter().map(|s| s.raw_wall_s).collect::<Vec<_>>());

    let mut sched = SchedTotals::default();
    for r in results.iter().flatten() {
        sched.add(r);
    }
    if let Some(line) = host_reference(wl, &oracle) {
        println!("{line}");
    }

    let (attempted, failed) = (tally.attempted(), tally.failed(&oracle));
    let span = |name: &str| span_totals(&records, name);
    let (ingest_s, ingest_bytes) = span("ingest");
    let (oracle_s, _) = span("oracle");
    let synth_s: f64 = reports.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let count = |n: usize| n as f64;
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            metric("ingest.busy_s", ingest_s, "s"),
            metric("ingest.bytes", ingest_bytes, "bytes"),
            metric("plan.busy_s", span("plan").0, "s"),
            metric("plan.cache_misses", count(cache.misses), "count"),
            metric(
                "plan.lattice_short_circuits",
                count(short_circuits),
                "count",
            ),
            metric("synth.busy_s", synth_s, "s"),
            metric("synth.commands", count(reports.len()), "count"),
            metric(
                "synth.rounds",
                count(reports.iter().map(|r| r.rounds).sum()),
                "count",
            ),
            metric(
                "synth.observations",
                count(reports.iter().map(|r| r.observations).sum()),
                "count",
            ),
            metric(
                "synth.no_combiner",
                count(reports.iter().filter(|r| r.combiner().is_none()).count()),
                "count",
            ),
            metric("split.busy_s", span("split").0, "s"),
            metric("split.chunks", counts.split_chunks as f64, "count"),
            metric("map.busy_s", span("map").0, "s"),
            metric("map.bytes_in", counts.map_bytes_in as f64, "bytes"),
            metric("map.bytes_out", counts.map_bytes_out as f64, "bytes"),
            metric("fold.push_s", span("fold.push").0, "s"),
            metric("fold.finish_s", span("fold.finish").0, "s"),
            metric("fold.runs", counts.fold_runs as f64, "count"),
            metric("spill.runs", sched.spill_runs as f64, "count"),
            metric("spill.bytes_written", sched.spill_bytes as f64, "bytes"),
            metric(
                "spill.write_amp",
                sched.spill_bytes as f64 / wl.input_bytes.max(1) as f64,
                "ratio",
            ),
            metric("sched.tasks", sched.tasks as f64, "count"),
            metric("sched.recv_stall_s", sched.recv_stall.as_secs_f64(), "s"),
            metric("sched.send_stall_s", sched.send_stall.as_secs_f64(), "s"),
            metric(
                "sched.early_exit_chunks",
                sched.early_exit_chunks as f64,
                "count",
            ),
            metric(
                "sched.idle_frac",
                1.0 - sched.busy.as_secs_f64() / (workers as f64 * last_raw_wall),
                "ratio",
            ),
            metric("oracle.busy_s", oracle_s, "s"),
            metric("oracle.speedup", oracle_s / raw_wall, "ratio"),
            metric("trace.overhead_ratio", median(&traced) / wall, "ratio"),
            metric("run.wall_s", wall, "s"),
            metric("run.setup_s", setup_s, "s"),
        ],
    })
}

/// Scheduler and spill counters summed over a run's stage timings.
#[derive(Default)]
struct SchedTotals {
    tasks: usize,
    recv_stall: Duration,
    send_stall: Duration,
    early_exit_chunks: usize,
    busy: Duration,
    spill_runs: u64,
    spill_bytes: u64,
}

impl SchedTotals {
    fn add(&mut self, result: &ExecutionResult) {
        for stage in result.timings.statements.iter().flatten() {
            if let Some(q) = &stage.queue {
                self.tasks += q.tasks;
                self.recv_stall += q.recv_stall;
                self.send_stall += q.send_stall;
            }
            if let Some(e) = &stage.early_exit {
                self.early_exit_chunks += e.chunks;
            }
            if let Some(s) = &stage.spill {
                self.spill_runs += s.runs_spilled;
                self.spill_bytes += s.bytes_written;
            }
            self.busy += stage.total_work();
        }
    }
}

/// Total seconds and summed `v` of the benchmark's own spans named `name`.
fn span_totals(records: &[Record], name: &str) -> (f64, f64) {
    records
        .iter()
        .filter(|r| r.kind == RecordKind::Span && r.cat == "bench" && r.name == name)
        .fold((0.0, 0.0), |(s, v), r| {
            (s + (r.t1 - r.t0) as f64 * 1e-9, v + r.v.unwrap_or(0.0))
        })
}

/// Times the scan and wordfreq pipelines with the host's GNU tools
/// (`LC_ALL=C`). Reported, never gated: it does not measure this program.
/// `None` for other workloads or when the tools are missing.
fn host_reference(wl: &Workload, oracle: &[crate::workload::Outcome]) -> Option<String> {
    if !matches!(wl.kind, Kind::Scan | Kind::Wordfreq) {
        return None;
    }
    let job = wl.jobs.first()?;
    let t0 = Instant::now();
    let out = std::process::Command::new("sh")
        .arg("-c")
        .arg(&job.text)
        .env("LC_ALL", "C")
        .env("TMPDIR", crate::work_dir())
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output();
    let secs = t0.elapsed().as_secs_f64();
    Some(match out {
        Ok(o) if o.status.success() => format!(
            "kqbench: host GNU reference (LC_ALL=C, not gated): {secs:.3} s, output {} the oracle",
            if oracle.first().is_some_and(|w| w.stdout == o.stdout) {
                "matches"
            } else {
                "differs from"
            }
        ),
        _ => "kqbench: host GNU reference skipped (host tools unavailable)".to_owned(),
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Prints one field of every sample as a summary line (`median … (n=…):
/// every sample`) and returns the median.
fn summarize(name: &str, samples: &[Sample], field: fn(&Sample) -> f64) -> f64 {
    let values: Vec<f64> = samples.iter().map(field).collect();
    let all: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    let mid = median(&values);
    println!(
        "kqbench: {name} median {mid:.4} (n={}): {}",
        values.len(),
        all.join(" ")
    );
    mid
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "scan",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::Scan, 3, 10, true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "scan", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "scan",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn report_json_has_the_contract_keys() {
        let r = Report {
            attempted: 4,
            failed: 0,
            metrics: vec![metric("wall_s", 1.25, "s")],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
