//! The four workloads: seeded input generation, set-up (ingest plus cold
//! planning), the parallel run, and the serial oracle.
//!
//! The program under test sees only what generation produced: files on
//! disk (ingested through `kq-io` at set-up) or virtual-filesystem
//! contents. The seed never reaches it any other way.

use kq_coreutils::ExecContext;
use kq_dsl::SpillPolicy;
use kq_io::IngestOptions;
use kq_pipeline::exec::{run_serial, ExecutionResult};
use kq_pipeline::parse::parse_script;
use kq_pipeline::{run_dataflow, DataflowOptions, PlannedScript, Planner, Script};
use kq_stream::Bytes;
use kq_synth::SynthesisConfig;
use kq_workloads::{corpus, planning_sample, Scale};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// A workload name, as given to `--workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// All 70 paper scripts through `kq_workloads::setup`.
    Corpus,
    /// Word frequency over book-like text.
    Wordfreq,
    /// A map-only scan plus an early-exit `head`.
    Scan,
    /// A sort barrier under a spill budget.
    Spill,
}

impl Kind {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Kind; 4] = [Kind::Corpus, Kind::Wordfreq, Kind::Scan, Kind::Spill];

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Corpus => "corpus",
            Kind::Wordfreq => "wordfreq",
            Kind::Scan => "scan",
            Kind::Spill => "spill",
        }
    }
}

/// Input sizes. [`Sizes::BENCH`] is what every run uses; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Main input per corpus script.
    pub corpus_script: usize,
    /// The word-frequency text.
    pub wordfreq: usize,
    /// The scan file.
    pub scan: usize,
    /// The spill file.
    pub spill: usize,
    /// The spill workload's budget for resident sorted runs.
    pub spill_budget: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const BENCH: Sizes = Sizes {
        corpus_script: 256 << 10,
        wordfreq: 16 << 20,
        scan: 32 << 20,
        spill: 64 << 20,
        spill_budget: 16 << 20,
    };
}

/// The pipeline text of each file workload; `{f}` is the input file.
fn pipeline_text(kind: Kind) -> &'static str {
    match kind {
        Kind::Wordfreq => {
            "cat {f} | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 10\n"
        }
        Kind::Scan => {
            "cat {f} | grep word1 | tr a-z A-Z | wc -l\ncat {f} | grep needle | head -n 1\n"
        }
        Kind::Spill => "cat {f} | sort | uniq -c | sort -rn | head -n 5\n",
        Kind::Corpus => unreachable!("the corpus has its own scripts"),
    }
}

/// One script of a workload with its generated inputs.
pub struct Job {
    /// `suite/id` for corpus scripts, the workload name otherwise.
    pub id: String,
    /// The script text (shell syntax).
    pub text: String,
    /// The parsed script.
    pub script: Script,
    /// Generated virtual-filesystem contents (corpus inputs).
    pub base: ExecContext,
    /// Host files ingested through `kq-io` at every set-up.
    pub files: Vec<String>,
    /// The planning sample: a line-aligned prefix of the main input.
    pub sample: String,
}

/// A generated workload. Dropping it deletes the files it wrote.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Its scripts.
    pub jobs: Vec<Job>,
    /// The spill budget, for the spill workload only.
    pub spill: Option<SpillPolicy>,
    /// Total generated input bytes.
    pub input_bytes: u64,
    /// Digest of every generated input byte and path.
    pub digest: u64,
    written: Vec<PathBuf>,
}

/// What a script run produced: stdout plus every redirect target.
#[derive(Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Standard output.
    pub stdout: Vec<u8>,
    /// `(target, content)` for every `> file` statement, in script order;
    /// `None` when the run left no such file.
    pub files: Vec<(String, Option<Vec<u8>>)>,
}

/// A set-up: per-job contexts holding the ingested inputs, the plans, and
/// the planner that made them (with a cache that was empty at the start).
pub struct Prepared {
    /// One context per job.
    pub ctxs: Vec<ExecContext>,
    /// One plan per job.
    pub plans: Vec<PlannedScript>,
    /// The planner, for its cache statistics and synthesis reports.
    pub planner: Planner,
}

impl Workload {
    /// Generates the workload's inputs from `seed`, writing host files
    /// under `dir`.
    pub fn generate(kind: Kind, seed: u64, sizes: &Sizes, dir: &Path) -> Result<Workload, String> {
        let mut wl = Workload {
            kind,
            jobs: Vec::new(),
            spill: None,
            input_bytes: 0,
            digest: FNV_OFFSET,
            written: Vec::new(),
        };
        if kind == Kind::Corpus {
            let scale = Scale {
                input_bytes: sizes.corpus_script,
            };
            for script in corpus() {
                let id = format!("{}/{}", script.suite.dir(), script.id);
                let base = ExecContext::default();
                let env = kq_workloads::setup(script, &base, &scale, seed);
                let parsed = parse_script(script.text, &env).map_err(|e| format!("{id}: {e}"))?;
                let main = base
                    .vfs
                    .read(&env["IN"])
                    .ok_or_else(|| format!("{id}: no $IN input generated"))?;
                for path in base.vfs.paths() {
                    let content = base.vfs.read_bytes(&path).expect("listed path exists");
                    wl.input_bytes += content.len() as u64;
                    wl.digest = fnv(fnv(wl.digest, path.as_bytes()), content.as_bytes());
                }
                wl.jobs.push(Job {
                    id,
                    text: script.text.to_owned(),
                    script: parsed,
                    base,
                    files: Vec::new(),
                    sample: planning_sample(&main, 16_000).to_owned(),
                });
            }
            return Ok(wl);
        }
        let text = match kind {
            Kind::Wordfreq => kq_workloads::inputs::gutenberg_text(sizes.wordfreq, seed),
            Kind::Scan => scan_text(sizes.scan, seed),
            Kind::Spill => scan_text(sizes.spill, seed),
            Kind::Corpus => unreachable!("handled above"),
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-{seed}.txt", kind.name()));
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        wl.written.push(path.clone());
        let file = path
            .to_str()
            .ok_or_else(|| format!("{}: not UTF-8", path.display()))?
            .to_owned();
        let script_text = pipeline_text(kind).replace("{f}", &shell_quote(&file));
        let script =
            parse_script(&script_text, &HashMap::new()).map_err(|e| format!("{kind:?}: {e}"))?;
        wl.input_bytes = text.len() as u64;
        wl.digest = fnv(wl.digest, text.as_bytes());
        if kind == Kind::Spill {
            let spill_dir = dir.join(format!("spill-{}", std::process::id()));
            std::fs::create_dir_all(&spill_dir)
                .map_err(|e| format!("{}: {e}", spill_dir.display()))?;
            wl.spill = Some(SpillPolicy {
                budget_bytes: sizes.spill_budget,
                dir: Some(spill_dir),
            });
        }
        wl.jobs.push(Job {
            id: kind.name().to_owned(),
            text: script_text,
            script,
            base: ExecContext::default(),
            files: vec![file],
            sample: planning_sample(&text, 64 << 10).to_owned(),
        });
        Ok(wl)
    }

    /// Set-up: ingests the host files and plans every job with one planner
    /// whose combiner cache starts empty.
    pub fn setup(&self, workers: usize) -> Result<Prepared, String> {
        let ctxs = self.contexts()?;
        let mut planner = Planner::new(SynthesisConfig {
            workers,
            ..SynthesisConfig::default()
        });
        let plans = self
            .jobs
            .iter()
            .zip(&ctxs)
            .map(|(job, ctx)| planner.plan(&job.script, ctx, &job.sample))
            .collect();
        Ok(Prepared {
            ctxs,
            plans,
            planner,
        })
    }

    /// One context per job, as a new invocation of the program sees it:
    /// the generated contents plus the host files ingested anew through
    /// `kq-io`.
    pub fn contexts(&self) -> Result<Vec<ExecContext>, String> {
        self.jobs
            .iter()
            .map(|job| {
                let ctx = copy_ctx(&job.base);
                for file in &job.files {
                    let span = kq_trace::span("bench", "ingest");
                    let bytes = kq_io::read_path_text(file, &IngestOptions::default())
                        .map_err(|e| format!("{file}: {e}"))?;
                    span.v(bytes.len() as f64).done();
                    ctx.vfs.write(file.clone(), bytes);
                }
                Ok(ctx)
            })
            .collect()
    }

    /// Copies of the set-up's contexts, without ingesting again.
    pub fn copies(&self, prep: &Prepared) -> Vec<ExecContext> {
        prep.ctxs.iter().map(copy_ctx).collect()
    }

    /// Runs every job on the dataflow executor, one after another.
    pub fn run_parallel(
        &self,
        prep: &Prepared,
        ctxs: &[ExecContext],
        opts: &DataflowOptions,
    ) -> Vec<Result<ExecutionResult, String>> {
        self.jobs
            .iter()
            .zip(&prep.plans)
            .zip(ctxs)
            .map(|((job, plan), ctx)| {
                run_dataflow(&job.script, plan, ctx, opts).map_err(|e| format!("{}: {e}", job.id))
            })
            .collect()
    }

    /// The serial oracle's outcome for every job.
    pub fn oracle(&self, prep: &Prepared) -> Result<Vec<Outcome>, String> {
        let ctxs = self.copies(prep);
        self.jobs
            .iter()
            .zip(&ctxs)
            .map(|(job, ctx)| {
                let span = kq_trace::span("bench", "oracle");
                let result = run_serial(&job.script, ctx);
                span.done();
                let result = result.map_err(|e| format!("{} (serial oracle): {e}", job.id))?;
                Ok(self.outcome(job, ctx, &result.output))
            })
            .collect()
    }

    /// Collects a finished run's stdout and redirect targets.
    pub fn outcome(&self, job: &Job, ctx: &ExecContext, stdout: &Bytes) -> Outcome {
        let files = job
            .script
            .statements
            .iter()
            .filter_map(|s| s.output.clone())
            .map(|t| {
                let content = ctx.vfs.read_bytes(&t).map(|b| b.as_bytes().to_vec());
                (t, content)
            })
            .collect();
        Outcome {
            stdout: stdout.as_bytes().to_vec(),
            files,
        }
    }

    /// Records one run of every job in `tally`.
    pub fn record(
        &self,
        tally: &mut Tally,
        ctxs: &[ExecContext],
        results: &[Result<ExecutionResult, String>],
    ) {
        for (index, ((job, ctx), result)) in self.jobs.iter().zip(ctxs).zip(results).enumerate() {
            let outcome = match result {
                Ok(r) => Ok(self.outcome(job, ctx, &r.output)),
                Err(e) => Err(e.clone()),
            };
            tally.record(index, outcome);
        }
    }
}

/// The oracle gate. Runs are recorded as they finish; each job keeps one
/// copy of every distinct outcome it produced, with how many runs produced
/// it, so the serial oracle can run after all timed runs and still check
/// every run byte for byte. Normally each job keeps exactly one outcome.
pub struct Tally {
    ids: Vec<String>,
    seen: Vec<Vec<(Outcome, usize)>>,
    errors: usize,
    attempted: usize,
}

impl Tally {
    /// An empty tally for the jobs of `wl`.
    pub fn new(wl: &Workload) -> Tally {
        Tally {
            ids: wl.jobs.iter().map(|j| j.id.clone()).collect(),
            seen: wl.jobs.iter().map(|_| Vec::new()).collect(),
            errors: 0,
            attempted: 0,
        }
    }

    /// Records one run of job `index`: its outcome, or the error it
    /// returned. An error is a failure; it is never retried or dropped.
    pub fn record(&mut self, index: usize, result: Result<Outcome, String>) {
        self.attempted += 1;
        match result {
            Err(e) => {
                eprintln!("kqbench: {e}");
                self.errors += 1;
            }
            Ok(outcome) => match self.seen[index].iter_mut().find(|(o, _)| *o == outcome) {
                Some((_, runs)) => *runs += 1,
                None => self.seen[index].push((outcome, 1)),
            },
        }
    }

    /// Runs recorded.
    pub fn attempted(&self) -> usize {
        self.attempted
    }

    /// Runs that errored or whose outcome differs from the oracle's.
    pub fn failed(&self, oracle: &[Outcome]) -> usize {
        let mut failed = self.errors;
        for ((id, seen), want) in self.ids.iter().zip(&self.seen).zip(oracle) {
            for (outcome, runs) in seen {
                if outcome != want {
                    eprintln!("kqbench: {id}: {runs} run(s) differ from the serial oracle");
                    failed += runs;
                }
            }
        }
        failed
    }
}

impl Drop for Workload {
    fn drop(&mut self) {
        for path in &self.written {
            let _ = std::fs::remove_file(path);
        }
        if let Some(dir) = self.spill.as_ref().and_then(|p| p.dir.as_ref()) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A new context holding the same files as `base` (refcount copies).
fn copy_ctx(base: &ExecContext) -> ExecContext {
    let ctx = ExecContext::default();
    for path in base.vfs.paths() {
        let content = base.vfs.read_bytes(&path).expect("listed path exists");
        let kind = base.vfs.file_type(&path).expect("listed path exists");
        ctx.vfs.write_typed(path, content, kind);
    }
    ctx
}

fn shell_quote(word: &str) -> String {
    if word
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b"/._-".contains(&b))
    {
        word.to_owned()
    } else {
        format!("'{}'", word.replace('\'', r"'\''"))
    }
}

/// The shape of the CI out-of-core file (`word<k> tail<j> filler...`),
/// seeded, with a rare `needle` line about once per 50 000 lines.
pub fn scan_text(target_bytes: usize, seed: u64) -> String {
    let mut rng = SplitMix64(seed ^ 0x5ca7);
    let mut out = String::with_capacity(target_bytes + 64);
    while out.len() < target_bytes {
        let r = rng.next();
        let (word, tail) = (r % 13, (r >> 8) % 7);
        let filler = if (r >> 16).is_multiple_of(50_000) {
            "needle-in-the-line"
        } else {
            "filler-to-widen-the-line"
        };
        out.push_str(&format!("word{word} tail{tail} {filler}\n"));
    }
    out
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes {
        corpus_script: 4 << 10,
        wordfreq: 64 << 10,
        scan: 256 << 10,
        spill: 64 << 10,
        spill_budget: 16 << 10,
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let dir = crate::work_dir().join(format!("seed-test-{}", std::process::id()));
        for kind in Kind::ALL {
            let digest = |seed| Workload::generate(kind, seed, &SMALL, &dir).unwrap().digest;
            assert_eq!(digest(7), digest(7), "{kind:?}: same seed, other inputs");
            assert_ne!(digest(7), digest(8), "{kind:?}: other seed, same inputs");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tally_counts_errors_and_every_run_that_differs() {
        let dir = crate::work_dir().join(format!("tally-test-{}", std::process::id()));
        let wl = Workload::generate(Kind::Scan, 1, &SMALL, &dir).unwrap();
        let out = |s: &str| Outcome {
            stdout: s.as_bytes().to_vec(),
            files: Vec::new(),
        };
        let mut tally = Tally::new(&wl);
        for result in [Ok(out("a")), Ok(out("b")), Ok(out("a")), Ok(out("b"))] {
            tally.record(0, result);
        }
        tally.record(0, Err("boom".into()));
        assert_eq!(tally.attempted(), 5);
        assert_eq!(tally.failed(&[out("a")]), 3);
        assert_eq!(tally.failed(&[out("c")]), 5);
        drop(wl);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_text_has_needles_and_the_ci_shape() {
        let text = scan_text(8 << 20, 1);
        assert!(text.len() >= 8 << 20);
        assert!(text
            .lines()
            .all(|l| l.starts_with("word") && l.contains(" tail")));
        assert!(text.contains("needle"));
    }
}
