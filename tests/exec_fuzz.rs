//! Seeded pipeline fuzzer: the dataflow executor against the serial
//! oracle on randomly drawn pipelines and edge-case inputs.
//!
//! The corpus suites check the 70 paper scripts on well-formed generated
//! inputs. This file draws *new* pipelines of 2–5 stages from the commands
//! the corpus uses and feeds them the inputs where chunking goes wrong:
//! an empty file, an unterminated last line, one line longer than the
//! chunk, CRLF line ends, runs of blank lines, and heavy key repetition
//! (any mix of them). Every case must match `run_serial` byte for byte
//! under `run_dataflow` at w ∈ {1, 4} × chunk ∈ {1 B, 700 B, 16 MiB}.
//!
//! Generation is seeded (the proptest shim's fixed seed), so a failure
//! replays exactly; `PROPTEST_CASES` scales the case count (default 48).
//! A failing case prints its script and input — commit it to
//! [`FIXED_CASES`] as a regression fixture alongside the program fix.

use kq_coreutils::ExecContext;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;

/// Stdin-reading commands from the paper corpus (`kq_workloads` scripts),
/// with their corpus flags.
const COMMANDS: &[&str] = &[
    "grep the",
    "grep -v e",
    "grep -c a",
    "grep -i '^[^aeiou]*[aeiou][^aeiou]*$'",
    "grep '[A-Z]'",
    "grep -vi '[aeiou]'",
    "tr A-Z a-z",
    "tr -cs A-Za-z '\\n'",
    "tr -sc '[A-Z][a-z]' '[\\012*]'",
    "tr -d '[:punct:]'",
    "tr -d ','",
    "tr ' ' '\\n'",
    "cut -d ' ' -f 1",
    "cut -d ' ' -f 2",
    "cut -c 1-2",
    "cut -c 1-4",
    "sort",
    "sort -r",
    "sort -rn",
    "sort -u",
    "sort -f",
    "sort -k1n",
    "uniq",
    "uniq -c",
    "wc -l",
    "head -n 1",
    "head -n 3",
    "sed 5q",
    "sed 1d",
    "tail -n 1",
    "rev",
    "awk '{print $2}'",
    "awk '{print NF}'",
    "awk 'length >= 16'",
];

/// Words the inputs are built from: mixed case, digits, punctuation, and
/// multi-byte UTF-8, so `cut -c`, `rev`, `tr` classes and numeric sorts all
/// see their edge cases.
const WORDS: &[&str] = &[
    "the", "The", "land", "of", "light", "x", "a", "apple", "UNIX", "e.g.", "bird,", "42", "7",
    "-3", "zebra", "naïve", "Émile", "b",
];

/// Pipelines that once diverged from serial, kept as regression fixtures:
/// `(script over /in.txt, input)`.
const FIXED_CASES: &[(&str, &str)] = &[
    // A combine fold that no chunk reaches (grep filtered everything,
    // or the file is empty) emitted nothing instead of the command's
    // answer on the empty stream ("0\n").
    (
        "cat /in.txt | head -n 1 | head -n 1 | cut -d ' ' -f 2 | grep '[A-Z]' | grep -c a",
        "naïve of naïve b\n42 zebra bird,\n\n\n\nof land the of\n",
    ),
    ("cat /in.txt | grep Q | wc -l", "of\nb\n"),
    ("cat /in.txt | sort | wc -l", ""),
];

/// Input shape flags, combinable.
const UNTERMINATED: u32 = 1;
const LONG_LINE: u32 = 2;
const CRLF: u32 = 4;
const BLANK_RUNS: u32 = 8;
const FEW_KEYS: u32 = 16;

/// Builds an input from word picks under the `shape` flags; `lines == 0`
/// gives the empty file.
fn build_input(shape: u32, lines: usize, picks: &[usize]) -> String {
    let eol = if shape & CRLF != 0 { "\r\n" } else { "\n" };
    let keys = if shape & FEW_KEYS != 0 {
        2
    } else {
        WORDS.len()
    };
    let mut out = String::new();
    let mut next = picks.iter().cycle();
    for i in 0..lines {
        if shape & LONG_LINE != 0 && i == lines / 2 {
            // Longer than the 700 B chunk: a cut must never split it.
            let start = out.len();
            while out.len() - start < 1_000 {
                out.push_str(WORDS[next.next().unwrap() % keys]);
                out.push(' ');
            }
            out.push_str(eol);
        }
        if shape & BLANK_RUNS != 0 && i % 5 == 2 {
            for _ in 0..(1 + i % 4) {
                out.push_str(eol);
            }
        }
        let words = 1 + next.next().unwrap() % 4;
        let line: Vec<&str> = (0..words)
            .map(|_| WORDS[next.next().unwrap() % keys])
            .collect();
        out.push_str(&line.join(" "));
        out.push_str(eol);
    }
    if shape & UNTERMINATED != 0 {
        out.truncate(out.trim_end_matches(['\r', '\n']).len());
    }
    out
}

thread_local! {
    /// One planner for every case: combiners are cached per command, so
    /// each distinct command synthesizes once per test thread.
    static PLANNER: RefCell<Planner> = RefCell::new(Planner::new(SynthesisConfig::default()));
}

/// A fixed planning sample, so a command's plan never depends on the case
/// input (the oracle checks the *execution*, not plan selection).
fn planning_sample() -> String {
    let picks: Vec<usize> = (0..97).map(|i| i * 7 + 3).collect();
    build_input(0, 60, &picks)
}

/// Runs `script` over `input` serially and under every dataflow
/// configuration, returning the first divergence.
fn check(script: &str, input: &str) -> Result<(), String> {
    let parsed = parse_script(script, &HashMap::new()).map_err(|e| format!("parse: {e}"))?;
    let ctx = ExecContext::default();
    ctx.vfs.write("/in.txt", input);
    let plan = PLANNER.with(|p| p.borrow_mut().plan(&parsed, &ctx, &planning_sample()));
    let serial = run_serial(&parsed, &ctx);
    for workers in [1usize, 4] {
        for chunk_bytes in [1usize, 700, 16 << 20] {
            let opts = DataflowOptions {
                workers,
                chunk: ChunkSizing::Fixed(chunk_bytes),
                queue: QueueCredit::Fixed(2),
                fuse_streamable: true,
                spill: None,
            };
            let got = run_dataflow(&parsed, &plan, &ctx, &opts);
            let config = format!("w={workers} chunk={chunk_bytes}");
            match (&serial, got) {
                (Ok(s), Ok(d)) if s.output == d.output => {}
                (Ok(s), Ok(d)) => {
                    return Err(format!(
                        "{config}: dataflow {:?} != serial {:?}",
                        d.output.as_str(),
                        s.output.as_str()
                    ))
                }
                (Err(_), Err(_)) => {}
                (Ok(_), Err(e)) => return Err(format!("{config}: dataflow failed: {e}")),
                (Err(e), Ok(_)) => {
                    return Err(format!(
                        "{config}: serial failed ({e}) but dataflow succeeded"
                    ))
                }
            }
        }
    }
    Ok(())
}

#[test]
fn fixed_cases_match_serial() {
    for (script, input) in FIXED_CASES {
        if let Err(msg) = check(script, input) {
            panic!("{script:?} on {input:?}: {msg}");
        }
    }
}

#[test]
fn input_shapes_cover_every_edge_case() {
    let picks: Vec<usize> = (0..50).collect();
    assert_eq!(build_input(0, 0, &picks), "");
    assert!(!build_input(UNTERMINATED, 9, &picks).ends_with('\n'));
    assert!(build_input(LONG_LINE, 9, &picks)
        .lines()
        .any(|l| l.len() > 700));
    assert!(build_input(CRLF, 9, &picks).contains("\r\n"));
    assert!(build_input(BLANK_RUNS, 9, &picks).contains("\n\n\n"));
    let few = build_input(FEW_KEYS, 30, &picks);
    let distinct: std::collections::HashSet<&str> = few.split_whitespace().collect();
    assert!(distinct.len() <= 2, "{distinct:?}");
}

proptest! {
    /// Random corpus-command pipelines on edge-case inputs: dataflow at
    /// every worker count and chunk size equals serial.
    #[test]
    fn random_pipelines_match_serial(
        stages in proptest::collection::vec(0..COMMANDS.len(), 2..6),
        shape in 0u32..32,
        lines in 0usize..40,
        picks in proptest::collection::vec(0usize..1000, 1..64),
    ) {
        let pipeline: Vec<&str> = stages.iter().map(|&i| COMMANDS[i]).collect();
        let script = format!("cat /in.txt | {}", pipeline.join(" | "));
        let input = build_input(shape, lines, &picks);
        if let Err(msg) = check(&script, &input) {
            prop_assert!(false, "{script:?} on {input:?}: {msg}");
        }
    }
}
