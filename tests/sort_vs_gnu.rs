//! Differential testing of `sort` against the host's GNU sort under
//! `LC_ALL=C`: every flag form the corpus uses, over seeded random inputs
//! with empty lines, heavy duplicates, unterminated last lines, leading
//! blanks, `+`/`-` signs and 20-digit integers. Each form checks the sort
//! itself and `sort -m` of pre-sorted runs (the combiner's `merge`).
//!
//! Skips silently when `sort` cannot be spawned.

use kq_coreutils::{parse_command, ExecContext};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command as Proc, Stdio};

/// The corpus's `sort` flag forms.
const FORMS: [&str; 9] = ["", "-r", "-n", "-rn", "-nr", "-u", "-nu", "-f", "-k1n"];

fn gnu_sort_available() -> bool {
    Proc::new("sort")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Runs host `LC_ALL=C sort ARGS` over `input`.
fn gnu_sort(args: &[&str], input: &str) -> String {
    let mut child = Proc::new("sort")
        .args(args)
        .env("LC_ALL", "C")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sort");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "host sort {args:?} failed");
    String::from_utf8(out.stdout).unwrap()
}

fn ours(form: &str, input: &str) -> String {
    parse_command(&format!("sort {form}"))
        .unwrap()
        .run_str(input, &ExecContext::default())
        .unwrap()
}

/// One random line: numbers (signs, blanks, leading zeros, fractions, up
/// to 20 digits, trailing text), mixed-case words, or an empty line.
fn random_line(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..10) {
        0 => String::new(),
        1..=3 => {
            let words = ["apple", "Apple", "APPLE", "b", "B", "_x", "a b", "zz"];
            words[rng.gen_range(0..words.len())].to_owned()
        }
        4 => {
            let big = [
                "99999999999999999999",
                "10000000000000000000",
                "9999999999999999999",
                "18446744073709551616",
                "-99999999999999999999",
                "-0",
                "0",
                "+0",
                "-",
                "+",
                ".",
                "-.5",
            ];
            big[rng.gen_range(0..big.len())].to_owned()
        }
        _ => {
            let mut l = String::new();
            for _ in 0..rng.gen_range(0..3) {
                l.push(if rng.gen_bool(0.5) { ' ' } else { '\t' });
            }
            match rng.gen_range(0..4) {
                0 => l.push('-'),
                1 => l.push('+'),
                _ => {}
            }
            if rng.gen_bool(0.2) {
                l.push('0');
            }
            for _ in 0..rng.gen_range(0..=20) {
                l.push((b'0' + rng.gen_range(0..10u8)) as char);
            }
            if rng.gen_bool(0.3) {
                l.push('.');
                for _ in 0..rng.gen_range(0..3) {
                    l.push((b'0' + rng.gen_range(0..10u8)) as char);
                }
            }
            if rng.gen_bool(0.3) {
                l.push_str([" x", " apple", "a", " 7"][rng.gen_range(0..4)]);
            }
            l
        }
    }
}

/// A random input: a small pool of lines drawn with replacement (so
/// duplicates are heavy), sometimes without the final newline.
fn random_input(rng: &mut SmallRng) -> String {
    let pool: Vec<String> = (0..rng.gen_range(1..12))
        .map(|_| random_line(rng))
        .collect();
    let mut text: String = (0..rng.gen_range(0..40))
        .map(|_| format!("{}\n", pool[rng.gen_range(0..pool.len())]))
        .collect();
    if rng.gen_bool(0.3) {
        text.pop();
    }
    text
}

/// A private scratch directory for `sort -m` operands, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = std::env::temp_dir().join(format!("kq-sort-vs-gnu-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn write(&self, name: &str, text: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn sort_flag_forms_match_gnu_sort() {
    if !gnu_sort_available() {
        eprintln!("skipping: no sort on this host");
        return;
    }
    let mut rng = SmallRng::seed_from_u64(0x5027);
    for form in FORMS {
        let args: Vec<&str> = form.split_whitespace().collect();
        for case in 0..40 {
            let input = random_input(&mut rng);
            assert_eq!(
                ours(form, &input),
                gnu_sort(&args, &input),
                "sort {form:?} disagrees with GNU sort (case {case}) on {input:?}"
            );
        }
    }
}

#[test]
fn merge_of_sorted_runs_matches_gnu_sort_m() {
    if !gnu_sort_available() {
        eprintln!("skipping: no sort on this host");
        return;
    }
    let scratch = Scratch::new();
    let mut rng = SmallRng::seed_from_u64(0x3E26E);
    for form in FORMS {
        let args: Vec<&str> = form.split_whitespace().collect();
        for case in 0..25 {
            // Runs pre-sorted by the host, some left unterminated.
            let runs: Vec<String> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let mut run = gnu_sort(&args, &random_input(&mut rng));
                    if rng.gen_bool(0.3) {
                        run.pop();
                    }
                    run
                })
                .collect();
            let paths: Vec<PathBuf> = runs
                .iter()
                .enumerate()
                .map(|(i, run)| scratch.write(&format!("run{i}"), run))
                .collect();
            let mut merge_args = args.clone();
            merge_args.push("-m");
            merge_args.extend(paths.iter().map(|p| path_str(p)));
            let gnu = gnu_sort(&merge_args, "");
            let flag_words: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
            let views: Vec<&str> = runs.iter().map(String::as_str).collect();
            let merged = kq_coreutils::sort::merge_streams(&flag_words, &views).unwrap();
            assert_eq!(
                merged, gnu,
                "sort -m {form:?} disagrees with GNU sort -m (case {case}) on {runs:?}"
            );
        }
    }
}
