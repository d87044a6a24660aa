//! `sort` — line sorting with the GNU flag subset used by the corpus:
//! plain, `-n`, `-r`, `-f`, `-u`, `-k1n`-style single keys, `-m` (merge
//! pre-sorted inputs), and the combined forms (`-rn`, `-nr`, `-k1n`).
//!
//! # Comparison model
//!
//! The order mirrors GNU sort under `LC_ALL=C`: the flagged key comparison
//! first, then (absent `-u`) a *last-resort* whole-line byte comparison;
//! `-r` reverses the final result. `-u` keeps the first line of each run of
//! key-equal lines. The plain forms (no `-n`/`-f`/`-k1n`) compare raw
//! bytes directly.
//!
//! `-n` (and `-k1n`, whose key runs from field 1 to the end of the line)
//! is GNU's exact `strnumcmp` order, not a float parse: after leading
//! blanks, an optional `-`, integer digits and an optional `.fraction`.
//! Values compare by sign, then integer digit count and digits (leading
//! zeros stripped), then fraction digits (trailing zeros stripped), so
//! 20-digit integers order exactly and `-0` equals `0`. A leading `+` is
//! not a sign: `+5` has no numeric prefix and counts as zero, like any
//! other non-numeric line.
//!
//! # Where unstable sorting is legal
//!
//! Without `-u` the last-resort byte comparison makes the order total:
//! two lines compare equal only when they are byte-identical, so the
//! permutation an unstable sort picks among equal lines cannot show in the
//! output. Every such form therefore sorts with `sort_unstable_by`. Under
//! `-u` the order is the key alone, lines that differ can compare equal,
//! and stability decides which of them survives — `-u` keeps the stable
//! sort.
//!
//! # Merging
//!
//! The merge mode doubles as the implementation of the combiner DSL's
//! `merge <flags>` operator (`unixMerge` in the paper, realized as
//! `sort -m <flags>`), exposed programmatically via [`merge_streams`]. The
//! merge allocates nothing per line: it gallops — keeps emitting from the
//! winning stream while its next line still beats every other stream's
//! head — and copies each contiguous span of a stream with one append.
//! Ties go to the earlier stream, as GNU `sort -m` does.

use crate::{Bytes, CmdError, ExecContext, UnixCommand};
use std::cmp::Ordering;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SortFlags {
    numeric: bool,
    reverse: bool,
    fold_case: bool,
    unique: bool,
    /// `-k1n`: numeric key from field 1 to the end of the line.
    key_field1_numeric: bool,
}

impl SortFlags {
    /// No key modifier: the order is raw byte order (possibly reversed).
    fn plain(self) -> bool {
        !self.numeric && !self.fold_case && !self.key_field1_numeric
    }
}

/// The `sort` command.
pub struct SortCmd {
    flags: SortFlags,
    merge: bool,
    files: Vec<String>,
    display: String,
}

impl SortCmd {
    /// Parses `sort` arguments.
    pub fn parse(args: &[String]) -> Result<SortCmd, CmdError> {
        let mut flags = SortFlags::default();
        let mut merge = false;
        let mut files = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(opt) = a.strip_prefix("--") {
                if opt.starts_with("parallel=") {
                    // The paper's infrastructure pins sort to one thread;
                    // ours is single-threaded regardless.
                    continue;
                }
                return Err(CmdError::new("sort", format!("unknown option --{opt}")));
            }
            if let Some(body) = a.strip_prefix('-') {
                if body.is_empty() {
                    files.push("-".to_owned());
                    continue;
                }
                let mut chars = body.chars().peekable();
                while let Some(f) = chars.next() {
                    match f {
                        'n' => flags.numeric = true,
                        'r' => flags.reverse = true,
                        'f' => flags.fold_case = true,
                        'u' => flags.unique = true,
                        'm' => merge = true,
                        's' => {} // we are stable by construction
                        'k' => {
                            // Key spec: rest of this word, or next word.
                            let spec: String = chars.by_ref().collect();
                            let spec = if spec.is_empty() {
                                it.next()
                                    .ok_or_else(|| CmdError::new("sort", "missing key spec"))?
                                    .clone()
                            } else {
                                spec
                            };
                            parse_key(&spec, &mut flags)?;
                        }
                        other => {
                            return Err(CmdError::new("sort", format!("unknown flag -{other}")))
                        }
                    }
                }
            } else {
                files.push(a.clone());
            }
        }
        let mut display = String::from("sort");
        for a in args {
            display.push(' ');
            display.push_str(a);
        }
        Ok(SortCmd {
            flags,
            merge,
            files,
            display,
        })
    }
}

fn parse_key(spec: &str, flags: &mut SortFlags) -> Result<(), CmdError> {
    // Supported forms: "1", "1n", "1,1n", "1n,1" — i.e. field one with
    // optional numeric modifier, which is all the corpus uses.
    let first = spec.split(',').next().unwrap_or(spec);
    let field: String = first.chars().take_while(|c| c.is_ascii_digit()).collect();
    let mods: String = spec.chars().filter(|c| c.is_ascii_alphabetic()).collect();
    if field != "1" {
        return Err(CmdError::new(
            "sort",
            format!("unsupported key field {spec:?} (only field 1)"),
        ));
    }
    for m in mods.chars() {
        match m {
            'n' => flags.key_field1_numeric = true,
            'r' => flags.reverse = true,
            'f' => flags.fold_case = true,
            other => {
                return Err(CmdError::new(
                    "sort",
                    format!("unsupported key modifier {other}"),
                ))
            }
        }
    }
    if mods.is_empty() {
        flags.key_field1_numeric = false;
    }
    Ok(())
}

/// Splits a numeric key into `(negative, integer digits, fraction digits)`:
/// leading blanks skipped, only `-` is a sign, leading integer zeros and
/// trailing fraction zeros stripped — so equal values have equal parts —
/// and zero is never negative. A key without digits is zero.
fn numeric_parts(s: &[u8]) -> (bool, &[u8], &[u8]) {
    let mut i = 0;
    while i < s.len() && (s[i] == b' ' || s[i] == b'\t') {
        i += 1;
    }
    let negative = s.get(i) == Some(&b'-');
    if negative {
        i += 1;
    }
    while s.get(i) == Some(&b'0') {
        i += 1;
    }
    let int_start = i;
    while i < s.len() && s[i].is_ascii_digit() {
        i += 1;
    }
    let int = &s[int_start..i];
    let mut frac: &[u8] = &[];
    if s.get(i) == Some(&b'.') {
        let start = i + 1;
        let mut end = start;
        while end < s.len() && s[end].is_ascii_digit() {
            end += 1;
        }
        while end > start && s[end - 1] == b'0' {
            end -= 1;
        }
        frac = &s[start..end];
    }
    let zero = int.is_empty() && frac.is_empty();
    (negative && !zero, int, frac)
}

/// GNU `strnumcmp` order of two numeric keys (see the module docs).
fn numeric_compare(a: &[u8], b: &[u8]) -> Ordering {
    let (neg_a, int_a, frac_a) = numeric_parts(a);
    let (neg_b, int_b, frac_b) = numeric_parts(b);
    match (neg_a, neg_b) {
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (negative, _) => {
            let magnitude = int_a
                .len()
                .cmp(&int_b.len())
                .then_with(|| int_a.cmp(int_b))
                .then_with(|| frac_a.cmp(frac_b));
            if negative {
                magnitude.reverse()
            } else {
                magnitude
            }
        }
    }
}

fn key_compare(a: &str, b: &str, flags: SortFlags) -> Ordering {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if flags.numeric || flags.key_field1_numeric {
        return numeric_compare(a, b);
    }
    if flags.fold_case {
        // GNU -f folds lowercase onto uppercase (byte-wise under C).
        return a
            .iter()
            .map(u8::to_ascii_uppercase)
            .cmp(b.iter().map(u8::to_ascii_uppercase));
    }
    a.cmp(b)
}

/// Full comparator: key order, then last-resort byte order, then `-r`.
fn line_compare(a: &str, b: &str, flags: SortFlags) -> Ordering {
    let primary = key_compare(a, b, flags);
    let ord = if primary != Ordering::Equal || flags.unique {
        primary
    } else {
        a.as_bytes().cmp(b.as_bytes())
    };
    if flags.reverse {
        ord.reverse()
    } else {
        ord
    }
}

/// The line order of `sort <flags>` (the same comparator [`merge_streams`]
/// merges by, ties between streams aside). The partitioned final merge
/// uses it to cut sorted runs at splitter lines: under `-u` it is the key
/// order alone, so every line key-equal to a splitter lands on the same
/// side of a cut.
#[derive(Debug, Clone, Copy)]
pub struct LineOrder(SortFlags);

impl LineOrder {
    /// The order `sort -m <flag_words>` merges by.
    pub fn from_flags(flag_words: &[String]) -> Result<LineOrder, CmdError> {
        Ok(LineOrder(merge_flags(flag_words)?))
    }

    /// Compares two lines (without their newlines).
    pub fn compare(&self, a: &str, b: &str) -> Ordering {
        line_compare(a, b, self.0)
    }
}

/// Output size of sorting or merging `sources` without `-u`: every byte,
/// plus the newline each unterminated source gains.
fn output_len(sources: &[&str]) -> usize {
    sources
        .iter()
        .map(|s| s.len() + usize::from(!s.is_empty() && !s.ends_with('\n')))
        .sum()
}

/// Sorts the lines of `sources` (each source's last line terminated, as
/// GNU sort reads files) in place and writes them out.
fn sort_lines(sources: &[&str], flags: SortFlags) -> String {
    let mut lines: Vec<&str> = sources
        .iter()
        .flat_map(|s| kq_stream::lines_of(s))
        .collect();
    if flags.unique {
        lines.sort_by(|a, b| line_compare(a, b, flags));
    } else if flags.plain() && !flags.reverse {
        lines.sort_unstable();
    } else if flags.plain() {
        lines.sort_unstable_by(|a, b| b.cmp(a));
    } else {
        lines.sort_unstable_by(|a, b| line_compare(a, b, flags));
    }
    let mut out = String::with_capacity(output_len(sources));
    let mut prev: Option<&str> = None;
    for l in lines {
        if flags.unique && prev.is_some_and(|p| key_compare(p, l, flags) == Ordering::Equal) {
            continue;
        }
        out.push_str(l);
        out.push('\n');
        prev = Some(l);
    }
    out
}

fn merge_sorted(streams: &[&str], flags: SortFlags) -> String {
    let mut out = String::with_capacity(output_len(streams));
    merge_sorted_to(streams, flags, usize::MAX, &mut out, &mut |_, _| {
        unreachable!("an unbounded fragment never flushes")
    })
    .expect("in-memory merge sink is infallible");
    out
}

/// The fragment consumer for [`merge_streams_to`]: receives each merged
/// line-aligned fragment plus, per input stream, the count of bytes the
/// merge has consumed from it so far.
pub type MergeSink<'a> = dyn FnMut(&str, &[usize]) -> Result<(), CmdError> + 'a;

/// The emit-based merge behind both [`merge_streams`] (one flat string)
/// and [`merge_streams_to`] (bounded-memory fragments with per-stream
/// progress, so callers holding the streams as mapped regions can release
/// the merged-past prefix while the merge is still running). Merged lines
/// accumulate in `out`; whenever it reaches `fragment_bytes` it goes to
/// `sink` and is cleared. What is left at the end stays in `out`, and the
/// returned per-stream progress is then complete.
fn merge_sorted_to(
    streams: &[&str],
    flags: SortFlags,
    fragment_bytes: usize,
    out: &mut String,
    sink: &mut MergeSink,
) -> Result<Vec<usize>, CmdError> {
    let unique = flags.unique;
    if flags.plain() && !flags.reverse {
        merge_by(streams, unique, |a, b| a.cmp(b), fragment_bytes, out, sink)
    } else if flags.plain() {
        merge_by(streams, unique, |a, b| b.cmp(a), fragment_bytes, out, sink)
    } else {
        let cmp = |a: &str, b: &str| line_compare(a, b, flags);
        merge_by(streams, unique, cmp, fragment_bytes, out, sink)
    }
}

/// The line starting at byte `pos` of `text` (without its newline) and the
/// position after it, or `None` at the end of the text.
fn line_at(text: &str, pos: usize) -> Option<(&str, usize)> {
    if pos >= text.len() {
        return None;
    }
    Some(
        match text.as_bytes()[pos..].iter().position(|&c| c == b'\n') {
            Some(n) => (&text[pos..pos + n], pos + n + 1),
            None => (&text[pos..], text.len()),
        },
    )
}

/// Appends `text[from..to]` (whole lines) to `out`, terminating a final
/// unterminated line.
fn copy_span(out: &mut String, text: &str, from: usize, to: usize) {
    if from < to {
        out.push_str(&text[from..to]);
        if to == text.len() && !text.ends_with('\n') {
            out.push('\n');
        }
    }
}

/// Galloping k-way merge under `cmp` (see [`merge_sorted_to`]). The
/// frontier holds each other stream's head line, sorted descending so the
/// next winner is at the back; the winning stream keeps emitting while its
/// next line still beats the frontier minimum (ties to the lower stream
/// index), and every contiguous run of emitted lines is one `push_str`.
/// Under `unique`, a line `cmp`-equal to the previous output line is
/// skipped (`cmp` is the key order then).
fn merge_by<'s>(
    streams: &[&'s str],
    unique: bool,
    cmp: impl Fn(&str, &str) -> Ordering,
    fragment_bytes: usize,
    out: &mut String,
    sink: &mut MergeSink,
) -> Result<Vec<usize>, CmdError> {
    let beats = |a: &str, ai: usize, b: &str, bi: usize| cmp(a, b).then(ai.cmp(&bi)).is_lt();
    let mut frontier: Vec<(&'s str, usize, usize)> = Vec::with_capacity(streams.len());
    for (i, text) in streams.iter().enumerate() {
        if let Some((line, next)) = line_at(text, 0) {
            frontier.push((line, next, i));
        }
    }
    frontier.sort_by(|a, b| cmp(b.0, a.0).then(b.2.cmp(&a.2)));
    // Bytes of each stream merged so far.
    let mut consumed = vec![0usize; streams.len()];
    let mut prev: Option<&'s str> = None;
    while let Some((mut line, mut next, i)) = frontier.pop() {
        let text = streams[i];
        let mut span = consumed[i];
        loop {
            if unique && prev.is_some_and(|p| cmp(p, line).is_eq()) {
                copy_span(out, text, span, consumed[i]);
                span = next;
            } else {
                prev = Some(line);
            }
            consumed[i] = next;
            if out.len() + (next - span) >= fragment_bytes {
                copy_span(out, text, span, next);
                span = next;
                sink(out, &consumed)?;
                out.clear();
            }
            let Some((following, after)) = line_at(text, next) else {
                break;
            };
            let keeps_winning = frontier
                .last()
                .is_none_or(|&(head, _, hi)| beats(following, i, head, hi));
            if !keeps_winning {
                let pos = frontier.partition_point(|&(head, _, hi)| beats(following, i, head, hi));
                frontier.insert(pos, (following, after, i));
                break;
            }
            (line, next) = (following, after);
        }
        copy_span(out, text, span, consumed[i]);
    }
    Ok(consumed)
}

/// Parses the flags of `sort -m <flag_words>`.
fn merge_flags(flag_words: &[String]) -> Result<SortFlags, CmdError> {
    let mut args: Vec<String> = flag_words.to_vec();
    args.push("-m".to_owned());
    Ok(SortCmd::parse(&args)?.flags)
}

/// Programmatic `sort -m <flags>`: merges pre-sorted streams. This is the
/// `unixMerge` primitive behind the combiner DSL's `merge` operator and the
/// k-way merge used by parallel pipelines (paper §3.5).
pub fn merge_streams(flag_words: &[String], streams: &[&str]) -> Result<String, CmdError> {
    Ok(merge_sorted(streams, merge_flags(flag_words)?))
}

/// Streaming form of [`merge_streams`]: merges pre-sorted streams and
/// hands the output to `sink` in line-aligned fragments of at least
/// `fragment_bytes` (the final fragment may be smaller; each fragment
/// exceeds the threshold by at most one line). Alongside each fragment
/// the sink receives, per stream, how many input bytes the merge has
/// consumed so far — the hook the out-of-core fold uses to drop mapped
/// run pages behind the merge frontier instead of holding every run
/// resident until the end.
pub fn merge_streams_to(
    flag_words: &[String],
    streams: &[&str],
    fragment_bytes: usize,
    sink: &mut MergeSink,
) -> Result<(), CmdError> {
    let flags = merge_flags(flag_words)?;
    let mut out = String::new();
    let consumed = merge_sorted_to(streams, flags, fragment_bytes, &mut out, sink)?;
    if !out.is_empty() {
        sink(&out, &consumed)?;
    }
    Ok(())
}

impl UnixCommand for SortCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    fn reads_stdin(&self) -> bool {
        self.files.is_empty() || self.files.iter().any(|f| f == "-")
    }

    fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::input_str(&input, "sort")?;
        let mut file_texts: Vec<String> = Vec::new();
        for f in self.files.iter().filter(|f| *f != "-") {
            file_texts.push(
                crate::read_file_str(ctx, f, "sort")?
                    .ok_or_else(|| CmdError::new("sort", format!("cannot read: {f}")))?,
            );
        }
        let mut texts = file_texts.iter();
        let sources: Vec<&str> = if self.files.is_empty() {
            vec![input]
        } else {
            self.files
                .iter()
                .map(|f| match f.as_str() {
                    "-" => input,
                    _ => texts.next().expect("one text per file operand").as_str(),
                })
                .collect()
        };
        let out = if self.merge {
            merge_sorted(&sources, self.flags)
        } else {
            sort_lines(&sources, self.flags)
        };
        Ok(Bytes::from(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_command;
    use proptest::prelude::*;

    fn run(cmd: &str, input: &str) -> String {
        parse_command(cmd)
            .unwrap()
            .run_str(input, &ExecContext::default())
            .unwrap()
    }

    #[test]
    fn plain_sort_is_byte_order() {
        assert_eq!(run("sort", "b\nA\na\nB\n"), "A\nB\na\nb\n");
    }

    #[test]
    fn numeric_sort() {
        assert_eq!(run("sort -n", "10\n9\n2\n"), "2\n9\n10\n");
        // Non-numeric lines count as zero and fall back to byte order.
        assert_eq!(run("sort -n", "x\n1\ny\n"), "x\ny\n1\n");
    }

    #[test]
    fn numeric_sort_orders_twenty_digit_integers_exactly() {
        // A float parse rounds both to 1e19 and falls back to byte order,
        // which puts the larger value first.
        let input = "10000000000000000000\n9999999999999999999\n";
        assert_eq!(
            run("sort -n", input),
            "9999999999999999999\n10000000000000000000\n"
        );
        assert_eq!(
            run("sort -rn", input),
            "10000000000000000000\n9999999999999999999\n"
        );
        assert_eq!(
            run("sort -n", "-10000000000000000000\n-9999999999999999999\n"),
            "-10000000000000000000\n-9999999999999999999\n"
        );
    }

    #[test]
    fn numeric_sort_reads_a_leading_plus_as_zero() {
        // GNU: `+` is not a sign, so `+5` has no numeric prefix (zero).
        assert_eq!(run("sort -n", "3\n+5\n-1\n"), "-1\n+5\n3\n");
        assert_eq!(run("sort -n", "+5\n0\n"), "+5\n0\n");
    }

    #[test]
    fn numeric_compare_normalizes_zeros_and_fractions() {
        let eq = |a: &str, b: &str| numeric_compare(a.as_bytes(), b.as_bytes()) == Ordering::Equal;
        assert!(eq("-0", "0"));
        assert!(eq("  007", "7"));
        assert!(eq("1.50", "1.5"));
        assert!(eq("-", "x"));
        assert!(eq(".", "0.000"));
        let lt = |a: &str, b: &str| numeric_compare(a.as_bytes(), b.as_bytes()) == Ordering::Less;
        assert!(lt("1.25", "1.3"));
        assert!(lt("-1.3", "-1.25"));
        assert!(lt("-.5", "0"));
        assert!(lt("\t-2", " -1"));
        assert!(lt("9", "10"));
    }

    #[test]
    fn reverse_numeric_equivalents() {
        let input = "      3 bb\n     10 aa\n      1 cc\n";
        let rn = run("sort -rn", input);
        let nr = run("sort -nr", input);
        assert_eq!(rn, nr);
        assert_eq!(rn, "     10 aa\n      3 bb\n      1 cc\n");
    }

    #[test]
    fn fold_case() {
        assert_eq!(run("sort -f", "b\nA\nB\na\n"), "A\na\nB\nb\n");
        // Folding maps lowercase onto uppercase, so `_` (0x5F) sorts
        // after every letter.
        assert_eq!(run("sort -f", "_\nb\nA\n"), "A\nb\n_\n");
    }

    #[test]
    fn unique_sort() {
        assert_eq!(run("sort -u", "b\na\nb\na\n"), "a\nb\n");
        // -u with -n dedupes by key: 07 and 7 share a numeric key.
        assert_eq!(run("sort -nu", "07\n7\n8\n"), "07\n8\n");
    }

    #[test]
    fn key_field_numeric() {
        let input = "20 x\n3 y\n100 z\n";
        assert_eq!(run("sort -k1n", input), "3 y\n20 x\n100 z\n");
    }

    #[test]
    fn merge_two_sorted_streams_equals_full_sort() {
        let x1 = "a\nc\ne\n";
        let x2 = "b\nc\nd\n";
        let merged = merge_streams(&[], &[x1, x2]).unwrap();
        assert_eq!(merged, run("sort", &format!("{x1}{x2}")));
    }

    #[test]
    fn merge_gallops_across_spans_and_terminates_last_lines() {
        // Long winning spans, an unterminated final line per stream, and
        // cross-stream ties (the earlier stream wins).
        let merged = merge_streams(&[], &["a\na\nb\nc\nx", "a\nd\ne", ""]).unwrap();
        assert_eq!(merged, "a\na\na\nb\nc\nd\ne\nx\n");
        let unique = merge_streams(&["-u".to_owned()], &["a\nb\nb\nc", "b\nc\nd\n"]).unwrap();
        assert_eq!(unique, "a\nb\nc\nd\n");
        let keyed = merge_streams(&["-nu".to_owned()], &["1\n07\n9\n", "7\n8\n"]).unwrap();
        assert_eq!(keyed, "1\n07\n8\n9\n");
    }

    #[test]
    fn sort_terminates_each_file_operand() {
        let ctx = {
            let vfs = crate::Vfs::new();
            vfs.write("f1", "b\nd");
            vfs.write("f2", "a\nc\n");
            ExecContext::with_vfs(vfs)
        };
        let c = parse_command("sort f1 f2").unwrap();
        assert_eq!(c.run_str("", &ctx).unwrap(), "a\nb\nc\nd\n");
    }

    #[test]
    fn merge_respects_flags() {
        let y1 = "9\n2\n"; // sorted under -rn
        let y2 = "10\n1\n";
        let merged = merge_streams(&["-rn".to_owned()], &[y1, y2]).unwrap();
        assert_eq!(merged, "10\n9\n2\n1\n");
    }

    #[test]
    fn merge_streams_to_fragments_reassemble_and_track_progress() {
        let s1 = "a\nc\ne\ng\n";
        let s2 = "b\nd\nf\n";
        let flat = merge_streams(&[], &[s1, s2]).unwrap();
        let mut pieces: Vec<String> = Vec::new();
        let mut last = vec![0usize; 2];
        merge_streams_to(&[], &[s1, s2], 3, &mut |frag, consumed| {
            // Fragments are line-aligned and progress is monotone.
            assert!(frag.ends_with('\n'));
            assert!(consumed[0] >= last[0] && consumed[1] >= last[1]);
            last = consumed.to_vec();
            pieces.push(frag.to_owned());
            Ok(())
        })
        .unwrap();
        assert_eq!(pieces.concat(), flat);
        assert!(pieces.len() > 1, "fragment_bytes=3 must flush mid-merge");
        // After the final fragment everything has been consumed.
        assert_eq!(last, vec![s1.len(), s2.len()]);
        // A sink error propagates.
        let err = merge_streams_to(&[], &[s1, s2], 1, &mut |_, _| {
            Err(CmdError::new("sort", "sink says no"))
        });
        assert!(err.is_err());
    }

    #[test]
    fn merge_command_form() {
        let ctx = {
            let vfs = crate::Vfs::new();
            vfs.write("s1", "a\nc\n");
            vfs.write("s2", "b\nd\n");
            ExecContext::with_vfs(vfs)
        };
        let c = parse_command("sort -m s1 s2").unwrap();
        assert_eq!(c.run_str("", &ctx).unwrap(), "a\nb\nc\nd\n");
        assert!(!c.reads_stdin());
    }

    #[test]
    fn parallel_option_ignored() {
        assert_eq!(run("sort --parallel=1", "b\na\n"), "a\nb\n");
    }

    #[test]
    fn empty_input() {
        assert_eq!(run("sort", ""), "");
        assert_eq!(run("sort -u", "\n\n"), "\n");
    }

    proptest! {
        #[test]
        fn prop_sort_output_is_sorted_permutation(
            lines in proptest::collection::vec("[ -~]{0,10}", 0..40)
        ) {
            let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let out = run("sort", &input);
            let out_lines: Vec<&str> = kq_stream::lines_of(&out).collect();
            let mut expect: Vec<&str> = lines.iter().map(String::as_str).collect();
            expect.sort_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
            prop_assert_eq!(out_lines, expect);
        }

        #[test]
        fn prop_merge_matches_sort_of_concat(
            a in proptest::collection::vec("[a-e]{0,4}", 0..20),
            b in proptest::collection::vec("[a-e]{0,4}", 0..20),
        ) {
            let mk = |v: &[String]| -> String {
                let mut s: Vec<&str> = v.iter().map(String::as_str).collect();
                s.sort_by(|x, y| x.as_bytes().cmp(y.as_bytes()));
                s.iter().map(|l| format!("{l}\n")).collect()
            };
            let (s1, s2) = (mk(&a), mk(&b));
            let merged = merge_streams(&[], &[s1.as_str(), s2.as_str()]).unwrap();
            prop_assert_eq!(merged, run("sort", &format!("{s1}{s2}")));
        }

        #[test]
        fn prop_numeric_sort_values_nondecreasing(
            nums in proptest::collection::vec(-1000i32..1000, 1..30)
        ) {
            let input: String = nums.iter().map(|n| format!("{n}\n")).collect();
            let out = run("sort -n", &input);
            let vals: Vec<i32> = kq_stream::lines_of(&out)
                .map(|l| l.parse().unwrap())
                .collect();
            for w in vals.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }
}
