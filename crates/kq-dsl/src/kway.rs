//! k-way combining (paper §3.5, "Combining Multiple Substreams").
//!
//! Synthesized combiners are binary, but parallel execution produces `k`
//! output substreams. Three combiners generalize natively — `concat` is
//! `cat $*`, `merge <flags>` is `sort -m <flags> $*`, and `rerun` is one
//! re-execution over the concatenation — while every other combiner is
//! applied pairwise, folding left until one stream remains.

use crate::ast::{Candidate, Combiner, RecOp, RunOp};
use crate::eval::{eval, EvalError, RunEnv};
use crate::spill::SpillConfig;
use kq_stream::{Bytes, ReleaseCursor};

/// Text view of a substream for the string-semantic combiners; a
/// non-UTF-8 piece is a domain error, not a panic.
fn view(piece: &Bytes) -> Result<&str, EvalError> {
    piece
        .to_str()
        .map_err(|_| EvalError::Command("substream is not valid UTF-8".to_owned()))
}

/// How a binary combiner is generalized to `k` substreams.
///
/// The paper (§3.5) specifies the `Flat` behaviour — native k-way
/// implementations for `concat`/`merge`/`rerun`, pairwise application
/// "until only one substream remains" for everything else — but leaves the
/// pairwise order open. The other two strategies make that order explicit
/// so the ablation bench can measure the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineStrategy {
    /// Native k-way where available (`cat $*`, `sort -m $*`, one rerun),
    /// balanced tree fold otherwise. This is what execution uses.
    Flat,
    /// Balanced pairwise tree for *every* combiner: each byte is touched
    /// `O(log k)` times.
    TreeFold,
    /// Left fold, combining the accumulator with one piece at a time: the
    /// accumulator is re-traversed at every step (`O(n·k)` bytes for
    /// `concat`-like combiners) — the naive reading of "apply the combiner
    /// on two substreams repeatedly".
    FoldLeft,
}

/// Combines `k` parallel output substreams with the given candidate using
/// the default [`CombineStrategy::Flat`] strategy.
///
/// Empty substreams (a worker that received no lines) are skipped: they
/// contribute nothing to the combined stream, matching the behaviour of
/// the shell implementations (`cat`/`sort -m` of empty files).
///
/// Pieces arrive and leave as [`Bytes`]: a single surviving piece is
/// returned by refcount bump, k-way `concat` gathers the segments with at
/// most one memcpy ([`Rope::into_bytes`]), and `rerun` hands the gathered
/// stream to the command without an extra owned-string round trip.
pub fn combine_all(
    candidate: &Candidate,
    pieces: &[Bytes],
    env: &dyn RunEnv,
) -> Result<Bytes, EvalError> {
    combine_all_with(CombineStrategy::Flat, candidate, pieces, env)
}

/// Combines `k` substreams with an explicit [`CombineStrategy`].
pub fn combine_all_with(
    strategy: CombineStrategy,
    candidate: &Candidate,
    pieces: &[Bytes],
    env: &dyn RunEnv,
) -> Result<Bytes, EvalError> {
    let live: Vec<&Bytes> = pieces.iter().filter(|p| !p.is_empty()).collect();
    match live.as_slice() {
        [] => return Ok(Bytes::new()),
        [one] => return Ok((*one).clone()),
        _ => {}
    }
    if strategy == CombineStrategy::Flat {
        match &candidate.op {
            // concat == `cat $*`: a segment gather, no pairwise work.
            Combiner::Rec(RecOp::Concat) => {
                let mut ordered = live;
                if candidate.swapped {
                    ordered.reverse();
                }
                return Ok(kq_stream::concat_bytes(ordered));
            }
            // merge == `sort -m <flags> $*`: borrow the piece text in
            // place (no per-piece copies).
            Combiner::Run(RunOp::Merge(flags)) => {
                let views: Vec<&str> = live.iter().map(|p| view(p)).collect::<Result<_, _>>()?;
                return env.merge(flags, &views).map(Bytes::from);
            }
            // rerun == gather everything, re-run `f` once on the bytes.
            Combiner::Run(RunOp::Rerun) => {
                return env.rerun_bytes(kq_stream::concat_bytes(live));
            }
            _ => {}
        }
    }
    match strategy {
        CombineStrategy::FoldLeft => {
            let mut acc = live[0].clone();
            for piece in &live[1..] {
                let (x, y) = candidate.oriented(view(&acc)?, view(piece)?);
                acc = Bytes::from(eval(&candidate.op, x, y, env)?);
            }
            Ok(acc)
        }
        // Tree fold: touches each byte O(log k) times, matching the
        // paper's observation that pairwise application "until only one
        // substream remains" stays cheap. Leaves enter the tree as
        // refcounted slices; only combined intermediates are owned.
        CombineStrategy::Flat | CombineStrategy::TreeFold => {
            let mut level: Vec<Bytes> = live.into_iter().cloned().collect();
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                let mut it = level.chunks(2);
                for pair in &mut it {
                    match pair {
                        [a, b] => {
                            let (x, y) = candidate.oriented(view(a)?, view(b)?);
                            next.push(Bytes::from(eval(&candidate.op, x, y, env)?));
                        }
                        [a] => next.push(a.clone()),
                        _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                    }
                }
                level = next;
            }
            Ok(level.pop().expect("at least one piece"))
        }
    }
}

/// Combines two adjacent substream groups with a binary combiner (the
/// earlier group is the left argument; [`Candidate::oriented`] handles
/// swapped combiners).
fn combine_pair(
    candidate: &Candidate,
    env: &dyn RunEnv,
    earlier: &Bytes,
    later: &Bytes,
) -> Result<Bytes, EvalError> {
    let (x, y) = candidate.oriented(view(earlier)?, view(later)?);
    eval(&candidate.op, x, y, env).map(Bytes::from)
}

/// Incremental k-way combining: substreams are folded *as they arrive*
/// instead of being gathered first.
///
/// [`combine_all`] needs the complete piece list, which forces a
/// pipelined executor to buffer a stage's whole output before combining —
/// exactly the barrier this type removes. Pieces are pushed in stream
/// order and the combine work happens inside [`push`](IncrementalFold::push),
/// overlapping with whatever produces the pieces; [`finish`](IncrementalFold::finish)
/// only settles the remainder.
///
/// Strategy per combiner (mirroring [`CombineStrategy::Flat`]):
///
/// * unswapped `concat` — pieces accumulate in a segment list; `finish`
///   is the single gather memcpy (zero work per push);
/// * `rerun` — pieces are gathered and the command re-executes once at
///   `finish` (pairwise rerun would re-run the command per piece on a
///   growing accumulator, O(n·k) command work);
/// * `merge` — run accumulation: arrivals are k-way merged into one
///   sorted run as soon as enough of them exist, and `finish` merges the
///   runs together with the leftover pending pieces in one flat merge.
///   Without a spill config a run forms every [`MERGE_RUN_ARITY`]
///   pieces; under one, runs are sized to the budget instead — pieces
///   accumulate until their bytes reach a quarter of
///   [`SpillConfig::budget_bytes`] (capped at [`MERGE_RUN_MAX_PIECES`]
///   pieces), so a spilling sort writes few large runs and `finish` faces
///   a small merge frontier rather than one run per arity-batch of
///   arrivals. Each byte moves through at most two merges (versus one for
///   the all-at-once merge — that's the price of overlapping — and
///   `log k` for a pairwise tree). The merges are `sort -m` under the
///   command's own order (see `kq_coreutils::sort`: exact GNU numeric
///   order for `-n`, key order alone under `-u`), with ties broken by
///   stream index — earlier data first — so any grouping of adjacent
///   pieces into runs is byte-identical to one flat merge. An unspilled
///   fold can also hand its final merge back as independent key ranges
///   ([`finish_ranges`](IncrementalFold::finish_ranges)) for a caller
///   with a worker pool to merge in parallel; a fold that spilled keeps
///   the sequential, arity-bounded merge waves that bound its memory;
/// * everything else (the structural stitches, arithmetic folds) — a
///   binary-counter tree fold: slot *i* holds a combined group of `2^i`
///   adjacent pieces, so each push performs O(1) amortized combines and
///   every byte is touched O(log k) times, matching the tree-fold cost.
///   Under a spill config the slot groups are budget-accounted like merge
///   runs: a stored group that would push the resident slot bytes past
///   the budget goes to a temp file and lives in its slot as a mapped
///   slice, so `uniq -c`-style accumulators no longer grow the heap with
///   their output size.
///
/// All of these combiners are associative on adjacent pieces of a split
/// stream (see `strategies_agree_on_corpus_combiners` and the
/// `combine_strategies_agree_on_split_pieces` property), so the fold
/// grouping cannot change the result.
pub struct IncrementalFold<'a> {
    candidate: &'a Candidate,
    env: &'a dyn RunEnv,
    state: FoldState,
    spill: Option<SpillConfig>,
}

/// Pieces per intermediate merge run (see [`IncrementalFold`]) when no
/// spill budget informs the sizing: wide enough that small piece counts
/// degenerate to the single flat merge (no redundant pass), small enough
/// that run merging genuinely overlaps with piece production on long
/// streams. Also the per-wave input bound of the out-of-core run merge.
pub const MERGE_RUN_ARITY: usize = 32;

/// Ceiling on pieces per merge run under budget-derived sizing: bounds the
/// arity of each run-forming k-way merge (and its per-piece bookkeeping)
/// when the budget allows very large runs of very small pieces.
pub const MERGE_RUN_MAX_PIECES: usize = 1024;

/// The budget-derived run-size target in bytes, when a spill config is
/// present: a quarter of the budget, so a spilling fold keeps at most a
/// handful of in-progress/resident runs while still writing runs that are
/// orders of magnitude larger than arriving pieces (a 64 MiB budget makes
/// 16 MiB runs instead of one run per [`MERGE_RUN_ARITY`] chunks).
fn merge_run_target(spill: &Option<SpillConfig>) -> Option<usize> {
    spill.as_ref().map(|cfg| (cfg.budget_bytes / 4).max(1))
}

enum FoldState {
    /// Unswapped concat: a segment list, gathered once at finish.
    Concat(Vec<Bytes>),
    /// Rerun: gather everything, one re-execution at finish.
    Gather(Vec<Bytes>),
    /// Merge: k-way merge pending pieces into a run once they reach the
    /// run-size trigger — [`merge_run_target`] bytes (`pending_bytes`
    /// tracks that) under a spill config, [`MERGE_RUN_ARITY`] pieces
    /// otherwise; finish merges the runs (earlier runs first, keeping
    /// the stability tiebreak of one flat merge). Under a spill config a
    /// run that would push the heap-resident total (`heap_bytes`) past the
    /// budget goes to a temp file instead and lives in `runs` as a mapped
    /// slice; once any run has spilled (`spilled`), finish streams the
    /// final merge through a temp file too, so the heap never holds more
    /// than the budget plus one pending run.
    Merge {
        runs: Vec<Bytes>,
        pending: Vec<Bytes>,
        pending_bytes: usize,
        heap_bytes: usize,
        spilled: bool,
    },
    /// Binary-counter tree: slot `i` is a combined run of `2^i` adjacent
    /// pieces (higher slots hold earlier data). Under a spill config the
    /// stored groups are budget-accounted (`heap_bytes`) and spill to
    /// mapped slices like merge runs do.
    Counter {
        slots: Vec<Option<Bytes>>,
        heap_bytes: usize,
        spilled: bool,
    },
}

impl<'a> IncrementalFold<'a> {
    /// An empty fold for `candidate` (finishing immediately yields the
    /// empty stream, like [`combine_all`] on no pieces).
    pub fn new(candidate: &'a Candidate, env: &'a dyn RunEnv) -> IncrementalFold<'a> {
        IncrementalFold::new_with_spill(candidate, env, None)
    }

    /// Like [`new`](IncrementalFold::new), but with a spill policy: merge
    /// runs are sized to the budget ([`merge_run_target`]) and go to temp
    /// files once the heap-resident run bytes would cross
    /// `spill.budget_bytes`, and a fold that spilled streams its final
    /// merge through a temp file as well (see [`crate::spill`]).
    /// Counter-tree folds (`uniq -c` stitches, arithmetic) account their
    /// stored slot groups against the same budget and spill them as mapped
    /// slices. Only `concat`/`rerun` ignore the config — their
    /// accumulation is inherently a gather.
    pub fn new_with_spill(
        candidate: &'a Candidate,
        env: &'a dyn RunEnv,
        spill: Option<SpillConfig>,
    ) -> IncrementalFold<'a> {
        let state = match &candidate.op {
            Combiner::Rec(RecOp::Concat) if !candidate.swapped => FoldState::Concat(Vec::new()),
            Combiner::Run(RunOp::Rerun) => FoldState::Gather(Vec::new()),
            Combiner::Run(RunOp::Merge(_)) => FoldState::Merge {
                runs: Vec::new(),
                pending: Vec::new(),
                pending_bytes: 0,
                heap_bytes: 0,
                spilled: false,
            },
            _ => FoldState::Counter {
                slots: Vec::new(),
                heap_bytes: 0,
                spilled: false,
            },
        };
        IncrementalFold {
            candidate,
            env,
            state,
            spill,
        }
    }

    /// Folds in the next substream (empty pieces are skipped, as in
    /// [`combine_all`]). Combine errors surface immediately.
    pub fn push(&mut self, piece: Bytes) -> Result<(), EvalError> {
        if piece.is_empty() {
            return Ok(());
        }
        let (candidate, env) = (self.candidate, self.env);
        match &mut self.state {
            FoldState::Concat(segments) | FoldState::Gather(segments) => segments.push(piece),
            FoldState::Merge {
                runs,
                pending,
                pending_bytes,
                heap_bytes,
                spilled,
            } => {
                *pending_bytes += piece.len();
                pending.push(piece);
                let cut = match merge_run_target(&self.spill) {
                    Some(target) => {
                        *pending_bytes >= target || pending.len() >= MERGE_RUN_MAX_PIECES
                    }
                    None => pending.len() >= MERGE_RUN_ARITY,
                };
                if cut {
                    let run = combine_all(candidate, pending, env)?;
                    pending.clear();
                    *pending_bytes = 0;
                    let run = maybe_spill_run(run, &self.spill, heap_bytes, spilled)?;
                    runs.push(run);
                }
            }
            FoldState::Counter {
                slots,
                heap_bytes,
                spilled,
            } => {
                let mut carry = piece;
                for slot in slots.iter_mut() {
                    match slot.take() {
                        None => {
                            *slot = Some(store_group(carry, &self.spill, heap_bytes, spilled)?);
                            return Ok(());
                        }
                        Some(earlier) => {
                            if !earlier.is_mmap_backed() {
                                *heap_bytes = heap_bytes.saturating_sub(earlier.len());
                            }
                            carry = combine_pair(candidate, env, &earlier, &carry)?;
                        }
                    }
                }
                let carry = store_group(carry, &self.spill, heap_bytes, spilled)?;
                slots.push(Some(carry));
            }
        }
        Ok(())
    }

    /// Settles the fold into the combined stream (empty when nothing was
    /// pushed).
    pub fn finish(self) -> Result<Bytes, EvalError> {
        let IncrementalFold {
            candidate,
            env,
            state,
            spill,
        } = self;
        match state {
            // Only constructed for unswapped concat: stream order is
            // output order.
            FoldState::Concat(segments) => Ok(kq_stream::concat_bytes(&segments)),
            FoldState::Gather(segments) => combine_all(candidate, &segments, env),
            FoldState::Merge {
                mut runs,
                pending,
                pending_bytes,
                mut heap_bytes,
                mut spilled,
            } => {
                if !finish_spills(&spill, spilled, heap_bytes, pending_bytes) {
                    runs.extend(pending);
                    return combine_all(candidate, &runs, env);
                }
                if !pending.is_empty() {
                    let run = combine_all(candidate, &pending, env)?;
                    let run = maybe_spill_run(run, &spill, &mut heap_bytes, &mut spilled)?;
                    runs.push(run);
                }
                if !spilled {
                    return combine_all(candidate, &runs, env);
                }
                let cfg = spill.as_ref().expect("a run spilled without a config");
                merge_spilled_runs(candidate, env, runs, cfg)
            }
            FoldState::Counter {
                slots,
                mut heap_bytes,
                mut spilled,
            } => {
                // Low slots hold later data: combine upward so each slot
                // (an earlier group) becomes the left argument. At most
                // `log k` intermediates form; each stays budget-accounted
                // so the closing combine chain cannot regrow the heap the
                // incremental pushes kept bounded.
                let mut acc: Option<Bytes> = None;
                for earlier in slots.into_iter().flatten() {
                    acc = Some(match acc {
                        None => earlier,
                        Some(later) => {
                            for consumed in [&earlier, &later] {
                                if !consumed.is_mmap_backed() {
                                    heap_bytes = heap_bytes.saturating_sub(consumed.len());
                                }
                            }
                            let combined = combine_pair(candidate, env, &earlier, &later)?;
                            store_group(combined, &spill, &mut heap_bytes, &mut spilled)?
                        }
                    });
                }
                Ok(acc.unwrap_or_default())
            }
        }
    }

    /// Settles like [`finish`](IncrementalFold::finish), except that the
    /// final merge of an unspilled `merge` fold comes back cut into at
    /// most `parts` key ranges ([`FoldFinish::Ranges`]) for the caller to
    /// merge in parallel. The leftover pending pieces join the runs as
    /// runs of their own, so no serial pending merge precedes the ranges.
    ///
    /// `parts - 1` splitter lines are sampled from the runs, and every run
    /// is cut at each splitter by a binary search over its line starts
    /// that sends every line ordered at or before the splitter left (an
    /// upper bound). Lines equal to a splitter — key-equal under `-u` —
    /// therefore all land in one range, where the stream-index tiebreak
    /// and `-u` deduplication work exactly as in the flat merge; the
    /// range outputs, concatenated in order, are byte-identical to it.
    ///
    /// Every other fold — other combiners, `parts <= 1`, a single run, or
    /// a fold whose final merge spills (it keeps its memory-bounded
    /// sequential waves) — settles exactly as `finish` does
    /// ([`FoldFinish::Done`]).
    pub fn finish_ranges(self, parts: usize) -> Result<FoldFinish<'a>, EvalError> {
        let unspilled_merge = match &self.state {
            FoldState::Merge {
                pending_bytes,
                heap_bytes,
                spilled,
                ..
            } => !finish_spills(&self.spill, *spilled, *heap_bytes, *pending_bytes),
            _ => false,
        };
        if parts <= 1 || !unspilled_merge {
            return self.finish().map(FoldFinish::Done);
        }
        let IncrementalFold {
            candidate,
            env,
            state: FoldState::Merge {
                mut runs, pending, ..
            },
            ..
        } = self
        else {
            unreachable!("checked above");
        };
        let Combiner::Run(RunOp::Merge(flags)) = &candidate.op else {
            unreachable!("merge state belongs to a merge combiner");
        };
        runs.extend(pending);
        runs.retain(|r| !r.is_empty());
        if runs.len() <= 1 {
            return Ok(FoldFinish::Done(runs.pop().unwrap_or_default()));
        }
        let order = kq_coreutils::sort::LineOrder::from_flags(flags)
            .map_err(|e| EvalError::Command(e.to_string()))?;
        Ok(FoldFinish::Ranges(RangeMerge {
            candidate,
            env,
            ranges: cut_runs(&order, &runs, parts)?,
        }))
    }
}

/// Whether a merge fold's `finish` streams through temp files: once any
/// run spilled, or when the leftover pending bytes would push the resident
/// runs past the budget.
fn finish_spills(
    spill: &Option<SpillConfig>,
    spilled: bool,
    heap_bytes: usize,
    pending_bytes: usize,
) -> bool {
    spilled
        || spill
            .as_ref()
            .is_some_and(|cfg| heap_bytes.saturating_add(pending_bytes) > cfg.budget_bytes)
}

/// How [`IncrementalFold::finish_ranges`] settled.
pub enum FoldFinish<'a> {
    /// The combined stream.
    Done(Bytes),
    /// A final merge cut into key ranges, still to be merged.
    Ranges(RangeMerge<'a>),
}

/// The final merge of a `merge` fold, cut into key ranges that merge
/// independently: every line of range `r` orders before every line of
/// range `r + 1`, so the range outputs in order are the flat merge.
pub struct RangeMerge<'a> {
    candidate: &'a Candidate,
    env: &'a dyn RunEnv,
    /// `ranges[r]`: the line-aligned slice of every run that falls in
    /// range `r` (empty slices dropped), in run order.
    ranges: Vec<Vec<Bytes>>,
}

impl RangeMerge<'_> {
    /// Number of ranges (some may be empty).
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether there are no ranges at all.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Merges range `r`.
    pub fn merge_range(&self, r: usize) -> Result<Bytes, EvalError> {
        let merged = combine_all(self.candidate, &self.ranges[r], self.env)?;
        if merged.is_empty() || merged.as_bytes().ends_with(b"\n") {
            return Ok(merged);
        }
        // A range of one slice passes through unmerged, but the flat merge
        // of two or more runs terminates an unterminated last line.
        Ok(Bytes::from(format!("{}\n", view(&merged)?)))
    }
}

/// Splitter samples drawn per range: enough that byte-weighted quantiles
/// balance the ranges to within a few percent, few enough that sampling
/// is free next to the merge.
const SAMPLES_PER_RANGE: usize = 32;

/// The line of `text` containing byte `pos`, as `(start, line)`.
fn line_around(text: &str, pos: usize) -> (usize, &str) {
    let bytes = text.as_bytes();
    let start = bytes[..pos]
        .iter()
        .rposition(|&c| c == b'\n')
        .map_or(0, |n| n + 1);
    let end = bytes[start..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(text.len(), |n| start + n);
    (start, &text[start..end])
}

/// The first line start in `lo..=hi` whose line orders after `splitter`
/// (`hi` when none does). `lo` and `hi` are line starts (or the end of the
/// text); lines before `lo` must order at or before the splitter.
fn upper_bound(
    order: &kq_coreutils::sort::LineOrder,
    text: &str,
    mut lo: usize,
    mut hi: usize,
    splitter: &str,
) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (start, line) = line_around(text, mid);
        if order.compare(line, splitter).is_gt() {
            hi = start;
        } else {
            lo = (start + line.len() + 1).min(text.len());
        }
    }
    lo
}

/// Cuts sorted `runs` into at most `parts` key ranges: `parts - 1`
/// splitters at the byte-weighted quantiles of lines sampled evenly over
/// every run, then an [`upper_bound`] cut of each run per splitter.
fn cut_runs(
    order: &kq_coreutils::sort::LineOrder,
    runs: &[Bytes],
    parts: usize,
) -> Result<Vec<Vec<Bytes>>, EvalError> {
    let texts: Vec<&str> = runs.iter().map(view).collect::<Result<_, _>>()?;
    let total: usize = texts.iter().map(|t| t.len()).sum();
    let wanted = SAMPLES_PER_RANGE * parts;
    let mut samples: Vec<&str> = Vec::with_capacity(wanted + texts.len());
    for text in &texts {
        let n = (text.len() * wanted).div_ceil(total.max(1)).max(1);
        samples.extend((0..n).map(|j| line_around(text, (2 * j + 1) * text.len() / (2 * n)).1));
    }
    samples.sort_by(|a, b| order.compare(a, b));
    let splitters: Vec<&str> = (1..parts)
        .map(|j| samples[j * samples.len() / parts])
        .collect();
    let mut ranges: Vec<Vec<Bytes>> = vec![Vec::new(); parts];
    for (run, text) in runs.iter().zip(&texts) {
        let mut from = 0;
        for (r, range) in ranges.iter_mut().enumerate() {
            let to = match splitters.get(r) {
                Some(splitter) => upper_bound(order, text, from, text.len(), splitter),
                None => text.len(),
            };
            if to > from {
                range.push(run.slice(from..to));
            }
            from = to;
        }
    }
    Ok(ranges)
}

/// Fragment granularity of the streamed spilled-run merge: how much merged
/// output buffers before a write.
const SPILL_MERGE_FRAGMENT: usize = 1 << 20;

/// How far each mapped run's release cursor trails the merge frontier.
/// This must stay small relative to a run: the merge holds a window of
/// `k × 2 × lag` resident across the `k` runs, and a lag as large as a
/// run would keep every run fully resident until the merge ends (the
/// cursor only fires once `consumed` outruns `released` by `2 × lag`).
/// 64 KiB bounds the window to a few MiB even at k ≈ 100 while still
/// batching madvise calls well above page granularity.
const SPILL_MERGE_RELEASE_LAG: usize = 1 << 16;

fn spill_err(e: std::io::Error) -> EvalError {
    EvalError::Command(format!("spill: {e}"))
}

/// Applies the spill policy to a freshly completed merge run: keep it on
/// the heap while the resident total stays under budget, otherwise write
/// it out and hand back the mapped (demand-paged, evictable) view.
fn maybe_spill_run(
    run: Bytes,
    spill: &Option<SpillConfig>,
    heap_bytes: &mut usize,
    spilled: &mut bool,
) -> Result<Bytes, EvalError> {
    let Some(cfg) = spill else {
        return Ok(run);
    };
    if heap_bytes.saturating_add(run.len()) <= cfg.budget_bytes {
        *heap_bytes += run.len();
        return Ok(run);
    }
    let mut writer = kq_io::RunWriter::create(&cfg.dir).map_err(spill_err)?;
    writer.write(view(&run)?).map_err(spill_err)?;
    cfg.metrics.record_spill(run.len() as u64);
    // Drop the heap run before mapping the file back, so the two copies
    // never coexist.
    drop(run);
    let mapped = writer.finish().map_err(spill_err)?;
    cfg.metrics.record_mapped(mapped.len() as u64);
    *spilled = true;
    Ok(mapped)
}

/// Counter-slot variant of the spill policy: a freshly stored or combined
/// group is kept on the heap while the resident slot total stays under
/// budget and otherwise written out, exactly like a merge run. Groups that
/// are already disk-backed (mapped) pass through unaccounted.
fn store_group(
    group: Bytes,
    spill: &Option<SpillConfig>,
    heap_bytes: &mut usize,
    spilled: &mut bool,
) -> Result<Bytes, EvalError> {
    if group.is_mmap_backed() {
        return Ok(group);
    }
    maybe_spill_run(group, spill, heap_bytes, spilled)
}

/// Moves the heap-resident pieces of `pieces` into one temp run file and
/// replaces each with its mapped (demand-paged, evictable) sub-slice.
/// Bytes and piece boundaries are preserved exactly — every replacement
/// views the byte range its heap copy occupied — so a later
/// [`combine_all`] over the list sees identical input. The raw-handle
/// fallback list of a selective composite fold routes through this once
/// its resident bytes cross the spill budget (see
/// `kq_synth::CompositeCombiner::incremental_with_spill`). Pieces already
/// mapped (from an earlier batch) and empty pieces are left alone.
/// Returns the number of bytes moved off the heap (0 means nothing was
/// resident and no file was created).
pub fn spill_piece_batch(pieces: &mut [Bytes], cfg: &SpillConfig) -> Result<usize, EvalError> {
    let mut spans: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    let mut total = 0usize;
    for (i, p) in pieces.iter().enumerate() {
        if p.is_empty() || p.is_mmap_backed() {
            continue;
        }
        spans.push((i, total..total + p.len()));
        total += p.len();
    }
    if total == 0 {
        return Ok(0);
    }
    let mut writer = kq_io::RunWriter::create(&cfg.dir).map_err(spill_err)?;
    for (i, _) in &spans {
        writer.write(view(&pieces[*i])?).map_err(spill_err)?;
    }
    cfg.metrics.record_spill(total as u64);
    let mapped = writer.finish().map_err(spill_err)?;
    cfg.metrics.record_mapped(mapped.len() as u64);
    for (i, span) in spans {
        pieces[i] = mapped.slice(span);
    }
    Ok(total)
}

/// The out-of-core final merge: an arity-bounded merge tree over the
/// accumulated runs, each wave streaming `env.merge_stream` fragments into
/// a fresh temp file while releasing every mapped run's consumed prefix
/// behind the merge frontier, then mapping the merged output back.
///
/// Bounding each wave at [`MERGE_RUN_ARITY`] inputs is a memory bound, not
/// a comparison-cost tweak: the kernel keeps a frontier window of pages
/// resident per *input* mapping (fault-around / large-folio mapping can
/// pin on the order of a folio per run, regardless of how politely we
/// release behind the cursors), so a flat merge over hundreds of runs
/// holds hundreds of those windows at once — O(k) residency that defeats
/// the spill budget exactly when k is large. A wave touches at most
/// `MERGE_RUN_ARITY` mappings, and each group's source runs (heap or
/// mapped) are dropped as soon as its merged output exists, so heap runs
/// also retire progressively instead of living until the very end.
///
/// Groups are contiguous and in order and `merge_stream` breaks ties by
/// stream index, so the merge tree is stable and byte-identical to the
/// flat merge. Multi-wave input (k > arity) only occurs once runs have
/// spilled, i.e. the data already outgrew the budget; the extra disk
/// round-trip per wave is the agreed price.
fn merge_spilled_runs(
    candidate: &Candidate,
    env: &dyn RunEnv,
    mut runs: Vec<Bytes>,
    cfg: &SpillConfig,
) -> Result<Bytes, EvalError> {
    let Combiner::Run(RunOp::Merge(flags)) = &candidate.op else {
        unreachable!("only merge folds spill runs");
    };
    runs.retain(|r| !r.is_empty());
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(MERGE_RUN_ARITY));
        while !runs.is_empty() {
            let take = runs.len().min(MERGE_RUN_ARITY);
            let group: Vec<Bytes> = runs.drain(..take).collect();
            if group.len() == 1 {
                next.extend(group);
            } else {
                next.push(merge_run_group(env, flags, &group, cfg)?);
            }
            // `group` drops here: a merged group's sources are finished
            // with, freeing their heap bytes or unmapping their files
            // before the next group starts.
        }
        runs = next;
    }
    Ok(runs.pop().unwrap_or_default())
}

/// One merge wave: streams the k-way merge of `group` into a temp file,
/// trailing a release cursor behind each input's merge frontier, and maps
/// the result back. Peak residency is O(fragment + k × release window),
/// independent of total group bytes.
fn merge_run_group(
    env: &dyn RunEnv,
    flags: &[String],
    group: &[Bytes],
    cfg: &SpillConfig,
) -> Result<Bytes, EvalError> {
    let views: Vec<&str> = group.iter().map(view).collect::<Result<_, _>>()?;
    let mut out = kq_io::RunWriter::create(&cfg.dir).map_err(spill_err)?;
    let mut cursors: Vec<ReleaseCursor> = group
        .iter()
        .map(|_| ReleaseCursor::new(SPILL_MERGE_RELEASE_LAG))
        .collect();
    env.merge_stream(
        flags,
        &views,
        SPILL_MERGE_FRAGMENT,
        &mut |frag, consumed| {
            out.write(frag).map_err(spill_err)?;
            for ((cursor, run), &done) in cursors.iter_mut().zip(group).zip(consumed) {
                cursor.advance(run, done);
            }
            Ok(())
        },
    )?;
    for (cursor, run) in cursors.iter_mut().zip(group) {
        cursor.finish(run);
    }
    cfg.metrics.record_spill(out.written() as u64);
    let merged = out.finish().map_err(spill_err)?;
    cfg.metrics.record_mapped(merged.len() as u64);
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StructOp;
    use crate::eval::NoRunEnv;
    use kq_stream::Delim;

    struct FakeEnv;

    impl RunEnv for FakeEnv {
        fn rerun(&self, input: &str) -> Result<String, EvalError> {
            Ok(format!("f({input})"))
        }

        fn merge(&self, _flags: &[String], streams: &[&str]) -> Result<String, EvalError> {
            kq_coreutils::sort::merge_streams(&[], streams)
                .map_err(|e| EvalError::Command(e.to_string()))
        }
    }

    fn s(v: &[&str]) -> Vec<Bytes> {
        v.iter().copied().map(Bytes::from).collect()
    }

    #[test]
    fn concat_kway_is_plain_concat() {
        let c = Candidate::rec(RecOp::Concat);
        let out = combine_all(&c, &s(&["a\n", "b\n", "c\n"]), &NoRunEnv).unwrap();
        assert_eq!(out, "a\nb\nc\n");
    }

    #[test]
    fn merge_kway_merges_all_at_once() {
        let c = Candidate::run(RunOp::Merge(vec![]));
        let out = combine_all(&c, &s(&["a\nd\n", "b\n", "c\ne\n"]), &FakeEnv).unwrap();
        assert_eq!(out, "a\nb\nc\nd\ne\n");
    }

    #[test]
    fn rerun_kway_executes_once() {
        let c = Candidate::run(RunOp::Rerun);
        let out = combine_all(&c, &s(&["x\n", "y\n"]), &FakeEnv).unwrap();
        assert_eq!(out, "f(x\ny\n)");
    }

    #[test]
    fn general_combiner_folds_pairwise() {
        let c = Candidate::structural(StructOp::Stitch(RecOp::First));
        let out = combine_all(&c, &s(&["a\nb\n", "b\nc\n", "c\nd\n"]), &NoRunEnv).unwrap();
        assert_eq!(out, "a\nb\nc\nd\n");
    }

    #[test]
    fn back_add_folds_counts() {
        let c = Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add)));
        let out = combine_all(&c, &s(&["3\n", "4\n", "5\n"]), &NoRunEnv).unwrap();
        assert_eq!(out, "12\n");
    }

    #[test]
    fn empty_pieces_are_skipped() {
        let c = Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add)));
        let out = combine_all(&c, &s(&["3\n", "", "5\n"]), &NoRunEnv).unwrap();
        assert_eq!(out, "8\n");
    }

    #[test]
    fn single_piece_passes_through() {
        let c = Candidate::run(RunOp::Rerun);
        let out = combine_all(&c, &s(&["only\n"]), &FakeEnv).unwrap();
        assert_eq!(out, "only\n"); // no re-execution needed
    }

    #[test]
    fn no_pieces_is_empty() {
        let c = Candidate::rec(RecOp::Concat);
        assert_eq!(combine_all(&c, &[], &NoRunEnv).unwrap(), "");
    }

    /// All three strategies agree for the combiners the corpus produces:
    /// they differ only in evaluation order, and combining adjacent pieces
    /// of a split stream is associative for these operators.
    #[test]
    fn strategies_agree_on_corpus_combiners() {
        let cases: Vec<(Candidate, Vec<Bytes>)> = vec![
            (
                Candidate::rec(RecOp::Concat),
                s(&["a\n", "b\n", "c\n", "d\n", "e\n"]),
            ),
            (
                Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
                s(&["1\n", "2\n", "3\n", "4\n", "5\n"]),
            ),
            (
                Candidate::structural(StructOp::Stitch(RecOp::First)),
                s(&["a\nb\n", "b\nc\n", "c\nc\nd\n", "d\ne\n"]),
            ),
            (
                Candidate::structural(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First)),
                s(&[
                    "      2 a\n      1 b\n",
                    "      3 b\n",
                    "      1 b\n      4 c\n",
                ]),
            ),
        ];
        for (cand, pieces) in cases {
            let flat = combine_all_with(CombineStrategy::Flat, &cand, &pieces, &NoRunEnv).unwrap();
            let tree =
                combine_all_with(CombineStrategy::TreeFold, &cand, &pieces, &NoRunEnv).unwrap();
            let fold =
                combine_all_with(CombineStrategy::FoldLeft, &cand, &pieces, &NoRunEnv).unwrap();
            assert_eq!(flat, tree, "flat vs tree for {cand}");
            assert_eq!(flat, fold, "flat vs fold for {cand}");
        }
    }

    #[test]
    fn swapped_concat_reverses_under_every_strategy() {
        let mut c = Candidate::rec(RecOp::Concat);
        c.swapped = true;
        let pieces = s(&["a\n", "b\n", "c\n"]);
        for strat in [
            CombineStrategy::Flat,
            CombineStrategy::TreeFold,
            CombineStrategy::FoldLeft,
        ] {
            assert_eq!(
                combine_all_with(strat, &c, &pieces, &NoRunEnv).unwrap(),
                "c\nb\na\n",
                "{strat:?}"
            );
        }
    }

    #[test]
    fn fold_left_merge_stays_sorted() {
        let c = Candidate::run(RunOp::Merge(vec![]));
        let pieces = s(&["a\nd\n", "b\n", "c\ne\n"]);
        let fold = combine_all_with(CombineStrategy::FoldLeft, &c, &pieces, &FakeEnv).unwrap();
        assert_eq!(fold, "a\nb\nc\nd\ne\n");
    }

    fn incremental(c: &Candidate, pieces: &[Bytes], env: &dyn RunEnv) -> Bytes {
        let mut fold = IncrementalFold::new(c, env);
        for p in pieces {
            fold.push(p.clone()).unwrap();
        }
        fold.finish().unwrap()
    }

    #[test]
    fn incremental_fold_matches_combine_all_on_corpus_combiners() {
        let cases: Vec<(Candidate, Vec<Bytes>)> = vec![
            (
                Candidate::rec(RecOp::Concat),
                s(&["a\n", "", "b\n", "c\n", "d\n", "e\n", "f\n"]),
            ),
            (
                Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
                s(&["1\n", "2\n", "3\n", "4\n", "5\n", "6\n", "7\n"]),
            ),
            (
                Candidate::structural(StructOp::Stitch(RecOp::First)),
                s(&["a\nb\n", "b\nc\n", "c\nc\nd\n", "d\ne\n", "e\nf\n"]),
            ),
            (
                Candidate::structural(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First)),
                s(&[
                    "      2 a\n      1 b\n",
                    "      3 b\n",
                    "      1 b\n      4 c\n",
                ]),
            ),
        ];
        for (cand, pieces) in cases {
            let flat = combine_all(&cand, &pieces, &NoRunEnv).unwrap();
            assert_eq!(
                incremental(&cand, &pieces, &NoRunEnv),
                flat,
                "incremental vs flat for {cand}"
            );
        }
    }

    #[test]
    fn incremental_merge_matches_kway_merge() {
        let c = Candidate::run(RunOp::Merge(vec![]));
        let pieces = s(&["a\nd\n", "b\n", "", "c\ne\n", "a\nz\n"]);
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        assert_eq!(incremental(&c, &pieces, &FakeEnv), flat);
    }

    #[test]
    fn incremental_merge_run_accumulation_matches_flat() {
        // More pieces than MERGE_RUN_ARITY: intermediate runs form and the
        // finish merge of runs must equal the one flat k-way merge,
        // including the stability tiebreak (duplicates across pieces).
        let c = Candidate::run(RunOp::Merge(vec![]));
        let piece_strings: Vec<String> = (0..(MERGE_RUN_ARITY * 2 + 3))
            .map(|i| {
                let a = (b'a' + (i % 26) as u8) as char;
                let b = (b'a' + ((i * 7) % 26) as u8) as char;
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                format!("{lo}\n{hi}\n")
            })
            .collect();
        let pieces: Vec<Bytes> = piece_strings
            .iter()
            .map(|p| Bytes::from(p.as_str()))
            .collect();
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        assert_eq!(incremental(&c, &pieces, &FakeEnv), flat);
    }

    #[test]
    fn incremental_rerun_executes_once() {
        // One re-execution over the gathered stream, not one per push.
        let c = Candidate::run(RunOp::Rerun);
        let pieces = s(&["x\n", "y\n", "z\n"]);
        assert_eq!(incremental(&c, &pieces, &FakeEnv), "f(x\ny\nz\n)");
    }

    #[test]
    fn incremental_swapped_concat_reverses() {
        let mut c = Candidate::rec(RecOp::Concat);
        c.swapped = true;
        let pieces = s(&["a\n", "b\n", "c\n"]);
        assert_eq!(incremental(&c, &pieces, &NoRunEnv), "c\nb\na\n");
    }

    #[test]
    fn incremental_empty_and_single() {
        let c = Candidate::rec(RecOp::Concat);
        assert_eq!(incremental(&c, &[], &NoRunEnv), "");
        assert_eq!(incremental(&c, &s(&["only\n"]), &NoRunEnv), "only\n");
    }

    /// A throwaway spill config over a private temp dir; the closure runs
    /// with it, then the dir is asserted empty (unlink-after-map means no
    /// run file survives its fold) and removed.
    fn with_spill_dir(tag: &str, budget: usize, f: impl FnOnce(&crate::spill::SpillConfig)) {
        let dir = std::env::temp_dir().join(format!("kq-kway-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = crate::spill::SpillConfig {
            budget_bytes: budget,
            dir: dir.clone(),
            metrics: std::sync::Arc::new(crate::spill::SpillMetrics::default()),
        };
        f(&cfg);
        let leftovers = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(leftovers, 0, "spill dir must be clean after the fold");
    }

    fn spill_pieces(n: usize) -> Vec<Bytes> {
        (0..n)
            .map(|i| {
                let a = (b'a' + (i % 26) as u8) as char;
                let b = (b'a' + ((i * 11 + 5) % 26) as u8) as char;
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                Bytes::from(format!("{lo} {i}\n{hi} {i}\n"))
            })
            .collect()
    }

    #[test]
    fn zero_budget_spills_every_run_and_matches_flat() {
        // Budget 0: the run target degenerates to one byte, so every piece
        // becomes its own spilled run and the final merge streams through
        // temp files in arity-bounded waves. Result must be byte-identical
        // to the in-memory flat merge.
        let c = Candidate::run(RunOp::Merge(vec![]));
        let pieces = spill_pieces(MERGE_RUN_ARITY * 3 + 5);
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        with_spill_dir("zero", 0, |cfg| {
            let mut fold = IncrementalFold::new_with_spill(&c, &FakeEnv, Some(cfg.clone()));
            for p in &pieces {
                fold.push(p.clone()).unwrap();
            }
            assert_eq!(fold.finish().unwrap(), flat);
            let (runs, written, mapped) = cfg.metrics.snapshot();
            // One run per piece, plus the wave merges of the finish.
            assert!(runs >= pieces.len() as u64, "runs spilled: {runs}");
            assert!(written >= flat.len() as u64);
            assert!(mapped >= flat.len() as u64);
        });
    }

    #[test]
    fn budgeted_run_sizing_accumulates_pieces_into_large_runs() {
        // A small-but-nonzero budget: runs cut at budget/4 bytes, so each
        // spilled run aggregates several pieces instead of one run per
        // piece (or per MERGE_RUN_ARITY arrivals).
        let c = Candidate::run(RunOp::Merge(vec![]));
        let pieces = spill_pieces(MERGE_RUN_ARITY * 2);
        let total: usize = pieces.iter().map(Bytes::len).sum();
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        with_spill_dir("sized", total / 8, |cfg| {
            let mut fold = IncrementalFold::new_with_spill(&c, &FakeEnv, Some(cfg.clone()));
            for p in &pieces {
                fold.push(p.clone()).unwrap();
            }
            assert_eq!(fold.finish().unwrap(), flat);
            let (runs, _, _) = cfg.metrics.snapshot();
            // Target = total/32: roughly 32 runs form, the over-budget
            // ones spill — strictly fewer spills than pieces proves the
            // byte-target batching, more than one proves we still spill.
            assert!(runs > 1, "expected multiple spilled runs, got {runs}");
            assert!(
                runs < pieces.len() as u64,
                "runs must batch pieces: {runs} spills for {} pieces",
                pieces.len()
            );
        });
    }

    #[test]
    fn counter_fold_spills_slot_groups_under_budget() {
        // The satellite case: a uniq -c-shaped stitch accumulator must
        // respect the spill budget instead of growing its output on the
        // heap. Budget 0 forces every stored group out; the combined
        // result (read back through mapped views) must match the
        // in-memory fold.
        let c = Candidate::structural(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First));
        let pieces: Vec<Bytes> = (0..40)
            .map(|i| {
                Bytes::from(format!(
                    "      2 k{:03}\n      1 k{:03}\n",
                    2 * i,
                    2 * i + 1
                ))
            })
            .collect();
        let flat = combine_all(&c, &pieces, &NoRunEnv).unwrap();
        with_spill_dir("counter", 0, |cfg| {
            let mut fold = IncrementalFold::new_with_spill(&c, &NoRunEnv, Some(cfg.clone()));
            for p in &pieces {
                fold.push(p.clone()).unwrap();
            }
            assert_eq!(fold.finish().unwrap(), flat);
            let (runs, written, _) = cfg.metrics.snapshot();
            assert!(runs > 0, "counter groups must spill at budget 0");
            assert!(written > 0);
        });
    }

    #[test]
    fn counter_fold_generous_budget_stays_in_memory() {
        let c = Candidate::structural(StructOp::Stitch(RecOp::First));
        let pieces = s(&["a\nb\n", "b\nc\n", "c\nd\n", "d\ne\n", "e\nf\n"]);
        let flat = combine_all(&c, &pieces, &NoRunEnv).unwrap();
        with_spill_dir("counter-mem", usize::MAX, |cfg| {
            let mut fold = IncrementalFold::new_with_spill(&c, &NoRunEnv, Some(cfg.clone()));
            for p in &pieces {
                fold.push(p.clone()).unwrap();
            }
            assert_eq!(fold.finish().unwrap(), flat);
            assert_eq!(cfg.metrics.snapshot(), (0, 0, 0), "no spill under budget");
        });
    }

    #[test]
    fn spill_piece_batch_preserves_bytes_and_boundaries() {
        with_spill_dir("batch", 0, |cfg| {
            let originals = ["alpha\n", "", "beta\nbeta2\n", "gamma\n"];
            let mut pieces: Vec<Bytes> = originals.iter().copied().map(Bytes::from).collect();
            let moved = spill_piece_batch(&mut pieces, cfg).unwrap();
            assert_eq!(
                moved,
                originals.iter().map(|s| s.len()).sum::<usize>(),
                "every non-empty heap piece moves"
            );
            for (piece, original) in pieces.iter().zip(originals) {
                assert_eq!(piece, original);
                assert_eq!(piece.is_mmap_backed(), !original.is_empty());
            }
            let (runs, written, mapped) = cfg.metrics.snapshot();
            assert_eq!(runs, 1, "one batch file, not one per piece");
            assert_eq!(written, moved as u64);
            assert_eq!(mapped, moved as u64);
            // A second batch over already-mapped pieces is a no-op.
            assert_eq!(spill_piece_batch(&mut pieces, cfg).unwrap(), 0);
            assert_eq!(cfg.metrics.snapshot().0, 1);
        });
    }

    #[test]
    fn spilled_fold_matches_through_the_real_command_env() {
        // CommandEnv overrides merge_stream with the true incremental
        // merge (fragments + per-run progress), which is the path the
        // executors use — cover it end to end, unique flags included.
        let command = kq_coreutils::parse_command("sort -u").unwrap();
        let ctx = kq_coreutils::ExecContext::default();
        let env = crate::eval::CommandEnv {
            command: &command,
            ctx: &ctx,
        };
        let c = Candidate::run(RunOp::Merge(vec!["-u".to_owned()]));
        let pieces: Vec<Bytes> = spill_pieces(MERGE_RUN_ARITY * 2 + 7)
            .iter()
            .map(|p| {
                // Pre-sort each piece under -u semantics (dedup by key).
                let sorted =
                    kq_coreutils::sort::merge_streams(&["-u".to_owned()], &[p.to_str().unwrap()])
                        .unwrap();
                Bytes::from(sorted)
            })
            .collect();
        let flat = combine_all(&c, &pieces, &env).unwrap();
        with_spill_dir("cmdenv", 0, |cfg| {
            let mut fold = IncrementalFold::new_with_spill(&c, &env, Some(cfg.clone()));
            for p in &pieces {
                fold.push(p.clone()).unwrap();
            }
            assert_eq!(fold.finish().unwrap(), flat);
        });
    }

    #[test]
    fn generous_budget_never_touches_disk() {
        let c = Candidate::run(RunOp::Merge(vec![]));
        let pieces = spill_pieces(MERGE_RUN_ARITY + 3);
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        with_spill_dir("generous", usize::MAX, |cfg| {
            let mut fold = IncrementalFold::new_with_spill(&c, &FakeEnv, Some(cfg.clone()));
            for p in &pieces {
                fold.push(p.clone()).unwrap();
            }
            assert_eq!(fold.finish().unwrap(), flat);
            assert_eq!(cfg.metrics.snapshot(), (0, 0, 0), "no spill under budget");
        });
    }

    #[test]
    fn abandoned_spilled_fold_leaves_no_files() {
        // The cancellation path: runs spill, then the fold is dropped
        // without finish(). Mapped runs unlinked at creation — nothing to
        // clean; the assertion lives in with_spill_dir.
        let c = Candidate::run(RunOp::Merge(vec![]));
        let pieces = spill_pieces(MERGE_RUN_ARITY * 2);
        with_spill_dir("abandon", 0, |cfg| {
            let mut fold = IncrementalFold::new_with_spill(&c, &FakeEnv, Some(cfg.clone()));
            for p in &pieces {
                fold.push(p.clone()).unwrap();
            }
            let (runs, _, _) = cfg.metrics.snapshot();
            assert_eq!(
                runs,
                pieces.len() as u64,
                "budget 0 spills one run per piece before the drop"
            );
            drop(fold);
        });
    }

    /// A run environment whose merge honors its flags, as `CommandEnv`'s
    /// does.
    struct SortEnv;

    impl RunEnv for SortEnv {
        fn rerun(&self, input: &str) -> Result<String, EvalError> {
            Ok(input.to_owned())
        }

        fn merge(&self, flags: &[String], streams: &[&str]) -> Result<String, EvalError> {
            kq_coreutils::sort::merge_streams(flags, streams)
                .map_err(|e| EvalError::Command(e.to_string()))
        }
    }

    /// `lines` sorted by `sort <flags>`, optionally without the final
    /// newline.
    fn sorted_run(flags: &str, lines: &[String], unterminated: bool) -> Bytes {
        let cmd = kq_coreutils::parse_command(&format!("sort {flags}")).unwrap();
        let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let mut text = cmd
            .run_str(&input, &kq_coreutils::ExecContext::default())
            .unwrap();
        if unterminated {
            text.pop();
        }
        Bytes::from(text)
    }

    fn merge_candidate(flags: &str) -> Candidate {
        let words = flags.split_whitespace().map(str::to_owned).collect();
        Candidate::run(RunOp::Merge(words))
    }

    /// Pushes `pieces`, settles through `finish_ranges(parts)`, and merges
    /// the ranges in order; also returns the per-range output sizes.
    fn settle_ranges(c: &Candidate, pieces: &[Bytes], parts: usize) -> (Bytes, Vec<usize>) {
        let mut fold = IncrementalFold::new(c, &SortEnv);
        for p in pieces {
            fold.push(p.clone()).unwrap();
        }
        match fold.finish_ranges(parts).unwrap() {
            FoldFinish::Done(b) => (b, Vec::new()),
            FoldFinish::Ranges(ranges) => {
                assert!(ranges.len() <= parts.max(1));
                let outs: Vec<Bytes> = (0..ranges.len())
                    .map(|r| ranges.merge_range(r).unwrap())
                    .collect();
                let sizes = outs.iter().map(Bytes::len).collect();
                (kq_stream::concat_bytes(&outs), sizes)
            }
        }
    }

    #[test]
    fn partitioned_merge_with_every_splitter_equal() {
        // All lines equal: every splitter is that line, the upper-bound
        // cut sends everything to range 0, and the rest stay empty.
        for flags in ["", "-u", "-rn"] {
            let c = merge_candidate(flags);
            let pieces: Vec<Bytes> = (0..5).map(|_| Bytes::from("x\nx\nx\n")).collect();
            let flat = combine_all(&c, &pieces, &SortEnv).unwrap();
            let (got, sizes) = settle_ranges(&c, &pieces, 3);
            assert_eq!(got, flat, "flags {flags:?}");
            assert_eq!(sizes.len(), 3);
            assert!(sizes[1..].iter().all(|&n| n == 0), "{sizes:?}");
        }
    }

    #[test]
    fn partitioned_merge_with_more_ranges_than_lines() {
        let c = merge_candidate("");
        let pieces = s(&["b\n", "a\n", "", "c"]);
        let flat = combine_all(&c, &pieces, &SortEnv).unwrap();
        assert_eq!(flat, "a\nb\nc\n");
        let (got, sizes) = settle_ranges(&c, &pieces, 8);
        assert_eq!(got, flat);
        assert!(sizes.iter().filter(|&&n| n == 0).count() >= 5, "{sizes:?}");
    }

    #[test]
    fn partitioned_merge_balances_distinct_keys() {
        let c = merge_candidate("-n");
        let pieces: Vec<Bytes> = (0..6)
            .map(|r| {
                let lines: Vec<String> = (0..500).map(|i| (i * 6 + r).to_string()).collect();
                sorted_run("-n", &lines, false)
            })
            .collect();
        let flat = combine_all(&c, &pieces, &SortEnv).unwrap();
        let (got, sizes) = settle_ranges(&c, &pieces, 2);
        assert_eq!(got, flat);
        let total: usize = sizes.iter().sum();
        assert!(
            sizes.iter().all(|&n| n * 10 > total * 3),
            "ranges unbalanced: {sizes:?}"
        );
    }

    #[test]
    fn single_worker_and_spilled_folds_settle_whole() {
        let c = merge_candidate("");
        let pieces = s(&["a\nc\n", "b\n"]);
        let mut fold = IncrementalFold::new(&c, &SortEnv);
        for p in &pieces {
            fold.push(p.clone()).unwrap();
        }
        assert!(matches!(fold.finish_ranges(1).unwrap(), FoldFinish::Done(b) if b == "a\nb\nc\n"));
        with_spill_dir("ranges", 0, |cfg| {
            let mut fold = IncrementalFold::new_with_spill(&c, &SortEnv, Some(cfg.clone()));
            for p in &pieces {
                fold.push(p.clone()).unwrap();
            }
            let settled = fold.finish_ranges(4).unwrap();
            assert!(matches!(settled, FoldFinish::Done(b) if b == "a\nb\nc\n"));
        });
    }

    proptest::proptest! {
        /// The satellite property: a spill-everything fold equals the
        /// in-memory combine_all for arbitrary sorted pieces.
        #[test]
        fn prop_spilled_merge_equals_combine_all(
            raw in proptest::collection::vec(
                proptest::collection::vec("[a-e]{0,4}", 0..6),
                0..70,
            )
        ) {
            let pieces: Vec<Bytes> = raw
                .iter()
                .map(|lines| {
                    let mut sorted: Vec<&str> = lines.iter().map(String::as_str).collect();
                    sorted.sort_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
                    Bytes::from(sorted.iter().map(|l| format!("{l}\n")).collect::<String>())
                })
                .collect();
            let c = Candidate::run(RunOp::Merge(vec![]));
            let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
            let dir = std::env::temp_dir().join(format!("kq-kway-prop-{}", std::process::id()));
            let cfg = crate::spill::SpillConfig {
                budget_bytes: 0,
                dir: dir.clone(),
                metrics: std::sync::Arc::new(crate::spill::SpillMetrics::default()),
            };
            let mut fold = IncrementalFold::new_with_spill(&c, &FakeEnv, Some(cfg));
            for p in &pieces {
                fold.push(p.clone()).unwrap();
            }
            let got = fold.finish().unwrap();
            std::fs::remove_dir_all(&dir).ok();
            proptest::prop_assert_eq!(got, flat);
        }

        /// A partitioned finish, its ranges merged and concatenated in
        /// order, equals `combine_all` — for every flag form's order (`-nu`:
        /// distinct lines with equal keys must share a range), any range
        /// count, runs formed during pushes (more pieces than
        /// MERGE_RUN_ARITY) or not, and unterminated final lines.
        #[test]
        fn prop_partitioned_merge_equals_combine_all(
            raw in proptest::collection::vec(
                (proptest::collection::vec("[ 0-9a-]{0,3}", 0..12), 0usize..4),
                0..45,
            ),
            form in 0usize..5,
            parts_pick in 0usize..4,
        ) {
            let flags = ["", "-rn", "-u", "-k1n", "-nu"][form];
            let parts = [1, 2, 3, 8][parts_pick];
            let pieces: Vec<Bytes> = raw
                .iter()
                .map(|(lines, cut)| sorted_run(flags, lines, *cut == 0))
                .collect();
            let c = merge_candidate(flags);
            let flat = combine_all(&c, &pieces, &SortEnv).unwrap();
            let (got, _) = settle_ranges(&c, &pieces, parts);
            proptest::prop_assert_eq!(got, flat);
        }
    }
}
