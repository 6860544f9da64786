//! Word-parallel partition kernels.
//!
//! The `CUT` hot loop is "partition the selected rows of one column into k
//! disjoint selections" — by numeric range
//! ([`crate::ColumnView::select_ranges`]) or by categorical group
//! ([`crate::ColumnView::select_in_groups`]). This module holds every body
//! that looks inside a [`Column`] to scan it (the summary scan,
//! [`crate::ColumnSummary::accumulate`], is the one exception): each `*_part`
//! function scans **one part** — one segment-local column sitting at a row
//! offset of the selection — and [`crate::ColumnView`] walks a column's parts
//! in row order. A new column encoding is taught to this module and to
//! `accumulate`, nowhere else — as the coded column was (a dictionary plus
//! the narrowest of `u8` / `u16` / `u32` code lanes and a validity mask,
//! [`crate::column`]: every string column, a sealed numeric column with few
//! distinct values, every sealed boolean part of 8 rows or more):
//! `partition_codes` and `count_lanes` — its walk and its entry-mask count —
//! are the only bodies that read a code lane, whatever the column's type
//! (`gather_part`, which copies a part's selected rows into a part of their
//! own for [`crate::Table::gather`], moves lanes without reading them), and
//! no caller of [`crate::ColumnView`] can tell. A boolean is a primitive like
//! any other, with `false < true`: no kernel body is kept for it alone. The
//! partition kernels process **64 rows per step** instead of one:
//!
//! * the selection bitmap is walked word-at-a-time (all-zero words are
//!   skipped, boundary words are masked — `for_each_sel_word`);
//! * nullness is driven from the column's validity-mask *words* (one
//!   shift-and-or per 64 rows — [`Bitmap::word_at`]), never from a per-row
//!   `Option`;
//! * a dense 64-row block is classified branchlessly: numeric range checks
//!   compile to lane-wise compares over the raw `i64`/`f64` value slices; on
//!   a coded column the partition — value ranges or value groups — is
//!   resolved against the dictionary once per part (`code_regions`) and the
//!   rows are partitioned by code: where every region is a **code span**
//!   (ranges over a sorted dictionary, groups that are runs of a string
//!   dictionary) 64 lanes are two AVX2 compares per region, otherwise each
//!   lane's region is gathered into a byte and a region is a byte compare;
//! * a `u8`-coded part with a handful of entries — the paper's running
//!   attributes, `sex`, `education`, `salary`, `eye_color` — is read through
//!   one byte equality mask per entry: counting entry `c` over a word is
//!   `popcount(live & (lane == c))`, and a partition whose regions are not
//!   code spans ORs each entry's mask into its region; the largest group of
//!   entries takes no mask (its rows are what the others leave). Which parts
//!   mask is one measured constant shared by both kernels
//!   (`MAX_ENTRY_MASKS`, beside `GROUP_DENSE_LANES`); a part's partial edge
//!   words walk;
//! * one output word per region is assembled in a register and written with
//!   the word-level writer [`Bitmap::or_word`] — no per-row `Bitmap::set`.
//!
//! An all-ones selection word (the common case when exploring the whole
//! table) takes the dense path with no per-bit iteration at all; sparse words
//! of **plain** lanes fall back to a set-bit loop so heavily drilled-down
//! selections don't pay for lanes they never read — below
//! `RANGE_DENSE_LANES` (4) candidates for a range partition, whose walk
//! branches per bound, and below `GROUP_DENSE_LANES` (16) for the gathered
//! group fold, whose walk is a table lookup; both constants carry their
//! measured crossover. Code spans never walk a full word: a span compare over
//! 64 one- or two-byte codes is cheaper than visiting two set bits.
//!
//! Integer range bounds arrive as `f64`s. The scalar semantics are
//! `(x as f64) ∈ [lo, hi]`; because `i64 → f64` conversion is monotone, the
//! matching integers form one contiguous interval, whose exact endpoints
//! `int_range_bounds` finds by binary search (a naive `ceil`/`floor` is
//! wrong beyond 2⁵³, where the conversion rounds). The lane test is then a
//! pure `i64` compare — exact, and vectorisable.
//!
//! ## The scalar reference, `ATLAS_FORCE_SCALAR`
//!
//! Every word-parallel kernel keeps its pre-existing one-row-at-a-time
//! implementation as a *reference*: set `ATLAS_FORCE_SCALAR=1` (or any
//! non-empty value other than `0`) to route all partition kernels through it,
//! or use [`with_kernel_path`] to pin a path for the current thread. The
//! references read each row through the column's decoding accessor (`get`),
//! so they share no lane code with the kernels whatever the encoding; the
//! per-code counts under it walk every word, so the entry masks are held to
//! the walk. Both paths are **bit-identical** by contract — the
//! property tests in `tests/partition_kernels.rs` compare them, and coded
//! against plain storage of the same rows, on adversarial inputs (word
//! boundaries, trailing partial words, NaN/inverted bounds, all-null
//! columns, both sides of the `u8`/`u16`/plain lines, every segment layout).

use crate::bitmap::Bitmap;
use crate::column::{at_each_width, Codes, Column, DictColumn, Lanes, PrimitiveColumn};
use crate::value::DataType;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

const WORD_BITS: usize = 64;

/// Minimum number of candidate lanes in a word for the branchless 64-lane
/// range classification of **plain** lanes ([`ranges_word`]) to beat the
/// per-set-bit loop. Below this, a drilled-down selection touches only the
/// lanes it actually selected. The walk costs ~5.7 ns per row (a data-
/// dependent branch per bound) against ~30 ns for classifying a whole word
/// into two regions, so the crossover is low: swept in-process over 1M
/// near-unique `f64` rows, thresholds 1–32, a two-way partition at 6 / 12 /
/// 23 % density costs 0.60 / 0.52 / 0.50 ms at 4 against 0.89 / 1.33 / 1.39
/// at the 16 this constant used to be, and a four-way one 1.16 / 1.20 / 1.12
/// against 1.28 / 1.95 / 2.18 (2–3 wins the two-way sweep by a hair, 4–8 the
/// four-way). Code spans have no such threshold: see [`partition_codes`].
const RANGE_DENSE_LANES: u32 = 4;

/// The same threshold for the fold whose set-bit walk is one table lookup per
/// row and no branch — the gathered classification of [`partition_codes`] —
/// where the crossover sits higher. Swept
/// in-process for the gather over 1M rows of narrow lanes, thresholds 0–24,
/// two groups, at 100 / 50 / 23 / 12 / 6 / 3 / 1 % density (64 … 0.6
/// candidates per word): a 4-code `u8` column costs 0.49 / 0.51 / 0.55 /
/// 0.51 / 0.57 / 0.61 / 0.48 ms with no threshold, 0.49 / 0.49 / 0.49 / 0.50 /
/// 0.47 / 0.30 / 0.20 at 4, 0.47 / 0.49 / 0.47 / 0.32 / 0.27 / 0.27 / 0.16 at
/// 16 and 0.50 / 0.58 / 0.59 / 0.36 / 0.37 / 0.37 / 0.22 at 24; 200 codes
/// (`u8`) and 1 000 (`u16`) read the same way (0.62 / 0.40 / 0.34 / 0.19 and
/// 0.94 / 0.73 / 0.64 / 0.54 at 16 for 100 / 12 / 3 / 1 %, against 0.63 /
/// 0.66 / 0.75 / 0.48 and 0.97 / 0.95 / 1.06 / 0.77 without). 12–16 wins, so
/// 16 stays. Code **spans** take no threshold: two byte compares per region
/// are flat at 0.12–0.13 ms from 100 % down to 3 %.
const GROUP_DENSE_LANES: u32 = 16;

/// The one rule both code-lane kernels apply to a `u8`-coded part, decided
/// once per part: its full 64-row words are read through one byte equality
/// mask per dictionary entry it must tell apart — all but one entry when
/// counting, the entries outside the largest group when partitioning — when
/// they number at most `MAX_ENTRY_MASKS`; every other part keeps the walk it
/// took before the masks. Swept in-process over a 1M-row string column of
/// 2–34 uniformly drawn entries, two interleaved groups for the partition,
/// best of 7: the masks cost 0.09 + 0.019 ms per mask for the counts and
/// 0.12 + 0.017 for the partition, flat from 100 % down to 1 %, against
/// these walks (ms) and crossovers (masks per word):
///
/// | density | 100 % | 50 % | 23 % | 12 % | 6 % | 3 % | 1 % |
/// |---|---|---|---|---|---|---|---|
/// | count walk | 0.51–0.65 | 0.75–0.91 | 0.46–0.62 | 0.33–0.42 | 0.25–0.33 | 0.21–0.27 | 0.14–0.19 |
/// | crossover, count | ~20 | ~40 | ~21 | ~15 | ~11 | ~9 | ~3 |
/// | crossover, partition | ~14 | ~16 | ~20 | ~14 | ~9 | ~4 | ~2 |
///
/// At 8 the masks win or tie from 100 % down to 3 % for the counts and down
/// to 6 % for the partition, and lose at most ~0.05 / ~0.09 ms per 1M rows
/// below that. The census's string columns (2–4 entries: 1–3 count masks,
/// 1 partition mask) mask at every density; `age` and `hours_per_week`
/// (70-odd entries) and the `u16` `height_cm` walk. Only a part of some 4–20
/// masks has a faster body that turns on the density, and no workload has
/// one.
const MAX_ENTRY_MASKS: usize = 8;

/// Which implementation the partition kernels run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// 64-rows-per-step kernels (the default).
    WordParallel,
    /// The one-row-at-a-time reference implementation.
    Scalar,
}

thread_local! {
    static PATH_OVERRIDE: Cell<Option<KernelPath>> = const { Cell::new(None) };
}

fn env_kernel_path() -> KernelPath {
    static PATH: OnceLock<KernelPath> = OnceLock::new();
    *PATH.get_or_init(|| match std::env::var("ATLAS_FORCE_SCALAR") {
        Ok(v) if !v.is_empty() && v != "0" => KernelPath::Scalar,
        _ => KernelPath::WordParallel,
    })
}

/// The kernel path in effect on this thread: a [`with_kernel_path`] override
/// if one is active, else the process-wide `ATLAS_FORCE_SCALAR` setting
/// (read once).
pub fn active_kernel_path() -> KernelPath {
    PATH_OVERRIDE
        .with(|cell| cell.get())
        .unwrap_or_else(env_kernel_path)
}

/// True when the scalar reference path is in effect on this thread.
pub fn force_scalar() -> bool {
    active_kernel_path() == KernelPath::Scalar
}

/// Run `f` with the partition kernels pinned to `path` on the current thread
/// (restored afterwards, panic-safe). This is how the bit-identity property
/// tests and the `e7_partition_kernels` bench compare both paths inside one
/// process.
pub fn with_kernel_path<R>(path: KernelPath, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<KernelPath>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PATH_OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(PATH_OVERRIDE.with(|cell| cell.replace(Some(path))));
    f()
}

/// Which compilation [`range_mask_64`] dispatches to on this CPU — cached
/// once for trace attributes (the per-64-row dispatch itself relies on the
/// detection macro's own cache and is far too hot to instrument).
fn simd_label() -> &'static str {
    static SIMD: OnceLock<&'static str> = OnceLock::new();
    SIMD.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        "scalar-fold"
    })
}

/// Record one partition-kernel dispatch: bump the always-on per-path counter
/// (surfaced in `/metrics`) and, when tracing is enabled, attach a
/// `kernel.dispatch` event to the current span. Called once per
/// (segment, column) partition call — not per row or per word.
fn observe_dispatch(op: &'static str, path: KernelPath) {
    static COUNTERS: OnceLock<[&'static atlas_obs::Counter; 6]> = OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        [
            atlas_obs::counter("kernel.select_ranges.word_parallel"),
            atlas_obs::counter("kernel.select_ranges.scalar"),
            atlas_obs::counter("kernel.select_in_groups.word_parallel"),
            atlas_obs::counter("kernel.select_in_groups.scalar"),
            atlas_obs::counter("kernel.gather.word_parallel"),
            atlas_obs::counter("kernel.gather.scalar"),
        ]
    });
    let idx = match (op, path) {
        ("select_ranges", KernelPath::WordParallel) => 0,
        ("select_ranges", KernelPath::Scalar) => 1,
        ("gather", KernelPath::WordParallel) => 4,
        ("gather", KernelPath::Scalar) => 5,
        (_, KernelPath::WordParallel) => 2,
        (_, KernelPath::Scalar) => 3,
    };
    counters[idx].add(1);
    if atlas_obs::enabled() {
        let path_label = match path {
            KernelPath::WordParallel => "word-parallel",
            KernelPath::Scalar => "scalar",
        };
        atlas_obs::event(
            "kernel.dispatch",
            &[("op", op), ("path", path_label), ("simd", simd_label())],
        );
    }
}

// ---------------------------------------------------------------------------
// Word-walk plumbing
// ---------------------------------------------------------------------------

/// Walk the words of `sel` that cover the global row range `[offset, end)`,
/// calling `f(word_idx, candidates)` for every word with at least one
/// selected row in range. Out-of-range bits are already masked off.
#[inline(always)]
pub(crate) fn for_each_sel_word(
    sel: &Bitmap,
    offset: usize,
    end: usize,
    mut f: impl FnMut(usize, u64),
) {
    let end = end.min(sel.len());
    if offset >= end {
        return;
    }
    let words = sel.words();
    let first = offset / WORD_BITS;
    let last = (end - 1) / WORD_BITS;
    for (w, &word) in words.iter().enumerate().take(last + 1).skip(first) {
        let mut cand = word;
        if cand == 0 {
            continue;
        }
        let base = w * WORD_BITS;
        if base < offset {
            cand &= !0u64 << (offset - base);
        }
        let rem = end - base;
        if rem < WORD_BITS {
            cand &= (1u64 << rem) - 1;
        }
        if cand != 0 {
            f(w, cand);
        }
    }
}

/// The 64-bit validity window for the block of global rows starting at
/// `base`, for a column whose local row 0 sits at global row `offset`.
/// Lanes before `offset` or past the column's end read as invalid.
#[inline]
fn validity_word(validity: &Bitmap, offset: usize, base: usize) -> u64 {
    if base >= offset {
        validity.word_at(base - offset)
    } else {
        validity.word_at(0) << (offset - base)
    }
}

// ---------------------------------------------------------------------------
// Exact integer bounds for f64 ranges
// ---------------------------------------------------------------------------

/// Smallest `x: i64` with `(x as f64) >= lo`, if any.
fn min_int_matching(lo: f64) -> Option<i64> {
    if lo.is_nan() {
        return None;
    }
    if (i64::MIN as f64) >= lo {
        return Some(i64::MIN);
    }
    if (i64::MAX as f64) < lo {
        return None;
    }
    // Invariant: (l as f64) < lo <= (r as f64). i64→f64 is monotone, so the
    // predicate is monotone and binary search finds the exact boundary.
    let (mut l, mut r) = (i64::MIN, i64::MAX);
    while l + 1 < r {
        let m = ((l as i128 + r as i128) / 2) as i64;
        if (m as f64) >= lo {
            r = m;
        } else {
            l = m;
        }
    }
    Some(r)
}

/// Largest `x: i64` with `(x as f64) <= hi`, if any.
fn max_int_matching(hi: f64) -> Option<i64> {
    if hi.is_nan() {
        return None;
    }
    if (i64::MAX as f64) <= hi {
        return Some(i64::MAX);
    }
    if (i64::MIN as f64) > hi {
        return None;
    }
    let (mut l, mut r) = (i64::MIN, i64::MAX);
    while l + 1 < r {
        let m = ((l as i128 + r as i128) / 2) as i64;
        if (m as f64) <= hi {
            l = m;
        } else {
            r = m;
        }
    }
    Some(l)
}

/// The exact `i64` interval `[a, b]` such that `x ∈ [a, b]` ⇔
/// `(x as f64) ∈ [lo, hi]`, or `None` when no integer matches (NaN or
/// inverted bounds included). Correct for magnitudes beyond 2⁵³, where the
/// conversion rounds and naive `ceil`/`floor` on the bounds is wrong.
pub(crate) fn int_range_bounds(lo: f64, hi: f64) -> Option<(i64, i64)> {
    let a = min_int_matching(lo)?;
    let b = max_int_matching(hi)?;
    (a <= b).then_some((a, b))
}

// ---------------------------------------------------------------------------
// Range partitioning (select_range / select_ranges)
// ---------------------------------------------------------------------------

/// Pre-resolved form of a `select_ranges` bound list for one column type.
pub(crate) enum RangesSpec {
    /// Exact `i64` intervals (empty intervals encoded as `(1, 0)`).
    Int(Vec<(i64, i64)>),
    /// `f64` columns compare against the bounds directly.
    Float,
    /// Non-numeric columns select nothing.
    Inert,
}

/// Resolve `bounds` once per (type, bound-list) — shared across the segments
/// of a [`crate::ColumnView`] walk.
pub(crate) fn resolve_ranges(dtype: DataType, bounds: &[(f64, f64)]) -> RangesSpec {
    match dtype {
        DataType::Int => RangesSpec::Int(
            bounds
                .iter()
                .map(|&(lo, hi)| int_range_bounds(lo, hi).unwrap_or((1, 0)))
                .collect(),
        ),
        DataType::Float => RangesSpec::Float,
        _ => RangesSpec::Inert,
    }
}

/// Partition one segment-local column over its global row range, OR-ing each
/// row's region bit into `out` (global coordinates, one bitmap per bound).
/// Rows are assigned to the **first** bound containing their value.
pub(crate) fn select_ranges_part(
    column: &Column,
    offset: usize,
    sel: &Bitmap,
    bounds: &[(f64, f64)],
    spec: &RangesSpec,
    out: &mut [Bitmap],
) {
    debug_assert_eq!(bounds.len(), out.len());
    let path = active_kernel_path();
    let scalar = path == KernelPath::Scalar;
    observe_dispatch("select_ranges", path);
    match (column, spec) {
        (Column::Int(p), _) if scalar => ranges_scalar(p, offset, sel, bounds, |x| x as f64, out),
        (Column::Float(p), _) if scalar => ranges_scalar(p, offset, sel, bounds, |x| x, out),
        (Column::Int(p), RangesSpec::Int(ibounds)) => ranges_lanes(p, offset, sel, ibounds, out),
        (Column::Float(p), RangesSpec::Float) => ranges_lanes(p, offset, sel, bounds, out),
        _ => {}
    }
}

/// The pre-PR reference: per selected row, read the value through the
/// column's decoding accessor (so it shares no lane code with the kernels,
/// whatever the encoding), convert to `f64`, linear-scan the bounds, `set`
/// the hit.
fn ranges_scalar<T: Copy + Default>(
    column: &PrimitiveColumn<T>,
    offset: usize,
    sel: &Bitmap,
    bounds: &[(f64, f64)],
    to_f64: impl Fn(T) -> f64,
    out: &mut [Bitmap],
) {
    sel.for_each_one_in(offset, offset + column.len(), |idx| {
        let Some(x) = column.get(idx - offset) else {
            return;
        };
        let x = to_f64(x);
        for (region, &(lo, hi)) in out.iter_mut().zip(bounds) {
            if x >= lo && x <= hi {
                region.set(idx);
                break;
            }
        }
    });
}

/// The plain lane fold behind [`range_mask_64`], kept as simple as possible
/// so LLVM auto-vectorises the compare+shift+or pattern (a hand-interleaved
/// multi-accumulator version of the same fold measured *slower* — manual
/// unrolling defeats the vectoriser). `inline(always)` so each caller stamps
/// out a copy under its own instruction set.
#[inline(always)]
fn range_mask_64_fold<T: Copy + PartialOrd>(lanes: &[T; WORD_BITS], lo: T, hi: T) -> u64 {
    let mut m = 0u64;
    for (b, &x) in lanes.iter().enumerate() {
        m |= (((x >= lo) & (x <= hi)) as u64) << b;
    }
    m
}

/// The AVX2 compilation of [`range_mask_64_fold`]: identical safe Rust,
/// wider instruction selection. Baseline x86-64 has no 64-bit SIMD compare,
/// so the `i64` lane fold is emulated there; under `avx2` LLVM selects
/// `vpcmpgtq` / `vcmppd` and folds four lanes per instruction — measured ~4x
/// on the integer and float partition kernels. Never inlined into baseline
/// callers (the feature mismatch forbids it), so the dispatch in
/// [`range_mask_64`] stays an outlined call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn range_mask_64_avx2<T: Copy + PartialOrd>(lanes: &[T; WORD_BITS], lo: T, hi: T) -> u64 {
    range_mask_64_fold(lanes, lo, hi)
}

/// Branchless in-range mask of one full 64-lane block: bit `b` is set iff
/// `lanes[b] ∈ [lo, hi]`. Dispatches to the AVX2 compilation of the fold
/// when the CPU supports it (the detection macro caches, and the result is
/// bit-identical by construction — same source, different codegen).
#[inline(always)]
fn range_mask_64<T: Copy + PartialOrd>(lanes: &[T; WORD_BITS], lo: T, hi: T) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `range_mask_64_avx2` is ordinary safe Rust whose only
        // precondition is a CPU that executes AVX2 instructions, which the
        // runtime detection above just confirmed.
        return unsafe { range_mask_64_avx2(lanes, lo, hi) };
    }
    range_mask_64_fold(lanes, lo, hi)
}

/// The word-parallel range partition of one numeric part, by how it is
/// stored: plain lanes compare every value against the bounds
/// ([`ranges_word`]); coded lanes classify each **dictionary entry** once —
/// the row loop's own predicate, first matching bound wins — and partition
/// the rows by code ([`partition_codes`]).
fn ranges_lanes<T: Copy + Default + PartialOrd>(
    column: &PrimitiveColumn<T>,
    offset: usize,
    sel: &Bitmap,
    bounds: &[(T, T)],
    out: &mut [Bitmap],
) {
    let validity = column.validity();
    match column.lanes() {
        Lanes::Plain(values) => ranges_word(values, validity, offset, sel, bounds, out),
        Lanes::Coded { dict, codes } => {
            let first_match = |&x: &T| bounds.iter().position(|&(lo, hi)| x >= lo && x <= hi);
            let region_of = code_regions(dict, first_match);
            partition_coded(codes, validity, offset, sel, &region_of, out);
        }
    }
}

/// Word-parallel range partition: per selection word, mask validity in one
/// shift-and-or, then either classify all 64 lanes branchlessly (dense) or
/// walk the set bits (sparse). `first-match` semantics are preserved by
/// removing each region's matches from the remaining candidate mask. (A
/// one-pass rank-counting classification of ascending disjoint bounds was
/// tried and measured slower: the indexed accumulate defeats the vectoriser,
/// while one `range_mask_64` pass per region stays fully vectorised.)
fn ranges_word<T: Copy + PartialOrd>(
    values: &[T],
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
    bounds: &[(T, T)],
    out: &mut [Bitmap],
) {
    let end = offset + values.len();
    for_each_sel_word(sel, offset, end, |w, mut cand| {
        let base = w * WORD_BITS;
        cand &= validity_word(validity, offset, base);
        if cand == 0 {
            return;
        }
        let full = base >= offset && base + WORD_BITS <= end;
        if full && cand.count_ones() >= RANGE_DENSE_LANES {
            let lanes: &[T; WORD_BITS] = values[base - offset..base - offset + WORD_BITS]
                .try_into()
                .expect("full word has exactly WORD_BITS lanes");
            let mut remaining = cand;
            for (region, &(lo, hi)) in out.iter_mut().zip(bounds) {
                if remaining == 0 {
                    break;
                }
                let m = range_mask_64(lanes, lo, hi);
                let take = m & remaining;
                if take != 0 {
                    region.or_word(w, take);
                    remaining &= !m;
                }
            }
        } else {
            let mut bits = cand;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let x = values[base + b - offset];
                for (region, &(lo, hi)) in out.iter_mut().zip(bounds) {
                    if x >= lo && x <= hi {
                        region.set(base + b);
                        break;
                    }
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Coded lanes (dictionary + u8 / u16 / u32 codes)
// ---------------------------------------------------------------------------

/// A lane of dictionary codes, at one of the widths [`Codes`] stores.
pub(crate) trait CodeLane: Copy + PartialOrd {
    /// The code as a dictionary index.
    fn index(self) -> usize;
    /// The code of dictionary entry `index` (which the lane type can name).
    fn code(index: usize) -> Self;
    /// Whether the lanes are bytes, the one width the entry masks read
    /// ([`MAX_ENTRY_MASKS`]).
    const IS_BYTE: bool;
    /// A block of these lanes as bytes, or `None` for wider codes.
    fn bytes(lanes: &[Self; WORD_BITS]) -> Option<&[u8; WORD_BITS]>;
}

impl CodeLane for u8 {
    const IS_BYTE: bool = true;
    fn index(self) -> usize {
        usize::from(self)
    }
    fn code(index: usize) -> Self {
        index as u8
    }
    fn bytes(lanes: &[u8; WORD_BITS]) -> Option<&[u8; WORD_BITS]> {
        Some(lanes)
    }
}

impl CodeLane for u16 {
    const IS_BYTE: bool = false;
    fn index(self) -> usize {
        usize::from(self)
    }
    fn code(index: usize) -> Self {
        index as u16
    }
    fn bytes(_: &[u16; WORD_BITS]) -> Option<&[u8; WORD_BITS]> {
        None
    }
}

impl CodeLane for u32 {
    const IS_BYTE: bool = false;
    fn index(self) -> usize {
        self as usize
    }
    fn code(index: usize) -> Self {
        index as u32
    }
    fn bytes(_: &[u32; WORD_BITS]) -> Option<&[u8; WORD_BITS]> {
        None
    }
}

/// The span mask of one full 64-lane block of `u8` codes — bit `b` is set iff
/// `first <= lanes[b] <= last` (`first <= last`) — in AVX2: `x ∈ [first,
/// last]` ⇔ `x − first <= last − first` in wrapping unsigned bytes ⇔
/// `min(x − first, last − first) == x − first`; two 32-byte halves, a
/// subtract, a minimum, a compare and a movemask each. The portable body and
/// test reference is [`range_mask_64_fold`], which LLVM does not narrow to
/// byte lanes on its own (0.40 ms per 1M rows under `avx2` against 0.05) —
/// hence the explicit intrinsics.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn span_mask_u8_avx2(lanes: &[u8; WORD_BITS], first: u8, last: u8) -> u64 {
    use std::arch::x86_64::*;
    let lo = _mm256_set1_epi8(first as i8);
    let width = _mm256_set1_epi8(last.wrapping_sub(first) as i8);
    let half = |at: usize| {
        // SAFETY: `at + 32 <= 64`, so the unaligned 32-byte load stays inside
        // the block.
        let x = unsafe { _mm256_loadu_si256(lanes.as_ptr().add(at).cast()) };
        let x = _mm256_sub_epi8(x, lo);
        let inside = _mm256_cmpeq_epi8(_mm256_min_epu8(x, width), x);
        u64::from(_mm256_movemask_epi8(inside) as u32)
    };
    half(0) | half(32) << 32
}

/// [`span_mask_u8_avx2`] over `u16` codes: the same compare on four 16-lane
/// quarters, each pair packed to bytes (`packs` interleaves the two 128-bit
/// halves, `permute4x64` puts them back in lane order) for one movemask per
/// 32 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn span_mask_u16_avx2(lanes: &[u16; WORD_BITS], first: u16, last: u16) -> u64 {
    use std::arch::x86_64::*;
    let lo = _mm256_set1_epi16(first as i16);
    let width = _mm256_set1_epi16(last.wrapping_sub(first) as i16);
    let quarter = |at: usize| {
        // SAFETY: `at + 16 <= 64` lanes, so the unaligned 32-byte load stays
        // inside the block.
        let x = unsafe { _mm256_loadu_si256(lanes.as_ptr().add(at).cast()) };
        let x = _mm256_sub_epi16(x, lo);
        _mm256_cmpeq_epi16(_mm256_min_epu16(x, width), x)
    };
    let half = |at: usize| {
        let packed = _mm256_packs_epi16(quarter(at), quarter(at + 16));
        let ordered = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
        u64::from(_mm256_movemask_epi8(ordered) as u32)
    };
    half(0) | half(32) << 32
}

/// "No region" in a code → region table.
const NO_REGION: u32 = u32::MAX;

/// Resolve a partition against a dictionary instead of against the rows: the
/// region (if any) of every dictionary entry, by the predicate the row loop
/// would apply to the value.
fn code_regions<T>(dict: &[T], region_of: impl Fn(&T) -> Option<usize>) -> Vec<u32> {
    dict.iter()
        .map(|x| region_of(x).map_or(NO_REGION, |g| g as u32))
        .collect()
}

/// The regions of a code → region table as code spans `(region, first,
/// last)`, empty regions left out — when every region's entries are one run
/// of codes, which on a sorted dictionary is every partition into disjoint
/// value ranges. `None` when some region has a hole (overlapping bounds under
/// first-match-wins, value groups).
fn code_spans<C: CodeLane>(region_of: &[u32], num_regions: usize) -> Option<Vec<(usize, C, C)>> {
    // (first code, last code, codes) per region.
    let mut runs = vec![(0usize, 0usize, 0usize); num_regions];
    for (code, &g) in region_of.iter().enumerate() {
        if let Some(run) = runs.get_mut(g as usize) {
            if run.2 == 0 {
                run.0 = code;
            }
            run.1 = code;
            run.2 += 1;
        }
    }
    let mut spans = Vec::with_capacity(num_regions);
    for (g, &(first, last, codes)) in runs.iter().enumerate() {
        if codes != 0 && codes != last + 1 - first {
            return None;
        }
        if codes != 0 {
            spans.push((g, C::code(first), C::code(last)));
        }
    }
    Some(spans)
}

/// [`partition_codes`] at the width the codes are stored in, with the lane
/// masks this CPU runs: the AVX2 compilation when it has it (chosen once per
/// part, so the masks inline into the word loop), the portable folds
/// otherwise. Bit-identical either way (`span_masks_agree_…` pins it).
fn partition_coded(
    codes: &Codes,
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
    region_of: &[u32],
    out: &mut [Bitmap],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `partition_coded_avx2` is safe Rust whose only precondition
        // is a CPU that executes AVX2 instructions, which the runtime
        // detection above just confirmed.
        return unsafe { partition_coded_avx2(codes, validity, offset, sel, region_of, out) };
    }
    at_each_width!(codes, codes => {
        let span = range_mask_64_fold;
        partition_codes(codes, validity, offset, sel, region_of, out, span, eq_mask_64)
    })
}

/// The AVX2 compilation of [`partition_coded`]'s word loop. A gathered slot
/// equal to `g` is a byte lane in the span `[g, g]`; four-byte code lanes need
/// no intrinsics (under `avx2` the portable fold compiles to the vector
/// compare).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn partition_coded_avx2(
    codes: &Codes,
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
    region_of: &[u32],
    out: &mut [Bitmap],
) {
    let slot = |slots: &[u8; WORD_BITS], g| span_mask_u8_avx2(slots, g, g);
    match codes {
        Codes::U8(codes) => {
            let span = |lanes: &[u8; WORD_BITS], a, b| span_mask_u8_avx2(lanes, a, b);
            partition_codes(codes, validity, offset, sel, region_of, out, span, slot);
        }
        Codes::U16(codes) => {
            let span = |lanes: &[u16; WORD_BITS], a, b| span_mask_u16_avx2(lanes, a, b);
            partition_codes(codes, validity, offset, sel, region_of, out, span, slot);
        }
        Codes::U32(codes) => {
            let span = range_mask_64_fold;
            partition_codes(codes, validity, offset, sel, region_of, out, span, slot);
        }
    }
}

/// How [`partition_codes`] classifies a full 64-row word of one part.
enum WordClass<C> {
    /// Every region is one run of codes ([`code_spans`]): a span compare each.
    Spans(Vec<(usize, C, C)>),
    /// Regions with holes, at most 255 of them: `slot_of[code]` is the
    /// code's region as a byte ([`NO_REGION`] truncates to 255, which no
    /// region of at most 255 is), gathered per lane and compared per region.
    /// A `u8`-coded part with few enough entries to mask
    /// ([`MAX_ENTRY_MASKS`]) also has its [`EntryMasks`], which every full
    /// word takes.
    Slots {
        slot_of: Vec<u8>,
        masks: Option<EntryMasks>,
    },
    /// More regions than a byte names: every word walks its set bits.
    Walk,
}

/// A region partition of a coded part as per-entry equality masks. The
/// entries are grouped by where their rows go — a region, or the "no region"
/// accumulator past the last one — and the largest group takes no mask: its
/// rows are the candidates no mask claimed (every candidate is a non-NULL row
/// holding some entry).
struct EntryMasks {
    /// `(code, accumulator)` of every entry outside the largest group.
    masked: Vec<(u8, usize)>,
    /// The largest group's accumulator.
    rest: usize,
}

impl EntryMasks {
    /// The masks of a code → region table with `num_regions` regions.
    fn new(region_of: &[u32], num_regions: usize) -> Self {
        let acc = |g: u32| (g as usize).min(num_regions);
        let mut entries = vec![0usize; num_regions + 1];
        for &g in region_of {
            entries[acc(g)] += 1;
        }
        let rest = (0..=num_regions)
            .max_by_key(|&slot| entries[slot])
            .unwrap_or(num_regions);
        let masked = region_of
            .iter()
            .enumerate()
            .filter(|&(_, &g)| acc(g) != rest)
            .map(|(code, &g)| (code as u8, acc(g)))
            .collect();
        EntryMasks { masked, rest }
    }
}

/// OR every region's accumulated word into its bitmap at word `w`, clearing
/// the accumulators (the "no region" one past the last region is never read).
#[inline(always)]
fn flush_regions(accs: &mut [u64], out: &mut [Bitmap], w: usize) {
    for (acc, region) in accs.iter_mut().zip(out.iter_mut()) {
        if *acc != 0 {
            region.or_word(w, *acc);
            *acc = 0;
        }
    }
}

/// Partition one coded part — numeric or string — by a code → region table
/// (`region_of[code]`, [`NO_REGION`] for none), OR-ing each selected non-NULL
/// row into its region's bitmap. A part none of whose entries has a region is
/// not scanned.
///
/// When the regions are code spans — value ranges over a sorted dictionary,
/// value groups that happen to be runs (every two-value string column) — every
/// full 64-row word with a candidate takes one `span_mask(lanes, first, last)`
/// per region, whatever its density: a span compare costs less than walking
/// two set bits, and its word is OR-ed in unconditionally (at a few candidates
/// per word "any hit?" is a coin the branch predictor loses). Otherwise a
/// `u8`-coded part with few entries takes one `slot_mask(lanes, code)` per
/// masked entry on every full word ([`EntryMasks`], [`MAX_ENTRY_MASKS`]) —
/// `slot_mask` is the byte equality mask. Any other part gathers, on a word
/// of at least [`GROUP_DENSE_LANES`] candidates, its lanes' regions into a
/// byte each and takes one `slot_mask(slots, region)` per region. Sparser
/// words, and the partial words at the part's edges, walk their set bits.
/// `inline(always)` so each caller stamps out a copy under its own
/// instruction set.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn partition_codes<C: CodeLane>(
    codes: &[C],
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
    region_of: &[u32],
    out: &mut [Bitmap],
    span_mask: impl Fn(&[C; WORD_BITS], C, C) -> u64,
    slot_mask: impl Fn(&[u8; WORD_BITS], u8) -> u64,
) {
    if region_of.iter().all(|&g| g == NO_REGION) {
        return;
    }
    let num_regions = out.len();
    let class = match code_spans::<C>(region_of, num_regions) {
        Some(spans) => WordClass::Spans(spans),
        None if num_regions <= usize::from(u8::MAX) => WordClass::Slots {
            slot_of: region_of.iter().map(|&g| g as u8).collect(),
            masks: C::IS_BYTE
                .then(|| EntryMasks::new(region_of, num_regions))
                .filter(|plan| plan.masked.len() <= MAX_ENTRY_MASKS),
        },
        None => WordClass::Walk,
    };
    let mut slots = [0u8; WORD_BITS];
    // The set-bit walk's accumulators, plus one for "no region".
    let mut accs = vec![0u64; num_regions + 1];
    let end = offset + codes.len();
    for_each_sel_word(sel, offset, end, |w, mut cand| {
        let base = w * WORD_BITS;
        cand &= validity_word(validity, offset, base);
        if cand == 0 {
            return;
        }
        // The word's 64 lanes, when all of them are this part's.
        let lanes: Option<&[C; WORD_BITS]> = base
            .checked_sub(offset)
            .and_then(|at| codes[at..].first_chunk());
        match (&class, lanes, lanes.and_then(C::bytes)) {
            (WordClass::Spans(spans), Some(lanes), _) => {
                for &(g, first, last) in spans {
                    out[g].or_word(w, cand & span_mask(lanes, first, last));
                }
            }
            (
                WordClass::Slots {
                    masks: Some(plan), ..
                },
                _,
                Some(bytes),
            ) => {
                let mut rest = cand;
                for &(code, acc) in &plan.masked {
                    let m = cand & slot_mask(bytes, code);
                    accs[acc] |= m;
                    rest &= !m;
                }
                accs[plan.rest] |= rest;
                flush_regions(&mut accs, out, w);
            }
            (WordClass::Slots { slot_of, .. }, Some(lanes), _)
                if cand.count_ones() >= GROUP_DENSE_LANES =>
            {
                for (slot, &code) in slots.iter_mut().zip(lanes) {
                    *slot = slot_of[code.index()];
                }
                for (g, region) in out.iter_mut().enumerate() {
                    let m = cand & slot_mask(&slots, g as u8);
                    if m != 0 {
                        region.or_word(w, m);
                    }
                }
            }
            _ => {
                let mut bits = cand;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let g = region_of[codes[base + b - offset].index()];
                    accs[(g as usize).min(num_regions)] |= 1u64 << b;
                }
                flush_regions(&mut accs, out, w);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Group partitioning (select_in_groups)
// ---------------------------------------------------------------------------

/// Pre-resolved form of a `select_in_groups` group list for one column type:
/// which group a value falls into. A value listed in more than one group
/// (groups are disjoint by contract) belongs to the **first** — one rule for
/// every type.
pub(crate) enum GroupsSpec<'g> {
    /// Which group (if any) `true` / `false` fall into.
    Bool {
        /// Group index selecting `true` rows.
        true_group: Option<usize>,
        /// Group index selecting `false` rows.
        false_group: Option<usize>,
    },
    /// `(value, group)` pairs sorted by value.
    Int(Vec<(i64, u32)>),
    /// The group of each value as written: a string column holds the value
    /// itself, a float column a value that renders so.
    Written(HashMap<&'g str, u32>),
}

/// Resolve `groups` once per (type, group-list) — shared across the segments
/// of a [`crate::ColumnView`] walk.
pub(crate) fn resolve_groups(dtype: DataType, groups: &[Vec<String>]) -> GroupsSpec<'_> {
    match dtype {
        DataType::Bool => {
            let group_of = |value: &str| {
                groups
                    .iter()
                    .position(|group| group.iter().any(|s| s.eq_ignore_ascii_case(value)))
            };
            GroupsSpec::Bool {
                true_group: group_of("true"),
                false_group: group_of("false"),
            }
        }
        DataType::Int => {
            // Parse each value once; the round-trip check keeps set
            // predicates matching on the decimal rendering ("007" or "+7"
            // never match 7).
            let mut map: Vec<(i64, u32)> = Vec::new();
            for (g, group) in groups.iter().enumerate() {
                for s in group {
                    if let Some(x) = s.parse::<i64>().ok().filter(|x| x.to_string() == *s) {
                        map.push((x, g as u32));
                    }
                }
            }
            map.sort_by_key(|&(x, g)| (x, g));
            map.dedup_by_key(|&mut (x, _)| x);
            GroupsSpec::Int(map)
        }
        DataType::Str | DataType::Float => {
            let mut map: HashMap<&str, u32> = HashMap::new();
            for (g, group) in groups.iter().enumerate() {
                for s in group {
                    map.entry(s).or_insert(g as u32);
                }
            }
            GroupsSpec::Written(map)
        }
    }
}

/// Partition one segment-local column over its global row range into `out`
/// (one bitmap per group, global coordinates). A part in which no value of
/// any group can occur — none is in its dictionary, or none parses as the
/// column's type — is not scanned.
pub(crate) fn select_in_groups_part(
    column: &Column,
    offset: usize,
    sel: &Bitmap,
    spec: &GroupsSpec<'_>,
    out: &mut [Bitmap],
) {
    let path = active_kernel_path();
    let scalar = path == KernelPath::Scalar;
    observe_dispatch("select_in_groups", path);
    match (column, spec) {
        (Column::Str(d), GroupsSpec::Written(map)) if !map.is_empty() => {
            let group_of = |value: &str| map.get(value).map(|&g| g as usize);
            if scalar {
                let group_of_row = |row| group_of(d.get(row)?);
                groups_scalar(d.len(), offset, sel, group_of_row, out);
            } else {
                let region_of = code_regions(d.dictionary(), |value| group_of(value));
                partition_coded(d.codes(), d.validity(), offset, sel, &region_of, out);
            }
        }
        (
            Column::Bool(p),
            &GroupsSpec::Bool {
                true_group,
                false_group,
            },
        ) if true_group.or(false_group).is_some() => {
            let lookup = |x: bool| if x { true_group } else { false_group };
            groups_keyed(p, offset, sel, scalar, lookup, out);
        }
        (Column::Int(p), GroupsSpec::Int(map)) if !map.is_empty() => {
            let lookup = |x: i64| {
                map.binary_search_by(|probe| probe.0.cmp(&x))
                    .ok()
                    .map(|pos| map[pos].1 as usize)
            };
            groups_keyed(p, offset, sel, scalar, lookup, out);
        }
        (Column::Float(p), GroupsSpec::Written(map)) if !map.is_empty() => {
            // Set predicates on floats match on the decimal rendering — a
            // degraded edge case kept for completeness.
            let lookup = |x: f64| map.get(x.to_string().as_str()).map(|&g| g as usize);
            groups_keyed(p, offset, sel, scalar, lookup, out);
        }
        _ => {}
    }
}

/// Keyed (numeric or boolean) grouping of one part, by path and by how it is
/// stored: the scalar reference reads rows through the decoding accessor;
/// plain lanes look every row's value up ([`groups_word_keyed`]); coded lanes
/// look each **dictionary entry** up once (a float renders once per entry,
/// not once per row) and partition the rows by code ([`partition_codes`]).
fn groups_keyed<T: Copy + Default>(
    column: &PrimitiveColumn<T>,
    offset: usize,
    sel: &Bitmap,
    scalar: bool,
    lookup: impl Fn(T) -> Option<usize>,
    out: &mut [Bitmap],
) {
    if scalar {
        let group_of_row = |row| column.get(row).and_then(&lookup);
        return groups_scalar(column.len(), offset, sel, group_of_row, out);
    }
    let validity = column.validity();
    match column.lanes() {
        Lanes::Plain(values) => groups_word_keyed(values, validity, offset, sel, lookup, out),
        Lanes::Coded { dict, codes } => {
            let region_of = code_regions(dict, |&x| lookup(x));
            partition_coded(codes, validity, offset, sel, &region_of, out);
        }
    }
}

/// Equality mask of one 64-lane block of gathered group slots: bit `b` is set
/// iff `slots[b] == g`. The byte compare vectorises on baseline x86-64, and
/// each eight 0/1 bytes become eight bits with one multiply (byte `i`'s low
/// bit is carried to bit `56 + i`; no two partial products meet), so this
/// fold needs no AVX2 twin.
#[inline]
fn eq_mask_64(slots: &[u8; WORD_BITS], g: u8) -> u64 {
    let mut eq = [0u8; WORD_BITS];
    for (e, &slot) in eq.iter_mut().zip(slots) {
        *e = (slot == g) as u8;
    }
    let mut m = 0u64;
    for (k, chunk) in eq.chunks_exact(8).enumerate() {
        let bytes = u64::from_le_bytes(chunk.try_into().expect("chunks of exactly 8"));
        m |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    m
}

/// Scalar reference for value grouping, numeric or string: one pass, one
/// lookup per selected row — `group_of_row` reads the row through the
/// column's decoding accessor (NULL rows have no group), so the reference
/// shares no lane code with the kernels.
fn groups_scalar(
    len: usize,
    offset: usize,
    sel: &Bitmap,
    group_of_row: impl Fn(usize) -> Option<usize>,
    out: &mut [Bitmap],
) {
    sel.for_each_one_in(offset, offset + len, |idx| {
        if let Some(g) = group_of_row(idx - offset) {
            out[g].set(idx);
        }
    });
}

/// Word-level keyed grouping of plain lanes: the key lookup stays per-lane
/// (a binary search for integers), but selection/validity are word-masked
/// and output words are accumulated per group — the single-pass replacement
/// for the old one-`select_in`-per-group fallback.
fn groups_word_keyed<T: Copy>(
    values: &[T],
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
    lookup: impl Fn(T) -> Option<usize>,
    out: &mut [Bitmap],
) {
    let mut accs = vec![0u64; out.len()];
    let end = offset + values.len();
    for_each_sel_word(sel, offset, end, |w, mut cand| {
        let base = w * WORD_BITS;
        cand &= validity_word(validity, offset, base);
        if cand == 0 {
            return;
        }
        let mut bits = cand;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Some(g) = lookup(values[base + b - offset]) {
                accs[g] |= 1u64 << b;
            }
        }
        for (g, acc) in accs.iter_mut().enumerate() {
            if *acc != 0 {
                out[g].or_word(w, *acc);
                *acc = 0;
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Value walks (numeric_values_where, numeric_min_max, counts, null masks)
// ---------------------------------------------------------------------------

/// Visit as `f64`, in row order, the non-NULL numeric values selected by
/// `sel` within this part's global row range (nothing for a non-numeric
/// part). (Exact either way — not path-gated.)
#[inline]
pub(crate) fn for_each_numeric_part(
    column: &Column,
    offset: usize,
    sel: &Bitmap,
    mut visit: impl FnMut(f64),
) {
    match column {
        Column::Int(p) => for_each_value(p, offset, sel, |x| visit(x as f64)),
        Column::Float(p) => for_each_value(p, offset, sel, visit),
        _ => {}
    }
}

/// [`for_each_selected_value`] over one numeric part however it is stored: a
/// coded part walks its code lanes and decodes `dict[code]` per visited row.
#[inline]
fn for_each_value<T: Copy + Default>(
    column: &PrimitiveColumn<T>,
    offset: usize,
    sel: &Bitmap,
    mut visit: impl FnMut(T),
) {
    let validity = column.validity();
    match column.lanes() {
        Lanes::Plain(values) => {
            for_each_selected_value(values, validity, offset, sel, visit);
        }
        Lanes::Coded { dict, codes } => at_each_width!(codes, codes => {
            for_each_selected_value(codes, validity, offset, sel, |c| visit(dict[c.index()]));
        }),
    }
}

/// Append the non-NULL numeric values selected by `sel` within this part's
/// global row range, in row order.
pub(crate) fn numeric_values_part(
    column: &Column,
    offset: usize,
    sel: &Bitmap,
    out: &mut Vec<f64>,
) {
    for_each_numeric_part(column, offset, sel, |x| out.push(x));
}

/// Visit, in row order, the selected non-NULL values of a primitive part
/// whose local row 0 sits at global row `offset`, and return how many
/// selected rows of the part are NULL. Validity is consulted a word at a
/// time and dense words skip the per-bit walk. (Exact either way — not
/// path-gated.)
#[inline]
pub(crate) fn for_each_selected_value<T: Copy>(
    values: &[T],
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
    mut visit: impl FnMut(T),
) -> usize {
    let end = offset + values.len();
    let mut nulls = 0;
    for_each_sel_word(sel, offset, end, |w, cand| {
        let base = w * WORD_BITS;
        let valid = cand & validity_word(validity, offset, base);
        nulls += (cand ^ valid).count_ones() as usize;
        if valid == u64::MAX && base >= offset && base + WORD_BITS <= end {
            for &x in &values[base - offset..base - offset + WORD_BITS] {
                visit(x);
            }
        } else {
            let mut bits = valid;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                visit(values[base + b - offset]);
            }
        }
    });
    nulls
}

/// Per-code selected-row counts of one coded part — numeric or string: a
/// slot per dictionary entry and a last one for the selected NULL rows. The
/// scalar reference path walks every word ([`count_lanes`] without masks),
/// so `ATLAS_FORCE_SCALAR` holds the entry masks to the walk.
pub(crate) fn count_coded_part(
    codes: &Codes,
    card: usize,
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
) -> Vec<usize> {
    if force_scalar() {
        return at_each_width!(codes, codes => {
            count_lanes(codes, card, validity, offset, sel, NO_MASKS)
        });
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    {
        // SAFETY: `count_coded_avx2` is safe Rust whose only precondition is
        // a CPU that executes AVX2 and POPCNT instructions, which the runtime
        // detection above just confirmed.
        return unsafe { count_coded_avx2(codes, card, validity, offset, sel) };
    }
    at_each_width!(codes, codes => {
        count_lanes(codes, card, validity, offset, sel, Some(eq_mask_64))
    })
}

/// The AVX2 compilation of [`count_coded_part`]'s word loop: the entry masks
/// are byte spans `[code, code]`, and every count is one `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
fn count_coded_avx2(
    codes: &Codes,
    card: usize,
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
) -> Vec<usize> {
    let eq = |lanes: &[u8; WORD_BITS], code| span_mask_u8_avx2(lanes, code, code);
    at_each_width!(codes, codes => count_lanes(codes, card, validity, offset, sel, Some(eq)))
}

/// [`count_lanes`] with the walk alone: the scalar reference.
const NO_MASKS: Option<fn(&[u8; WORD_BITS], u8) -> u64> = None;

/// Direct-address selected-row counts over code lanes: `card + 1` slots, the
/// last for NULLs, which `validity` marks (their lanes hold code 0).
///
/// With `eq_mask` (the byte equality mask), a full word of a `u8`-coded part
/// of at most [`MAX_ENTRY_MASKS`] + 1 entries counts entry `c` as
/// `popcount(live & (lane == c))` over its live (selected, non-NULL) lanes —
/// every entry but the last, whose count is what the masks leave of the live
/// lanes. Every other word walks: a word whose every lane is a candidate
/// tallies all 64 lanes, a sparser or edge word visits its set bits. How many
/// words took each body
/// reaches `/metrics` (`kernel.count.{masked,walked}_words`), added once per
/// part. `inline(always)` so each caller stamps out a copy under its own
/// instruction set.
#[inline(always)]
fn count_lanes<C: CodeLane>(
    codes: &[C],
    card: usize,
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
    eq_mask: Option<impl Fn(&[u8; WORD_BITS], u8) -> u64>,
) -> Vec<usize> {
    // Two tallies per slot, taken in turn: neighbouring rows often hold the
    // same code, and back-to-back increments of one counter wait on each
    // other's store.
    let mut tallies = vec![[0usize; 2]; card + 1];
    // NULL lanes counted as code 0 by the dense words.
    let mut dense_nulls = 0;
    // The entries the masks count; the last is the rest (an empty dictionary
    // has no live lane). The whole part masks or walks.
    let masks = card.saturating_sub(1);
    let eq_mask = eq_mask.filter(|_| C::IS_BYTE && masks <= MAX_ENTRY_MASKS);
    let (mut masked_words, mut walked_words) = (0u64, 0u64);
    let end = offset + codes.len();
    for_each_sel_word(sel, offset, end, |w, cand| {
        let base = w * WORD_BITS;
        let valid = validity_word(validity, offset, base);
        let live = cand & valid;
        // The word's 64 lanes, when all of them are this part's.
        let lanes: Option<&[C; WORD_BITS]> = base
            .checked_sub(offset)
            .and_then(|at| codes[at..].first_chunk());
        if let (Some(eq), Some(bytes)) = (&eq_mask, lanes.and_then(C::bytes)) {
            masked_words += 1;
            tallies[card][0] += (cand & !valid).count_ones() as usize;
            let mut rest = live.count_ones() as usize;
            for (code, tally) in tallies[..masks].iter_mut().enumerate() {
                let n = (live & eq(bytes, code as u8)).count_ones() as usize;
                tally[0] += n;
                rest -= n;
            }
            tallies[masks][0] += rest;
            return;
        }
        walked_words += 1;
        match lanes {
            Some(lanes) if cand == u64::MAX => {
                for pair in lanes.chunks_exact(2) {
                    tallies[pair[0].index()][0] += 1;
                    tallies[pair[1].index()][1] += 1;
                }
                dense_nulls += (!valid).count_ones() as usize;
            }
            _ => {
                tallies[card][0] += (cand & !valid).count_ones() as usize;
                let mut bits = live;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let code = codes[base + b - offset];
                    tallies[code.index()][b & 1] += 1;
                }
            }
        }
    });
    observe_count_words(masked_words, walked_words);
    let mut counts: Vec<usize> = tallies.into_iter().map(|[a, b]| a + b).collect();
    counts[0] -= dense_nulls;
    counts[card] += dense_nulls;
    counts
}

/// Add one part's [`count_lanes`] words to the always-on counters (surfaced
/// in `/metrics`): how many words the entry masks counted, how many the walk
/// did.
fn observe_count_words(masked: u64, walked: u64) {
    static COUNTERS: OnceLock<[&'static atlas_obs::Counter; 2]> = OnceLock::new();
    let [masked_words, walked_words] = COUNTERS.get_or_init(|| {
        [
            atlas_obs::counter("kernel.count.masked_words"),
            atlas_obs::counter("kernel.count.walked_words"),
        ]
    });
    masked_words.add(masked);
    walked_words.add(walked);
}

/// The selected `(non-NULL, NULL)` row counts of one string part (zeros for
/// any other part), read off [`count_coded_part`]; `counted` is called, in
/// dictionary order, with every value of the dictionary and how many selected
/// rows hold it (zero for a value no selected row holds).
pub(crate) fn count_values_part<'d>(
    column: &'d Column,
    offset: usize,
    sel: &Bitmap,
    mut counted: impl FnMut(&'d str, usize),
) -> (usize, usize) {
    let Column::Str(d) = column else {
        return (0, 0);
    };
    let counts = count_coded_part(d.codes(), d.cardinality(), d.validity(), offset, sel);
    let (&nulls, by_code) = counts.split_last().expect("the NULL slot is always there");
    let mut non_null = 0;
    for (value, &n) in d.dictionary().iter().zip(by_code) {
        non_null += n;
        counted(value, n);
    }
    (non_null, nulls)
}

/// The dictionary of one string part, in its first-appearance order (empty
/// for any other part).
pub(crate) fn dictionary_part(column: &Column) -> &[String] {
    match column {
        Column::Str(d) => d.dictionary(),
        _ => &[],
    }
}

/// Label the non-NULL rows of one string part: `labels[row] =
/// label_of_code[code of row]`, one label per dictionary entry; NULL rows
/// keep what `labels` holds. Nothing is written for any other part.
pub(crate) fn category_codes_part(column: &Column, label_of_code: &[u32], labels: &mut [u32]) {
    let Column::Str(d) = column else {
        return;
    };
    at_each_width!(d.codes(), codes => {
        d.validity().for_each_one_in(0, codes.len(), |row| {
            labels[row] = label_of_code[codes[row].index()];
        });
    });
}

// ---------------------------------------------------------------------------
// Gathering a part's selected rows (Table::gather)
// ---------------------------------------------------------------------------

/// The rows of one part (local row 0 at global row `offset`) that a
/// selection selects, found once for all of the part's columns: every column
/// of a segment is gathered by the same rows, so the selection's words are
/// read, and its bits decoded, once per part instead of once per column — a
/// sparse selection's per-word branches, which mispredict on random words,
/// are paid once.
pub(crate) struct PartRows<'s> {
    sel: &'s Bitmap,
    offset: usize,
    len: usize,
    /// The selection's words over the part, in the part's own alignment:
    /// bit `b` of word `w` is local row `64 w + b`.
    words: Vec<u64>,
    /// How many rows of the part are selected.
    selected: usize,
    /// The selected local rows, ascending.
    rows: Vec<u32>,
}

impl<'s> PartRows<'s> {
    /// The selected rows of the part of `len` rows at global row `offset`.
    pub(crate) fn new(sel: &'s Bitmap, offset: usize, len: usize) -> Self {
        let words: Vec<u64> = (0..len.div_ceil(WORD_BITS))
            .map(|w| {
                let word = sel.word_at(offset + w * WORD_BITS);
                match len - w * WORD_BITS {
                    rest if rest < WORD_BITS => word & ((1u64 << rest) - 1),
                    _ => word,
                }
            })
            .collect();
        let selected = words.iter().map(|w| w.count_ones() as usize).sum();
        let mut part = PartRows {
            sel,
            offset,
            len,
            words,
            selected,
            rows: Vec::new(),
        };
        if selected != 0 {
            part.rows = decode_rows(&part.words, selected);
        }
        part
    }

    /// How many rows of the part are selected.
    pub(crate) fn selected(&self) -> usize {
        self.selected
    }
}

/// The set bits of `words`, `selected` of them, as ascending row numbers.
/// Each word writes eight rows whether it holds them or not, and a word
/// holding more writes eight more before it loops (the slots past its count
/// are overwritten by the next word or cut off at the end). So a word of up
/// to eight rows — most words of a selection of at most an eighth of the
/// rows, the ones gathered — takes no branch on its count.
fn decode_rows(words: &[u64], selected: usize) -> Vec<u32> {
    const UNCONDITIONAL: usize = 8;
    let mut rows = vec![0u32; selected + 2 * UNCONDITIONAL];
    let mut filled = 0;
    let write = |rows: &mut [u32], base: u32, bits: &mut u64| {
        for slot in rows {
            *slot = base + bits.trailing_zeros();
            *bits &= bits.wrapping_sub(1);
        }
    };
    for (w, &word) in words.iter().enumerate() {
        let base = (w * WORD_BITS) as u32;
        let count = word.count_ones() as usize;
        let mut bits = word;
        write(&mut rows[filled..filled + UNCONDITIONAL], base, &mut bits);
        if count > UNCONDITIONAL {
            let next = filled + UNCONDITIONAL;
            write(&mut rows[next..next + UNCONDITIONAL], base, &mut bits);
            let mut at = next + UNCONDITIONAL;
            while bits != 0 {
                rows[at] = base + bits.trailing_zeros();
                bits &= bits - 1;
                at += 1;
            }
        }
        filled += count;
    }
    rows.truncate(selected);
    rows
}

/// The selected rows of one part, as a part of their own, in row order: the
/// same type, encoding and dictionary (shared, not copied; nothing is sealed
/// again), holding the selected rows' lanes and validity bits. A part no
/// selected row falls in gathers to zero rows and keeps its dictionary.
///
/// Lanes are gathered by the part's selected rows ([`PartRows`]). Validity
/// bits are compressed one 64-row word at a time by `pext` on a CPU with
/// BMI2, and gathered by row otherwise; a part with no NULL has nothing to
/// compress. The scalar reference, which `ATLAS_FORCE_SCALAR` selects,
/// visits every selected row through [`Bitmap::for_each_one_in`] and pushes
/// its lane and its validity bit.
pub(crate) fn gather_part(column: &Column, part: &PartRows<'_>) -> Column {
    let path = active_kernel_path();
    observe_dispatch("gather", path);
    debug_assert_eq!(column.len(), part.len);
    match column {
        Column::Int(p) => Column::Int(gather_primitive(p, part, path)),
        Column::Float(p) => Column::Float(gather_primitive(p, part, path)),
        Column::Bool(p) => Column::Bool(gather_primitive(p, part, path)),
        Column::Str(d) => {
            let (codes, validity) = gather_codes(d.codes(), d.validity(), part, path);
            let dict = Arc::clone(d.shared_dictionary());
            Column::Str(DictColumn::from_codes(dict, codes, validity))
        }
    }
}

/// [`gather_part`] of a numeric or boolean part.
fn gather_primitive<T: Copy + Default>(
    column: &PrimitiveColumn<T>,
    part: &PartRows<'_>,
    path: KernelPath,
) -> PrimitiveColumn<T> {
    let validity = column.validity();
    let (lanes, validity) = match column.lanes() {
        Lanes::Plain(values) => {
            let (values, validity) = gather_lanes(values, validity, part, path);
            (Lanes::Plain(values), validity)
        }
        Lanes::Coded { dict, codes } => {
            let (codes, validity) = gather_codes(codes, validity, part, path);
            let dict = Arc::clone(dict);
            (Lanes::Coded { dict, codes }, validity)
        }
    };
    PrimitiveColumn::from_lanes(lanes, validity)
}

/// [`gather_part`] of code lanes, at the width they are stored.
fn gather_codes(
    codes: &Codes,
    validity: &Bitmap,
    part: &PartRows<'_>,
    path: KernelPath,
) -> (Codes, Bitmap) {
    match codes {
        Codes::U8(lanes) => {
            let (lanes, validity) = gather_lanes(lanes, validity, part, path);
            (Codes::U8(lanes), validity)
        }
        Codes::U16(lanes) => {
            let (lanes, validity) = gather_lanes(lanes, validity, part, path);
            (Codes::U16(lanes), validity)
        }
        Codes::U32(lanes) => {
            let (lanes, validity) = gather_lanes(lanes, validity, part, path);
            (Codes::U32(lanes), validity)
        }
    }
}

/// The selected rows' lanes and validity bits of one part's `lanes`, through
/// the path in effect.
fn gather_lanes<L: Copy>(
    lanes: &[L],
    validity: &Bitmap,
    part: &PartRows<'_>,
    path: KernelPath,
) -> (Vec<L>, Bitmap) {
    if path == KernelPath::Scalar {
        return gather_scalar(lanes, validity, part.sel, part.offset);
    }
    let gathered = part.rows.iter().map(|&row| lanes[row as usize]).collect();
    (gathered, gather_validity(validity, part))
}

/// The selected rows' validity bits: every one set for a part with no
/// NULL, else [`compress_bmi2`] on a CPU with BMI2, one bit per selected row
/// otherwise.
fn gather_validity(validity: &Bitmap, part: &PartRows<'_>) -> Bitmap {
    if validity.count() == part.len {
        return Bitmap::new_full(part.selected);
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("bmi2") {
        // SAFETY: `compress_bmi2` is safe Rust whose only precondition is a
        // CPU that executes BMI2 instructions, which the runtime detection
        // above just confirmed.
        return unsafe { compress_bmi2(validity.words(), &part.words, part.selected) };
    }
    let mut out = Bitmap::new_empty(part.selected);
    for (at, &row) in part.rows.iter().enumerate() {
        out.or_word(
            at / WORD_BITS,
            u64::from(validity.get(row as usize)) << (at % WORD_BITS),
        );
    }
    out
}

/// The bits of `bits` under `mask`, word by word, packed into `selected`
/// bits in order: one `pext` per word, appended at a running bit position.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2,popcnt")]
fn compress_bmi2(bits: &[u64], mask: &[u64], selected: usize) -> Bitmap {
    use std::arch::x86_64::_pext_u64;
    let mut out: Vec<u64> = Vec::with_capacity(selected.div_ceil(WORD_BITS) + 1);
    // The word being filled and how many of its bits are.
    let (mut word, mut filled) = (0u64, 0u32);
    for (&bits, &mask) in bits.iter().zip(mask) {
        let packed = _pext_u64(bits, mask);
        let taken = mask.count_ones();
        word |= packed.checked_shl(filled).unwrap_or(0);
        filled += taken;
        if filled >= u64::BITS {
            out.push(word);
            filled -= u64::BITS;
            // The packed bits that did not fit; none when the word was
            // filled exactly.
            word = packed.checked_shr(taken - filled).unwrap_or(0);
        }
    }
    if filled > 0 {
        out.push(word);
    }
    Bitmap::from_words(selected, out)
}

/// The scalar reference of [`gather_lanes`]: every selected row of the part,
/// its lane and its validity bit pushed one at a time.
fn gather_scalar<L: Copy>(
    lanes: &[L],
    validity: &Bitmap,
    sel: &Bitmap,
    offset: usize,
) -> (Vec<L>, Bitmap) {
    let mut out = Vec::new();
    let mut valid = Bitmap::new_empty(0);
    sel.for_each_one_in(offset, offset + lanes.len(), |row| {
        out.push(lanes[row - offset]);
        valid.push(validity.get(row - offset));
    });
    (out, valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_range_bounds_small_magnitudes_match_ceil_floor() {
        assert_eq!(int_range_bounds(1.5, 3.5), Some((2, 3)));
        assert_eq!(int_range_bounds(2.0, 3.0), Some((2, 3)));
        assert_eq!(int_range_bounds(-3.5, -1.5), Some((-3, -2)));
        assert_eq!(int_range_bounds(2.5, 2.9), None);
        assert_eq!(int_range_bounds(3.0, 1.0), None);
        assert_eq!(int_range_bounds(f64::NAN, 1.0), None);
        assert_eq!(int_range_bounds(0.0, f64::NAN), None);
        assert_eq!(
            int_range_bounds(f64::NEG_INFINITY, f64::INFINITY),
            Some((i64::MIN, i64::MAX))
        );
    }

    #[test]
    fn int_range_bounds_are_exact_beyond_2_53() {
        // 2^60 as f64 is exact; 2^60 - 1 is not — it rounds *up* to 2^60, so
        // it must be inside the interval [2^60, ...] under the
        // `(x as f64) >= lo` semantics. Naive ceil(lo) would exclude it.
        let lo = (1i64 << 60) as f64;
        let (a, b) = int_range_bounds(lo, f64::INFINITY).unwrap();
        assert_eq!(b, i64::MAX);
        assert!(((a - 1) as f64) < lo && (a as f64) >= lo);
        assert!(a < (1i64 << 60), "2^60 - k values that round up must match");
        // Brute-check the boundary in both directions.
        for x in [a - 2, a - 1, a, a + 1, a + 2] {
            assert_eq!((x as f64) >= lo, x >= a, "x={x}");
        }
        // And the symmetric upper-bound case.
        let hi = -((1i64 << 60) as f64);
        let (_, b) = int_range_bounds(f64::NEG_INFINITY, hi).unwrap();
        for x in [b - 2, b - 1, b, b + 1, b + 2] {
            assert_eq!((x as f64) <= hi, x <= b, "x={x}");
        }
        // Extremes.
        assert_eq!(
            int_range_bounds((i64::MAX as f64) * 2.0, f64::INFINITY),
            None
        );
        assert_eq!(
            int_range_bounds(f64::NEG_INFINITY, (i64::MIN as f64) * 2.0),
            None
        );
    }

    #[test]
    fn a_part_holding_no_group_value_has_no_region_and_no_scan() {
        let group = |values: &[&str]| values.iter().map(|v| v.to_string()).collect::<Vec<_>>();
        let dict = group(&["a", "b"]);
        let regions = |groups: &[Vec<String>]| {
            let GroupsSpec::Written(map) = resolve_groups(DataType::Str, groups) else {
                panic!("string groups resolve to written values");
            };
            code_regions(&dict, |value| map.get(value.as_str()).map(|&g| g as usize))
        };
        // With no entry in a region `partition_codes` returns before its scan.
        assert_eq!(
            regions(&[group(&["z"]), group(&[])]),
            [NO_REGION, NO_REGION]
        );
        assert_eq!(regions(&[]), [NO_REGION, NO_REGION]);
        // One resolving value is enough: code 1 → group 1. A value listed
        // twice belongs to the first group that lists it.
        assert_eq!(regions(&[group(&["z"]), group(&["b"])]), [NO_REGION, 1]);
        let twice = [group(&["z"]), group(&["b", "a"]), group(&["a"])];
        assert_eq!(regions(&twice), [1, 1]);
    }

    /// Deterministic pseudo-random words for the fold tests (xorshift64).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn eq_mask_packs_every_lane_into_its_own_bit() {
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        for _ in 0..200 {
            let mut slots = [0u8; WORD_BITS];
            for slot in slots.iter_mut() {
                *slot = (xorshift(&mut state) % 5) as u8 * 51;
            }
            for g in [0u8, 51, 255, 7] {
                let mut expected = 0u64;
                for (b, &slot) in slots.iter().enumerate() {
                    expected |= u64::from(slot == g) << b;
                }
                assert_eq!(eq_mask_64(&slots, g), expected);
            }
        }
        assert_eq!(eq_mask_64(&[9; WORD_BITS], 9), u64::MAX);
    }

    #[test]
    fn kernel_path_override_nests_and_restores() {
        let outer = active_kernel_path();
        with_kernel_path(KernelPath::Scalar, || {
            assert!(force_scalar());
            with_kernel_path(KernelPath::WordParallel, || {
                assert!(!force_scalar());
            });
            assert!(force_scalar());
        });
        assert_eq!(active_kernel_path(), outer);
    }

    #[test]
    fn for_each_sel_word_masks_boundaries() {
        let sel = Bitmap::new_full(200);
        let mut seen: Vec<(usize, u64)> = Vec::new();
        for_each_sel_word(&sel, 70, 190, |w, cand| seen.push((w, cand)));
        let mut bits = Vec::new();
        for (w, cand) in seen {
            for b in 0..64 {
                if (cand >> b) & 1 == 1 {
                    bits.push(w * 64 + b);
                }
            }
        }
        assert_eq!(bits, (70..190).collect::<Vec<_>>());
        // Empty and inverted ranges are no-ops.
        for_each_sel_word(&sel, 5, 5, |_, _| panic!("empty range"));
        for_each_sel_word(&sel, 300, 400, |_, _| panic!("past the end"));
    }

    /// The span mask of one lane type against a per-lane loop: the portable
    /// fold and `avx2` (the AVX2 body, where the CPU has it), over random
    /// blocks and spans that touch both ends of the type.
    fn check_span_masks<C: CodeLane + std::fmt::Debug>(
        max: u64,
        lane: impl Fn(u64) -> C,
        avx2: impl Fn(&[C; WORD_BITS], C, C) -> Option<u64>,
    ) {
        let mut state = 0xA076_1D64_78BD_642Fu64;
        for round in 0..300u64 {
            // Lanes spread over the whole type, or crowded around its ends.
            let lanes: [C; WORD_BITS] = std::array::from_fn(|_| {
                let draw = xorshift(&mut state);
                lane(match round % 3 {
                    0 => draw % (max + 1),
                    1 => draw % 4,
                    _ => max - draw % 4,
                })
            });
            let a = xorshift(&mut state) % (max + 1);
            let b = xorshift(&mut state) % (max + 1);
            let spans = [
                (a.min(b), a.max(b)),
                (0, a),
                (a, max),
                (0, max),
                (0, 0),
                (max, max),
                (a, a),
            ];
            for (first, last) in spans {
                let (first, last) = (lane(first), lane(last));
                let mut expected = 0u64;
                for (bit, &x) in lanes.iter().enumerate() {
                    expected |= u64::from(x >= first && x <= last) << bit;
                }
                assert_eq!(range_mask_64_fold(&lanes, first, last), expected);
                if let Some(mask) = avx2(&lanes, first, last) {
                    assert_eq!(mask, expected, "{lanes:?} in [{first:?}, {last:?}]");
                }
            }
        }
    }

    #[test]
    fn span_masks_agree_with_the_portable_fold_at_both_widths() {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
        fn avx2_u8(lanes: &[u8; WORD_BITS], first: u8, last: u8) -> Option<u64> {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU executes AVX2, as just detected.
                return Some(unsafe { span_mask_u8_avx2(lanes, first, last) });
            }
            None
        }
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
        fn avx2_u16(lanes: &[u16; WORD_BITS], first: u16, last: u16) -> Option<u64> {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU executes AVX2, as just detected.
                return Some(unsafe { span_mask_u16_avx2(lanes, first, last) });
            }
            None
        }
        check_span_masks(u64::from(u8::MAX), |x| x as u8, avx2_u8);
        check_span_masks(u64::from(u16::MAX), |x| x as u16, avx2_u16);
    }

    /// Every body of [`gather_part`] — rows and by-row validity, the BMI2
    /// compress where the CPU has it — against the scalar reference, over
    /// one part's lanes.
    fn check_gather<L: Copy + PartialEq + std::fmt::Debug>(
        lanes: &[L],
        validity: &Bitmap,
        offset: usize,
        sel: &Bitmap,
    ) {
        let part = PartRows::new(sel, offset, lanes.len());
        let reference = gather_scalar(lanes, validity, sel, offset);
        assert_eq!(reference.0.len(), part.selected());
        let fast = gather_lanes(lanes, validity, &part, KernelPath::WordParallel);
        assert_eq!(fast, reference, "offset {offset}");
        // The by-row validity the BMI2 compress stands in for.
        let mut by_row = Bitmap::new_empty(part.selected);
        for (at, &row) in part.rows.iter().enumerate() {
            by_row.or_word(
                at / WORD_BITS,
                u64::from(validity.get(row as usize)) << (at % WORD_BITS),
            );
        }
        assert_eq!(by_row, reference.1, "by row, offset {offset}");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("bmi2") {
            // SAFETY: the CPU executes BMI2, as just detected.
            let compressed = unsafe { compress_bmi2(validity.words(), &part.words, part.selected) };
            assert_eq!(compressed, reference.1, "bmi2, offset {offset}");
        }
    }

    #[test]
    fn gather_bodies_agree_with_the_scalar_reference_on_random_words() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        // (rows, offset, candidates per 64 selected rows, NULLs per 8 rows):
        // dense and sparse words, parts starting and ending inside a word,
        // wholly selected and empty parts, parts with and without NULLs.
        for (rows, offset, density, nulls) in [
            (1000, 0, 64, 1),
            (1000, 37, 30, 2),
            (1000, 64, 12, 0),
            (130, 64, 8, 3),
            (64, 1, 63, 1),
            (2048, 0, 1, 1),
            (2048, 5, 64, 0),
            (300, 5, 0, 1),
            (0, 10, 32, 1),
        ] {
            let sel = Bitmap::from_fn(offset + rows + 50, |_| xorshift(&mut state) % 64 < density);
            let validity = Bitmap::from_fn(rows, |_| xorshift(&mut state) % 8 >= nulls);
            let words: Vec<u64> = (0..rows).map(|_| xorshift(&mut state)).collect();
            let u8s: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            let u16s: Vec<u16> = words.iter().map(|&w| w as u16).collect();
            let u32s: Vec<u32> = words.iter().map(|&w| w as u32).collect();
            let i64s: Vec<i64> = words.iter().map(|&w| w as i64).collect();
            let f64s: Vec<f64> = words.iter().map(|&w| (w % 1000) as f64 / 7.0).collect();
            let bools: Vec<bool> = words.iter().map(|&w| w % 2 == 0).collect();
            check_gather(&u8s, &validity, offset, &sel);
            check_gather(&u16s, &validity, offset, &sel);
            check_gather(&u32s, &validity, offset, &sel);
            check_gather(&i64s, &validity, offset, &sel);
            check_gather(&f64s, &validity, offset, &sel);
            check_gather(&bools, &validity, offset, &sel);
        }
    }

    #[test]
    fn decoded_rows_are_the_set_bits_in_order() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for density in [0, 1, 4, 5, 9, 63, 64] {
            let words: Vec<u64> = (0..40)
                .map(|_| {
                    (0..64).fold(0, |w, b| {
                        w | u64::from(xorshift(&mut state) % 64 < density) << b
                    })
                })
                .collect();
            let expected: Vec<u32> = (0..40 * 64)
                .filter(|&r| words[r / 64] >> (r % 64) & 1 == 1)
                .map(|r| r as u32)
                .collect();
            assert_eq!(
                decode_rows(&words, expected.len()),
                expected,
                "density {density}"
            );
        }
    }

    #[test]
    fn code_spans_are_found_only_when_every_region_is_one_run() {
        // Regions 0 and 2 are runs, region 1 is empty, entry 4 has no region.
        let spans = code_spans::<u8>(&[0, 0, 2, 2, NO_REGION], 3);
        assert_eq!(spans, Some(vec![(0, 0u8, 1u8), (2, 2, 3)]));
        // A hole in region 0 (overlapping bounds under first-match-wins).
        assert_eq!(code_spans::<u8>(&[0, 1, 0], 2), None);
        assert_eq!(code_spans::<u16>(&[NO_REGION; 3], 2), Some(Vec::new()));
    }
}
