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
//! `accumulate`, nowhere else — as the coded numeric column was (a sorted
//! dictionary plus `u8`/`u16` code lanes, [`crate::column`]): its arms are
//! `partition_codes`, `count_coded_part` and the decoding walk of
//! `for_each_numeric_part` here, one arm of `scan_numeric` there, and no
//! caller of [`crate::ColumnView`] can tell. The partition kernels process
//! **64 rows per step** instead of one:
//!
//! * the selection bitmap is walked word-at-a-time (all-zero words are
//!   skipped, boundary words are masked — `for_each_sel_word`);
//! * nullness is driven from the column's validity-mask *words* (one
//!   shift-and-or per 64 rows — [`Bitmap::word_at`]), never from a per-row
//!   `Option`;
//! * a dense 64-row block is classified branchlessly: numeric range checks
//!   compile to lane-wise compares over the raw `i64`/`f64` value slices — or,
//!   on a coded column, the bounds are resolved against the sorted dictionary
//!   once per part and a region is a **code span**, 64 lanes in two AVX2
//!   compares — and dictionary codes fold one lane mask per group the same
//!   way — a
//!   dictionary of fewer than 64 codes turns the code→group table into one
//!   membership word per group and a lane is `(member >> code) & 1`
//!   (`member_mask_64`); a larger one gathers each lane's group through the
//!   table first and a lane is a byte compare (`eq_mask_64`);
//! * one output word per region is assembled in a register and written with
//!   the word-level writer [`Bitmap::or_word`] — no per-row `Bitmap::set`.
//!
//! An all-ones selection word (the common case when exploring the whole
//! table) takes the dense path with no per-bit iteration at all; sparse words
//! of **plain** lanes fall back to a set-bit loop so heavily drilled-down
//! selections don't pay for lanes they never read — below
//! `RANGE_DENSE_LANES` (4) candidates for a range partition, whose walk
//! branches per bound, and below `GROUP_DENSE_LANES` (16) for the group
//! folds, whose walk is a table lookup; both constants carry their measured
//! crossover. Coded lanes never walk a full word: a span compare over 64
//! one- or two-byte codes is cheaper than visiting two set bits.
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
//! numeric references read each row through the column's decoding accessor
//! ([`PrimitiveColumn::get`]), so they share no lane code with the kernels
//! whatever the encoding. Both paths are **bit-identical** by contract — the
//! property tests in `tests/partition_kernels.rs` compare them, and coded
//! against plain storage of the same rows, on adversarial inputs (word
//! boundaries, trailing partial words, NaN/inverted bounds, all-null
//! columns, both sides of the `u8`/`u16`/plain lines, every segment layout).

use crate::bitmap::Bitmap;
use crate::column::{Codes, Column, DictColumn, Lanes, PrimitiveColumn, NULL_CODE};
use crate::value::DataType;
use std::cell::Cell;
use std::sync::OnceLock;

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
/// four-way). Coded lanes have no such threshold: see [`partition_codes`].
const RANGE_DENSE_LANES: u32 = 4;

/// The same threshold for the dictionary-code and boolean group folds
/// ([`groups_word_codes`], [`groups_word_bool`]), whose set-bit walk is one
/// table lookup per row and no branch: the crossover sits higher. The same
/// sweep over a 16-code and a 200-code dictionary puts it at 6–12 lanes for
/// two groups and 16–24 for four, so 16 stays.
const GROUP_DENSE_LANES: u32 = 16;

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
    static COUNTERS: OnceLock<[&'static atlas_obs::Counter; 4]> = OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        [
            atlas_obs::counter("kernel.select_ranges.word_parallel"),
            atlas_obs::counter("kernel.select_ranges.scalar"),
            atlas_obs::counter("kernel.select_in_groups.word_parallel"),
            atlas_obs::counter("kernel.select_in_groups.scalar"),
        ]
    });
    let idx = match (op, path) {
        ("select_ranges", KernelPath::WordParallel) => 0,
        ("select_ranges", KernelPath::Scalar) => 1,
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
            let first_match = |x: T| bounds.iter().position(|&(lo, hi)| x >= lo && x <= hi);
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
// Coded numeric lanes (sorted dictionary + u8 / u16 codes)
// ---------------------------------------------------------------------------

/// A lane of dictionary codes: `u8` / `u16` into the sorted dictionary of a
/// coded numeric column (where a value range is a code span), `u32` into a
/// string column's.
pub(crate) trait CodeLane: Copy + PartialOrd {
    /// The code as a dictionary index.
    fn index(self) -> usize;
    /// The code of dictionary entry `index` (which the lane type can name).
    fn code(index: usize) -> Self;
}

impl CodeLane for u8 {
    fn index(self) -> usize {
        usize::from(self)
    }
    fn code(index: usize) -> Self {
        index as u8
    }
}

impl CodeLane for u16 {
    fn index(self) -> usize {
        usize::from(self)
    }
    fn code(index: usize) -> Self {
        index as u16
    }
}

impl CodeLane for u32 {
    fn index(self) -> usize {
        self as usize
    }
    fn code(index: usize) -> Self {
        index as u32
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
fn code_regions<T: Copy>(dict: &[T], region_of: impl Fn(T) -> Option<usize>) -> Vec<u32> {
    dict.iter()
        .map(|&x| region_of(x).map_or(NO_REGION, |g| g as u32))
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

/// [`partition_codes`] at the width the codes are stored in, with the span
/// mask this CPU runs: the AVX2 compilation when it has it (chosen once per
/// part, so the masks inline into the word loop), the portable fold
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
    match codes {
        Codes::U8(codes) => partition_codes(
            codes,
            validity,
            offset,
            sel,
            region_of,
            out,
            range_mask_64_fold,
        ),
        Codes::U16(codes) => partition_codes(
            codes,
            validity,
            offset,
            sel,
            region_of,
            out,
            range_mask_64_fold,
        ),
    }
}

/// The AVX2 compilation of [`partition_coded`]'s word loop.
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
    match codes {
        Codes::U8(codes) => {
            let mask = |lanes: &[u8; WORD_BITS], a, b| span_mask_u8_avx2(lanes, a, b);
            partition_codes(codes, validity, offset, sel, region_of, out, mask);
        }
        Codes::U16(codes) => {
            let mask = |lanes: &[u16; WORD_BITS], a, b| span_mask_u16_avx2(lanes, a, b);
            partition_codes(codes, validity, offset, sel, region_of, out, mask);
        }
    }
}

/// Partition one coded part by a code → region table (`region_of[code]`,
/// [`NO_REGION`] for none), OR-ing each selected non-NULL row into its
/// region's bitmap. A part none of whose entries has a region is not scanned.
///
/// Every full 64-row word with a candidate is classified branchlessly,
/// whatever its density — a span compare costs less than walking two set
/// bits, so there is no dense/sparse choice to make on code lanes: one
/// `span_mask(lanes, first, last)` per region when the regions are code spans
/// ([`code_spans`]), its word OR-ed in unconditionally (at a few candidates
/// per word "any hit?" is a coin the branch predictor loses); else the lanes'
/// regions gathered into a byte each and one [`eq_mask_64`] per region
/// (region indices past a byte walk set bits instead). Only the partial words
/// at the part's edges walk their set bits. `inline(always)` so each caller
/// stamps out a copy under its own instruction set.
#[inline(always)]
fn partition_codes<C: CodeLane>(
    codes: &[C],
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
    region_of: &[u32],
    out: &mut [Bitmap],
    span_mask: impl Fn(&[C; WORD_BITS], C, C) -> u64,
) {
    if region_of.iter().all(|&g| g == NO_REGION) {
        return;
    }
    let num_regions = out.len();
    let spans = code_spans::<C>(region_of, num_regions);
    // NO_REGION truncates to 255, which no region of at most 255 is.
    let slot_of: Option<Vec<u8>> = (spans.is_none() && num_regions <= usize::from(u8::MAX))
        .then(|| region_of.iter().map(|&g| g as u8).collect());
    let mut slots = [0u8; WORD_BITS];
    // The set-bit walk's accumulators, plus a trash slot for "no region".
    let mut accs = vec![0u64; num_regions + 1];
    let end = offset + codes.len();
    for_each_sel_word(sel, offset, end, |w, mut cand| {
        let base = w * WORD_BITS;
        cand &= validity_word(validity, offset, base);
        if cand == 0 {
            return;
        }
        let full = base >= offset && base + WORD_BITS <= end;
        if full && (spans.is_some() || slot_of.is_some()) {
            let lanes: &[C; WORD_BITS] = codes[base - offset..base - offset + WORD_BITS]
                .try_into()
                .expect("full word has exactly WORD_BITS lanes");
            if let Some(spans) = &spans {
                for &(g, first, last) in spans {
                    out[g].or_word(w, cand & span_mask(lanes, first, last));
                }
            } else if let Some(slot_of) = &slot_of {
                for (slot, &code) in slots.iter_mut().zip(lanes) {
                    *slot = slot_of[code.index()];
                }
                for (g, region) in out.iter_mut().enumerate() {
                    let m = cand & eq_mask_64(&slots, g as u8);
                    if m != 0 {
                        region.or_word(w, m);
                    }
                }
            }
        } else {
            let mut bits = cand;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let g = region_of[codes[base + b - offset].index()];
                accs[(g as usize).min(num_regions)] |= 1u64 << b;
            }
            for (acc, region) in accs.iter_mut().zip(out.iter_mut()) {
                if *acc != 0 {
                    region.or_word(w, *acc);
                    *acc = 0;
                }
            }
            accs[num_regions] = 0;
        }
    });
}

// ---------------------------------------------------------------------------
// Group partitioning (select_in_groups)
// ---------------------------------------------------------------------------

/// Pre-resolved form of a `select_in_groups` group list for one column type.
/// String groups resolve per segment (each segment has its own dictionary);
/// the other types resolve once.
pub(crate) enum GroupsSpec {
    /// Resolved per part against each segment dictionary.
    Str,
    /// Which group (if any) `true` / `false` fall into.
    Bool {
        /// Group index selecting `true` rows.
        true_group: Option<usize>,
        /// Group index selecting `false` rows.
        false_group: Option<usize>,
    },
    /// `(value, group)` pairs sorted by value (first group wins duplicates).
    Int(Vec<(i64, u32)>),
    /// `(rendered value, group)` pairs sorted by string.
    Float(Vec<(String, u32)>),
}

/// Resolve `groups` once per (type, group-list) — shared across the segments
/// of a [`crate::ColumnView`] walk.
pub(crate) fn resolve_groups(dtype: DataType, groups: &[Vec<String>]) -> GroupsSpec {
    match dtype {
        DataType::Str => GroupsSpec::Str,
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
            // never match 7). On duplicate values across groups the first
            // group wins (groups are disjoint by contract).
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
        DataType::Float => {
            let mut map: Vec<(String, u32)> = Vec::new();
            for (g, group) in groups.iter().enumerate() {
                for s in group {
                    map.push((s.clone(), g as u32));
                }
            }
            map.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
            map.dedup_by(|a, b| a.0 == b.0);
            GroupsSpec::Float(map)
        }
    }
}

/// code → group table for one segment dictionary: `groups.len()` means "no
/// group", and the extra trailing slot absorbs `NULL_CODE` lanes (indexed as
/// `min(code, cardinality)`), so the kernel loop needs no null branch.
/// Later groups overwrite earlier ones on duplicate values, matching the
/// scalar path (groups are disjoint by contract). `None` when no value of any
/// group is in the dictionary: no row of the part can land in a group.
pub(crate) fn dict_group_table(d: &DictColumn, groups: &[Vec<String>]) -> Option<Vec<u32>> {
    let resolved: Vec<(u32, u32)> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, group)| {
            let codes = group.iter().filter_map(|value| d.code_of(value));
            codes.map(move |code| (code, g as u32))
        })
        .collect();
    if resolved.is_empty() {
        return None;
    }
    let mut table = vec![groups.len() as u32; d.cardinality() + 1];
    for (code, g) in resolved {
        table[code as usize] = g;
    }
    Some(table)
}

/// One membership word per group for a dictionary of fewer than 64 codes: bit
/// `c` of `members[g]` is set iff code `c` belongs to group `g`. Built from
/// the code→group table, so a value listed in two groups lands where the
/// table put it. Bit 63 is never set — it is where `NULL_CODE` lanes land.
fn group_members(table: &[u32], num_groups: usize) -> Vec<u64> {
    let card = table.len() - 1; // last slot is the NULL sentinel
    debug_assert!(card < WORD_BITS);
    let mut members = vec![0u64; num_groups];
    for (code, &g) in table[..card].iter().enumerate() {
        if let Some(member) = members.get_mut(g as usize) {
            *member |= 1u64 << code;
        }
    }
    members
}

/// The plain lane fold behind [`member_mask_64`]: the same shape as
/// [`range_mask_64_fold`] with the two compares replaced by a variable shift
/// into the membership word. Codes clamp to bit 63, which no group of a
/// < 64-code dictionary owns, so `NULL_CODE` lanes need no branch.
#[inline(always)]
fn member_mask_64_fold(lanes: &[u32; WORD_BITS], member: u64) -> u64 {
    let mut m = 0u64;
    for (b, &code) in lanes.iter().enumerate() {
        m |= ((member >> code.min(WORD_BITS as u32 - 1)) & 1) << b;
    }
    m
}

/// The AVX2 compilation of [`member_mask_64_fold`] (`vpsrlvq` shifts four
/// lanes per instruction; baseline x86-64 has no per-lane variable shift).
/// Identical safe Rust, as for [`range_mask_64_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn member_mask_64_avx2(lanes: &[u32; WORD_BITS], member: u64) -> u64 {
    member_mask_64_fold(lanes, member)
}

/// Branchless membership mask of one full 64-lane block of dictionary codes:
/// bit `b` is set iff bit `min(lanes[b], 63)` of `member` is. Dispatched like
/// [`range_mask_64`].
#[inline(always)]
fn member_mask_64(lanes: &[u32; WORD_BITS], member: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `member_mask_64_avx2` is ordinary safe Rust whose only
        // precondition is a CPU that executes AVX2 instructions, which the
        // runtime detection above just confirmed.
        return unsafe { member_mask_64_avx2(lanes, member) };
    }
    member_mask_64_fold(lanes, member)
}

/// Partition one segment-local column over its global row range into `out`
/// (one bitmap per group, global coordinates). A part in which no value of
/// any group can occur — none is in its dictionary, or none parses as the
/// column's type — is not scanned.
pub(crate) fn select_in_groups_part(
    column: &Column,
    offset: usize,
    sel: &Bitmap,
    groups: &[Vec<String>],
    spec: &GroupsSpec,
    out: &mut [Bitmap],
) {
    debug_assert_eq!(groups.len(), out.len());
    let path = active_kernel_path();
    let scalar = path == KernelPath::Scalar;
    observe_dispatch("select_in_groups", path);
    match (column, spec) {
        (Column::Str(d), GroupsSpec::Str) => {
            let Some(table) = dict_group_table(d, groups) else {
                return;
            };
            if scalar {
                groups_scalar_codes(d.codes(), offset, sel, &table, out);
            } else {
                groups_word_codes(d.codes(), offset, sel, &table, out);
            }
        }
        (
            Column::Bool(p),
            &GroupsSpec::Bool {
                true_group,
                false_group,
            },
        ) if true_group.or(false_group).is_some() => {
            if scalar {
                groups_scalar_bool(
                    p.values(),
                    p.validity(),
                    offset,
                    sel,
                    true_group,
                    false_group,
                    out,
                );
            } else {
                groups_word_bool(
                    p.values(),
                    p.validity(),
                    offset,
                    sel,
                    true_group,
                    false_group,
                    out,
                );
            }
        }
        (Column::Int(p), GroupsSpec::Int(map)) if !map.is_empty() => {
            let lookup = |x: i64| {
                map.binary_search_by(|probe| probe.0.cmp(&x))
                    .ok()
                    .map(|pos| map[pos].1 as usize)
            };
            groups_keyed(p, offset, sel, scalar, lookup, out);
        }
        (Column::Float(p), GroupsSpec::Float(map)) if !map.is_empty() => {
            // Set predicates on floats match on the decimal rendering — a
            // degraded edge case kept for completeness.
            let lookup = |x: f64| {
                let rendered = x.to_string();
                map.binary_search_by(|probe| probe.0.as_str().cmp(rendered.as_str()))
                    .ok()
                    .map(|pos| map[pos].1 as usize)
            };
            groups_keyed(p, offset, sel, scalar, lookup, out);
        }
        _ => {}
    }
}

/// Keyed (numeric) grouping of one part, by path and by how it is stored:
/// the scalar reference reads rows through the decoding accessor; plain lanes
/// look every row's value up ([`groups_word_keyed`]); coded lanes look each
/// **dictionary entry** up once (a float renders once per entry, not once per
/// row) and partition the rows by code ([`partition_codes`]).
fn groups_keyed<T: Copy + Default>(
    column: &PrimitiveColumn<T>,
    offset: usize,
    sel: &Bitmap,
    scalar: bool,
    lookup: impl Fn(T) -> Option<usize>,
    out: &mut [Bitmap],
) {
    if scalar {
        return groups_scalar_keyed(column, offset, sel, lookup, out);
    }
    let validity = column.validity();
    match column.lanes() {
        Lanes::Plain(values) => groups_word_keyed(values, validity, offset, sel, lookup, out),
        Lanes::Coded { dict, codes } => {
            let region_of = code_regions(dict, lookup);
            partition_coded(codes, validity, offset, sel, &region_of, out);
        }
    }
}

/// Scalar reference for dictionary-code grouping (the pre-PR per-row loop,
/// routed through the same code→group table as the word path).
fn groups_scalar_codes(
    codes: &[u32],
    offset: usize,
    sel: &Bitmap,
    table: &[u32],
    out: &mut [Bitmap],
) {
    let card = table.len() - 1;
    let no_group = out.len();
    sel.for_each_one_in(offset, offset + codes.len(), |idx| {
        let code = codes[idx - offset];
        if code != NULL_CODE {
            let g = table[(code as usize).min(card)] as usize;
            if g != no_group {
                out[g].set(idx);
            }
        }
    });
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

/// Word-parallel dictionary-code grouping. A dense 64-row block yields one
/// output word per group from a lane fold, masked with the candidate word:
/// for a dictionary of fewer than 64 codes each group is a membership word
/// and the fold is [`member_mask_64`]; a larger dictionary first gathers
/// every lane's group through the code→group table into a byte per lane and
/// the fold is [`eq_mask_64`] (group indices past a byte — more than 255
/// groups — take the sparse walk for every word). Sparse words walk their set
/// bits through the table into per-group accumulators.
fn groups_word_codes(
    codes: &[u32],
    offset: usize,
    sel: &Bitmap,
    table: &[u32],
    out: &mut [Bitmap],
) {
    let card = table.len() - 1;
    let num_groups = out.len();
    let members = (card < WORD_BITS).then(|| group_members(table, num_groups));
    let foldable = members.is_some() || num_groups <= usize::from(u8::MAX);
    let mut slots = [0u8; WORD_BITS];
    // The sparse walk's accumulators, plus a trash slot for "no group" (which
    // the NULL sentinel also maps to).
    let mut accs = vec![0u64; num_groups + 1];
    let end = offset + codes.len();
    for_each_sel_word(sel, offset, end, |w, cand| {
        let base = w * WORD_BITS;
        let full = base >= offset && base + WORD_BITS <= end;
        if full && foldable && cand.count_ones() >= GROUP_DENSE_LANES {
            let lanes: &[u32; WORD_BITS] = codes[base - offset..base - offset + WORD_BITS]
                .try_into()
                .expect("full word has exactly WORD_BITS lanes");
            if members.is_none() {
                for (slot, &code) in slots.iter_mut().zip(lanes) {
                    *slot = table[(code as usize).min(card)] as u8;
                }
            }
            for (g, region) in out.iter_mut().enumerate() {
                let m = cand
                    & match &members {
                        Some(members) => member_mask_64(lanes, members[g]),
                        None => eq_mask_64(&slots, g as u8),
                    };
                if m != 0 {
                    region.or_word(w, m);
                }
            }
        } else {
            let mut bits = cand;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let code = codes[base + b - offset];
                accs[table[(code as usize).min(card)] as usize] |= 1u64 << b;
            }
            for (acc, region) in accs.iter_mut().zip(out.iter_mut()) {
                if *acc != 0 {
                    region.or_word(w, *acc);
                    *acc = 0;
                }
            }
            accs[num_groups] = 0;
        }
    });
}

/// Scalar reference for boolean grouping (the pre-PR per-row loop).
fn groups_scalar_bool(
    values: &[bool],
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
    true_group: Option<usize>,
    false_group: Option<usize>,
    out: &mut [Bitmap],
) {
    sel.for_each_one_in(offset, offset + values.len(), |idx| {
        let local = idx - offset;
        if !validity.get(local) {
            return;
        }
        let target = if values[local] {
            true_group
        } else {
            false_group
        };
        if let Some(g) = target {
            out[g].set(idx);
        }
    });
}

/// Word-parallel boolean grouping: gather the true-lane mask for the block,
/// then the two group words are single AND/AND-NOTs of the candidate mask.
fn groups_word_bool(
    values: &[bool],
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
    true_group: Option<usize>,
    false_group: Option<usize>,
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
        let tmask = if full && cand.count_ones() >= GROUP_DENSE_LANES {
            // Plain lane fold over a fixed-size block — LLVM turns the
            // byte-compare + movemask pattern into vector code on its own.
            let lanes: &[bool; WORD_BITS] = values[base - offset..base - offset + WORD_BITS]
                .try_into()
                .expect("full word has exactly WORD_BITS lanes");
            let mut t = 0u64;
            for (b, &v) in lanes.iter().enumerate() {
                t |= (v as u64) << b;
            }
            t
        } else {
            let mut t = 0u64;
            let mut bits = cand;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                t |= (values[base + b - offset] as u64) << b;
            }
            t
        };
        if let Some(g) = true_group {
            let m = cand & tmask;
            if m != 0 {
                out[g].or_word(w, m);
            }
        }
        if let Some(g) = false_group {
            let m = cand & !tmask;
            if m != 0 {
                out[g].or_word(w, m);
            }
        }
    });
}

/// Scalar reference for keyed (numeric) grouping: one pass, one key lookup
/// per selected non-null row, read through the decoding accessor.
fn groups_scalar_keyed<T: Copy + Default>(
    column: &PrimitiveColumn<T>,
    offset: usize,
    sel: &Bitmap,
    lookup: impl Fn(T) -> Option<usize>,
    out: &mut [Bitmap],
) {
    sel.for_each_one_in(offset, offset + column.len(), |idx| {
        if let Some(g) = column.get(idx - offset).and_then(&lookup) {
            out[g].set(idx);
        }
    });
}

/// Word-level keyed (numeric) grouping: the key lookup stays per-lane (a
/// binary search), but selection/validity are word-masked and output words
/// are accumulated per group — the single-pass replacement for the old
/// one-`select_in`-per-group fallback.
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
        Lanes::Coded { dict, codes } => match codes {
            Codes::U8(codes) => {
                for_each_selected_value(codes, validity, offset, sel, |c| visit(dict[c.index()]));
            }
            Codes::U16(codes) => {
                for_each_selected_value(codes, validity, offset, sel, |c| visit(dict[c.index()]));
            }
        },
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

/// The selected `(true, false, NULL)` row counts of one boolean part (zeros
/// for any other part).
pub(crate) fn count_bools_part(
    column: &Column,
    offset: usize,
    sel: &Bitmap,
) -> (usize, usize, usize) {
    let Column::Bool(p) = column else {
        return (0, 0, 0);
    };
    let (mut trues, mut falses) = (0, 0);
    let nulls = for_each_selected_value(p.values(), p.validity(), offset, sel, |b| {
        trues += usize::from(b);
        falses += usize::from(!b);
    });
    (trues, falses, nulls)
}

/// Per-code selected-row counts for one dictionary part, one slot per code
/// and a last one that absorbs the NULL lanes. Dense candidate words count
/// all 64 lanes without per-bit iteration. (Exact either way — not
/// path-gated.)
pub(crate) fn count_codes_part(d: &DictColumn, offset: usize, sel: &Bitmap) -> Vec<usize> {
    count_lanes(d.codes(), d.cardinality(), None, offset, sel)
}

/// [`count_codes_part`] for one coded numeric part: a slot per entry of its
/// sorted dictionary and a last one for the selected NULL rows.
pub(crate) fn count_coded_part(
    codes: &Codes,
    card: usize,
    validity: &Bitmap,
    offset: usize,
    sel: &Bitmap,
) -> Vec<usize> {
    match codes {
        Codes::U8(codes) => count_lanes(codes, card, Some(validity), offset, sel),
        Codes::U16(codes) => count_lanes(codes, card, Some(validity), offset, sel),
    }
}

/// Direct-address selected-row counts over code lanes: `card + 1` slots, the
/// last for NULLs. A string dictionary marks NULL lanes with [`NULL_CODE`],
/// which clamps into that slot; a coded numeric part marks them in `validity`
/// and their lanes hold code 0.
fn count_lanes<C: CodeLane>(
    codes: &[C],
    card: usize,
    validity: Option<&Bitmap>,
    offset: usize,
    sel: &Bitmap,
) -> Vec<usize> {
    // Two tallies per slot, taken in turn: neighbouring rows often hold the
    // same code, and back-to-back increments of one counter wait on each
    // other's store.
    let mut tallies = vec![[0usize; 2]; card + 1];
    // NULL lanes counted as code 0 by the dense words.
    let mut dense_nulls = 0;
    let end = offset + codes.len();
    for_each_sel_word(sel, offset, end, |w, cand| {
        let base = w * WORD_BITS;
        let valid = validity.map_or(u64::MAX, |mask| validity_word(mask, offset, base));
        let full = base >= offset && base + WORD_BITS <= end;
        if full && cand == u64::MAX {
            for pair in codes[base - offset..base - offset + WORD_BITS].chunks_exact(2) {
                tallies[pair[0].index().min(card)][0] += 1;
                tallies[pair[1].index().min(card)][1] += 1;
            }
            dense_nulls += (!valid).count_ones() as usize;
        } else {
            tallies[card][0] += (cand & !valid).count_ones() as usize;
            let mut bits = cand & valid;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let code = codes[base + b - offset];
                tallies[code.index().min(card)][b & 1] += 1;
            }
        }
    });
    let mut counts: Vec<usize> = tallies.into_iter().map(|[a, b]| a + b).collect();
    counts[0] -= dense_nulls;
    counts[card] += dense_nulls;
    counts
}

/// The selected `(non-NULL, NULL)` row counts of one dictionary part, read
/// off [`count_codes_part`]; `counted` is called, in dictionary order, with
/// every value of the dictionary and how many selected rows hold it (zero for
/// a value no selected row holds).
pub(crate) fn count_values_part<'d>(
    d: &'d DictColumn,
    offset: usize,
    sel: &Bitmap,
    mut counted: impl FnMut(&'d str, usize),
) -> (usize, usize) {
    let counts = count_codes_part(d, offset, sel);
    let (&nulls, by_code) = counts.split_last().expect("the NULL slot is always there");
    let mut non_null = 0;
    for (value, &n) in d.dictionary().iter().zip(by_code) {
        non_null += n;
        counted(value, n);
    }
    (non_null, nulls)
}

/// OR the non-NULL rows of one part into `out` at the part's offset.
/// Primitive parts copy their validity mask a word at a time when the offset
/// is word-aligned; dictionary parts assemble theirs from the codes.
pub(crate) fn non_null_mask_part(column: &Column, offset: usize, out: &mut Bitmap) {
    match column {
        Column::Int(p) => out.or_shifted(p.validity(), offset),
        Column::Float(p) => out.or_shifted(p.validity(), offset),
        Column::Bool(p) => out.or_shifted(p.validity(), offset),
        Column::Str(d) => out.fill_range_from_fn(offset, offset + d.len(), |idx| {
            d.code(idx - offset) != NULL_CODE
        }),
    }
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
    fn a_part_holding_no_group_value_gets_no_table_and_no_scan() {
        let mut d = DictColumn::new();
        for s in ["a", "b", "a"] {
            d.push(Some(s));
        }
        let group = |values: &[&str]| values.iter().map(|v| v.to_string()).collect::<Vec<_>>();
        // Without a table `select_in_groups_part` returns before its scan.
        assert_eq!(dict_group_table(&d, &[group(&["z"]), group(&[])]), None);
        assert_eq!(dict_group_table(&d, &[]), None);
        // One resolving value is enough: code 1 → group 1, the rest (and the
        // NULL slot) → "no group".
        let table = dict_group_table(&d, &[group(&["z"]), group(&["b"])]);
        assert_eq!(table, Some(vec![2, 1, 2]));
    }

    /// Deterministic pseudo-random words for the fold tests (xorshift64).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn group_members_follow_the_table() {
        // Codes 0 and 3 → group 0, code 1 → group 1, code 2 ungrouped; the
        // trailing slot is the NULL sentinel.
        assert_eq!(group_members(&[0, 1, 2, 0, 2], 2), vec![0b1001, 0b0010]);
        assert_eq!(group_members(&[1], 1), vec![0]);
    }

    #[test]
    fn member_fold_and_its_avx2_compilation_agree_with_a_per_lane_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..200 {
            // Small dictionaries, codes up to the 63 clamp, and NULL lanes.
            let card = [2u64, 4, 30, 63][round % 4];
            let mut lanes = [0u32; WORD_BITS];
            for lane in lanes.iter_mut() {
                let draw = xorshift(&mut state);
                *lane = match draw % 11 {
                    0 => NULL_CODE,
                    1 => 63 + (draw >> 8) as u32 % 200,
                    _ => ((draw >> 8) % card) as u32,
                };
            }
            let member = xorshift(&mut state) & (u64::MAX >> 1);
            let mut expected = 0u64;
            for (b, &code) in lanes.iter().enumerate() {
                if code < 63 && (member >> code) & 1 == 1 {
                    expected |= 1u64 << b;
                }
            }
            assert_eq!(member_mask_64_fold(&lanes, member), expected);
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU executes AVX2, as just detected.
                assert_eq!(unsafe { member_mask_64_avx2(&lanes, member) }, expected);
            }
            assert_eq!(member_mask_64(&lanes, member), expected);
        }
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
