//! Per-column summary statistics.
//!
//! Atlas consults these statistics to decide how to cut an attribute (numeric
//! range, categorical cardinality), to detect high-cardinality "code-like"
//! columns that should be skipped (Section 5.2 of the paper), and to report
//! region descriptions.

use crate::bitmap::Bitmap;
use crate::column::{Column, PrimitiveColumn, NULL_CODE};
use crate::value::DataType;
use std::collections::HashSet;

/// The distinct non-NULL values seen by a [`ColumnSummary`], kept in a form
/// that merges exactly across segments (a plain count cannot: segments share
/// values, so distinct counts are not additive).
#[derive(Debug, Clone)]
enum DistinctSet {
    /// Distinct integers.
    Ints(HashSet<i64>),
    /// Distinct floats, keyed by bit pattern (matching the historical
    /// `ColumnStats` semantics: `-0.0` and `0.0` count separately, NaNs by
    /// payload).
    Floats(HashSet<u64>),
    /// Distinct strings. Segments intern their dictionaries independently, so
    /// cross-segment identity has to go through the string itself.
    Strs(HashSet<String>),
    /// Whether `true` / `false` have been seen.
    Bools {
        /// `true` seen.
        t: bool,
        /// `false` seen.
        f: bool,
    },
}

/// The distinct non-NULL values of a [`ColumnSummary`] in a serialisable,
/// deterministic form (sorted vectors instead of hash sets), produced by
/// [`ColumnSummary::to_parts`] and consumed by [`ColumnSummary::from_parts`].
///
/// Floats travel as IEEE-754 bit patterns so `-0.0`/`0.0` and NaN payloads
/// keep the distinct-count semantics of the in-memory set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistinctValues {
    /// Distinct integers, sorted ascending.
    Ints(Vec<i64>),
    /// Distinct float bit patterns, sorted ascending as `u64`.
    Floats(Vec<u64>),
    /// Distinct strings, sorted lexicographically.
    Strs(Vec<String>),
    /// Whether `true` / `false` have been seen.
    Bools {
        /// `true` seen.
        t: bool,
        /// `false` seen.
        f: bool,
    },
}

/// The serialisable decomposition of a [`ColumnSummary`]: every field a
/// remote peer needs to rebuild a summary that merges and collapses exactly
/// like the original. Floating-point state (`mean`, `m2`, `min`, `max`)
/// must travel bit-exactly for the rebuilt summary to fold bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryParts {
    /// Data type of the summarised column.
    pub dtype: DataType,
    /// Number of non-NULL rows seen.
    pub non_null: usize,
    /// Number of NULL rows seen.
    pub nulls: usize,
    /// Welford mean of the numeric values (0 for non-numeric columns).
    pub mean: f64,
    /// Welford sum of squared deviations (0 for non-numeric columns).
    pub m2: f64,
    /// Minimum numeric value, if any.
    pub min: Option<f64>,
    /// Maximum numeric value, if any.
    pub max: Option<f64>,
    /// The distinct non-NULL values, in deterministic order.
    pub distinct: DistinctValues,
}

impl DistinctSet {
    fn to_values(&self) -> DistinctValues {
        match self {
            DistinctSet::Ints(s) => {
                let mut v: Vec<i64> = s.iter().copied().collect();
                v.sort_unstable();
                DistinctValues::Ints(v)
            }
            DistinctSet::Floats(s) => {
                let mut v: Vec<u64> = s.iter().copied().collect();
                v.sort_unstable();
                DistinctValues::Floats(v)
            }
            DistinctSet::Strs(s) => {
                let mut v: Vec<String> = s.iter().cloned().collect();
                v.sort_unstable();
                DistinctValues::Strs(v)
            }
            DistinctSet::Bools { t, f } => DistinctValues::Bools { t: *t, f: *f },
        }
    }

    fn from_values(values: DistinctValues) -> Self {
        match values {
            DistinctValues::Ints(v) => DistinctSet::Ints(v.into_iter().collect()),
            DistinctValues::Floats(v) => DistinctSet::Floats(v.into_iter().collect()),
            DistinctValues::Strs(v) => DistinctSet::Strs(v.into_iter().collect()),
            DistinctValues::Bools { t, f } => DistinctSet::Bools { t, f },
        }
    }
}

impl DistinctSet {
    fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => DistinctSet::Ints(HashSet::new()),
            DataType::Float => DistinctSet::Floats(HashSet::new()),
            DataType::Str => DistinctSet::Strs(HashSet::new()),
            DataType::Bool => DistinctSet::Bools { t: false, f: false },
        }
    }

    fn len(&self) -> usize {
        match self {
            DistinctSet::Ints(s) => s.len(),
            DistinctSet::Floats(s) => s.len(),
            DistinctSet::Strs(s) => s.len(),
            DistinctSet::Bools { t, f } => usize::from(*t) + usize::from(*f),
        }
    }

    fn union_with(&mut self, other: &DistinctSet) {
        match (self, other) {
            (DistinctSet::Ints(a), DistinctSet::Ints(b)) => a.extend(b.iter().copied()),
            (DistinctSet::Floats(a), DistinctSet::Floats(b)) => a.extend(b.iter().copied()),
            (DistinctSet::Strs(a), DistinctSet::Strs(b)) => {
                for s in b {
                    if !a.contains(s.as_str()) {
                        a.insert(s.clone());
                    }
                }
            }
            (DistinctSet::Bools { t, f }, DistinctSet::Bools { t: ot, f: of }) => {
                *t |= *ot;
                *f |= *of;
            }
            _ => unreachable!("distinct sets of mismatched column types are never merged"),
        }
    }
}

/// The **mergeable** form of [`ColumnStats`]: everything a segment contributes
/// to the statistics of the whole column, in a representation where two
/// summaries combine exactly (counts add, min/max fold, mean/variance merge by
/// Chan's parallel formula, and distinct values union as a real set).
///
/// This is what makes profiles incremental: a prepared engine keeps one
/// `ColumnSummary` per column, and appending a segment merges the new
/// segment's summary instead of rescanning the table. Merging is
/// left-associative over segments in row order, so an appended profile is
/// bit-for-bit the profile a from-scratch rebuild would produce.
#[derive(Debug, Clone)]
pub struct ColumnSummary {
    dtype: DataType,
    non_null: usize,
    nulls: usize,
    // Welford state of the numeric values (zeroed for non-numeric columns).
    mean: f64,
    m2: f64,
    min: Option<f64>,
    max: Option<f64>,
    distinct: DistinctSet,
}

impl ColumnSummary {
    /// An empty summary for a column of the given type (the identity of
    /// [`ColumnSummary::merge_from`]).
    pub fn empty(dtype: DataType) -> Self {
        ColumnSummary {
            dtype,
            non_null: 0,
            nulls: 0,
            mean: 0.0,
            m2: 0.0,
            min: None,
            max: None,
            distinct: DistinctSet::new(dtype),
        }
    }

    /// Summarise one segment-local column over the rows of `sel` that fall in
    /// the segment's global row range `offset..offset + column.len()`.
    ///
    /// `sel` is a **table-wide** selection; the summary visits only this
    /// segment's slice of it, so per-segment summaries can be computed
    /// independently (and in parallel) and then folded in segment order.
    pub fn compute(column: &Column, sel: &Bitmap, offset: usize) -> Self {
        let mut out = ColumnSummary::empty(column.data_type());
        let end = offset + column.len();
        match column {
            Column::Int(values) => {
                let DistinctSet::Ints(distinct) = &mut out.distinct else {
                    unreachable!("int columns use int distinct sets");
                };
                let (nulls, welford) = scan_numeric(
                    values,
                    sel,
                    offset,
                    |x| x as u64,
                    |x| x as f64,
                    |x| {
                        distinct.insert(x);
                    },
                );
                out.set_numeric(nulls, welford);
            }
            Column::Float(values) => {
                let DistinctSet::Floats(distinct) = &mut out.distinct else {
                    unreachable!("float columns use float distinct sets");
                };
                let (nulls, welford) = scan_numeric(
                    values,
                    sel,
                    offset,
                    f64::to_bits,
                    |x| x,
                    |x| {
                        distinct.insert(x.to_bits());
                    },
                );
                out.set_numeric(nulls, welford);
            }
            Column::Str(d) => {
                // Track distinct codes locally (one indexed flag per row),
                // then resolve the seen codes to strings once.
                let mut seen = vec![false; d.cardinality()];
                sel.for_each_one_in(offset, end, |idx| {
                    let local = idx - offset;
                    if local >= d.len() {
                        return;
                    }
                    let code = d.code(local);
                    if code == NULL_CODE {
                        out.nulls += 1;
                    } else {
                        out.non_null += 1;
                        seen[code as usize] = true;
                    }
                });
                let DistinctSet::Strs(distinct) = &mut out.distinct else {
                    unreachable!("string columns use string distinct sets");
                };
                for (code, seen) in seen.into_iter().enumerate() {
                    if seen {
                        let value = &d.dictionary()[code];
                        if !distinct.contains(value.as_str()) {
                            distinct.insert(value.clone());
                        }
                    }
                }
            }
            Column::Bool(values) => {
                let DistinctSet::Bools { t, f } = &mut out.distinct else {
                    unreachable!("bool columns use bool distinct sets");
                };
                sel.for_each_one_in(offset, end, |idx| match values.get(idx - offset) {
                    Some(true) => {
                        out.non_null += 1;
                        *t = true;
                    }
                    Some(false) => {
                        out.non_null += 1;
                        *f = true;
                    }
                    None => out.nulls += 1,
                });
            }
        }
        out
    }

    fn set_numeric(&mut self, nulls: usize, welford: Welford) {
        self.non_null = welford.count;
        self.nulls = nulls;
        self.mean = welford.mean;
        self.m2 = welford.m2;
        self.min = welford.min;
        self.max = welford.max;
    }

    /// The column type this summary describes.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Merge `other` — the summary of the rows **after** this summary's rows —
    /// into `self`. Counts add, min/max fold, distinct values union, and the
    /// numeric moments combine with Chan's parallel-Welford formula.
    pub fn merge_from(&mut self, other: &ColumnSummary) {
        debug_assert_eq!(self.dtype, other.dtype, "summaries of one column only");
        if other.non_null > 0 {
            let n_a = self.non_null as f64;
            let n_b = other.non_null as f64;
            if self.non_null == 0 {
                self.mean = other.mean;
                self.m2 = other.m2;
            } else {
                let delta = other.mean - self.mean;
                let n = n_a + n_b;
                self.mean += delta * n_b / n;
                self.m2 += other.m2 + delta * delta * n_a * n_b / n;
            }
            self.min = match (self.min, other.min) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            self.max = match (self.max, other.max) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        self.non_null += other.non_null;
        self.nulls += other.nulls;
        self.distinct.union_with(&other.distinct);
    }

    /// Decompose the summary into its serialisable [`SummaryParts`].
    ///
    /// Together with [`ColumnSummary::from_parts`] this is an exact round
    /// trip: the rebuilt summary merges ([`ColumnSummary::merge_from`]) and
    /// collapses ([`ColumnSummary::to_stats`]) bit-identically to the
    /// original, so per-segment summaries computed on a remote shard fold on
    /// a coordinator exactly as if they had been computed locally.
    pub fn to_parts(&self) -> SummaryParts {
        SummaryParts {
            dtype: self.dtype,
            non_null: self.non_null,
            nulls: self.nulls,
            mean: self.mean,
            m2: self.m2,
            min: self.min,
            max: self.max,
            distinct: self.distinct.to_values(),
        }
    }

    /// Rebuild a summary from the parts produced by
    /// [`ColumnSummary::to_parts`].
    pub fn from_parts(parts: SummaryParts) -> Self {
        ColumnSummary {
            dtype: parts.dtype,
            non_null: parts.non_null,
            nulls: parts.nulls,
            mean: parts.mean,
            m2: parts.m2,
            min: parts.min,
            max: parts.max,
            distinct: DistinctSet::from_values(parts.distinct),
        }
    }

    /// Collapse the summary into the public [`ColumnStats`] form. The distinct
    /// count is exact (it comes from the merged value set).
    pub fn to_stats(&self) -> ColumnStats {
        let numeric = matches!(self.dtype, DataType::Int | DataType::Float);
        let has_values = numeric && self.non_null > 0;
        ColumnStats {
            dtype: self.dtype,
            non_null_count: self.non_null,
            null_count: self.nulls,
            distinct_count: self.distinct.len(),
            min: self.min,
            max: self.max,
            mean: has_values.then_some(self.mean),
            variance: has_values.then_some(self.m2 / self.non_null as f64),
        }
    }
}

/// Summary statistics of one column restricted to a selection.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Data type of the column.
    pub dtype: DataType,
    /// Number of selected rows with a non-NULL value.
    pub non_null_count: usize,
    /// Number of selected rows with a NULL value.
    pub null_count: usize,
    /// Number of distinct non-NULL values among the selected rows.
    pub distinct_count: usize,
    /// Minimum numeric value (numeric columns only).
    pub min: Option<f64>,
    /// Maximum numeric value (numeric columns only).
    pub max: Option<f64>,
    /// Mean of the numeric values (numeric columns only).
    pub mean: Option<f64>,
    /// Population variance of the numeric values (numeric columns only).
    pub variance: Option<f64>,
}

impl ColumnStats {
    /// Compute statistics for `column` over the rows selected by `sel`.
    ///
    /// This is the single-segment form of the canonical statistics kernel:
    /// segmented tables compute one [`ColumnSummary`] per segment and fold
    /// them in row order, which for one segment is exactly this.
    pub fn compute(column: &Column, sel: &Bitmap) -> ColumnStats {
        ColumnSummary::compute(column, sel, 0).to_stats()
    }

    /// Merge the statistics of two disjoint row sets of the **same column**
    /// (`self` covering the earlier rows).
    ///
    /// Counts, min/max, mean and variance merge exactly; `distinct_count`
    /// merges as the `a + b` **upper bound**, because a plain count cannot
    /// know how many values the two sides share. Callers that need the exact
    /// merged distinct count (the engine's table profile does) merge
    /// [`ColumnSummary`]s instead, which carry the value sets.
    pub fn merge(&self, other: &ColumnStats) -> ColumnStats {
        debug_assert_eq!(self.dtype, other.dtype, "statistics of one column only");
        let n_a = self.non_null_count as f64;
        let n_b = other.non_null_count as f64;
        let (mean, variance) = match (self.mean.zip(self.variance), other.mean.zip(other.variance))
        {
            (Some((ma, va)), Some((mb, vb))) => {
                let n = n_a + n_b;
                let delta = mb - ma;
                let mean = ma + delta * n_b / n;
                let m2 = va * n_a + vb * n_b + delta * delta * n_a * n_b / n;
                (Some(mean), Some(m2 / n))
            }
            (a, b) => {
                let one = a.or(b);
                (one.map(|(m, _)| m), one.map(|(_, v)| v))
            }
        };
        let fold = |a: Option<f64>, b: Option<f64>, pick: fn(f64, f64) -> f64| match (a, b) {
            (Some(x), Some(y)) => Some(pick(x, y)),
            (x, y) => x.or(y),
        };
        ColumnStats {
            dtype: self.dtype,
            non_null_count: self.non_null_count + other.non_null_count,
            null_count: self.null_count + other.null_count,
            distinct_count: self.distinct_count + other.distinct_count,
            min: fold(self.min, other.min, f64::min),
            max: fold(self.max, other.max, f64::max),
            mean,
            variance,
        }
    }

    /// Fraction of selected rows that are NULL, in `[0, 1]`.
    pub fn null_fraction(&self) -> f64 {
        let total = self.non_null_count + self.null_count;
        if total == 0 {
            0.0
        } else {
            self.null_count as f64 / total as f64
        }
    }

    /// Ratio of distinct values to non-NULL rows, in `[0, 1]`.
    ///
    /// A ratio close to 1 on a categorical column means the column behaves
    /// like a key / identifier (names, codes); the paper recommends skipping
    /// such columns when generating candidate maps.
    pub fn distinct_ratio(&self) -> f64 {
        if self.non_null_count == 0 {
            0.0
        } else {
            self.distinct_count as f64 / self.non_null_count as f64
        }
    }

    /// True if the column looks like an identifier: a string or integer
    /// column where almost every value is distinct (names, codes, keys).
    ///
    /// Float columns are never flagged — continuous measurements legitimately
    /// have near-unique values and are prime cutting material.
    pub fn looks_like_identifier(&self) -> bool {
        self.dtype != DataType::Float && self.non_null_count >= 16 && self.distinct_ratio() > 0.95
    }
}

/// Scan the rows of `sel` that fall in a numeric column's global row range
/// `offset..offset + column.len()`, in row order: count the NULLs, push every
/// value through Welford, and call `insert` for every value that may be new
/// to the caller's distinct set — each distinct value at least once, repeats
/// only as often as they slip past the [`RecentKeys`] filter (`key` gives the
/// 64-bit identity the set distinguishes values by).
fn scan_numeric<T: Copy + Default>(
    column: &PrimitiveColumn<T>,
    sel: &Bitmap,
    offset: usize,
    key: impl Fn(T) -> u64,
    to_f64: impl Fn(T) -> f64,
    mut insert: impl FnMut(T),
) -> (usize, Welford) {
    let end = offset + column.len();
    let mut nulls = 0usize;
    let mut welford = Welford::new();
    let mut recent = RecentKeys::new();
    let mut push = |x: T| {
        if !recent.replace(key(x)) {
            insert(x);
        }
        welford.push(to_f64(x));
    };
    sel.for_each_one_in(offset, end, |idx| match column.get(idx - offset) {
        Some(x) => push(x),
        None => nulls += 1,
    });
    (nulls, welford)
}

/// A direct-mapped memo of the keys most recently handed to a distinct set,
/// so that a repeat of a recent key skips the set's hash-and-probe.
///
/// Real columns are either low-cardinality (ages, hours, one-decimal
/// measurements — nearly every row repeats a resident key) or near-unique
/// (every row misses and pays one extra compare). The memo never decides
/// membership: a miss only means "insert, the set will deduplicate".
struct RecentKeys {
    slots: [u64; 1 << RecentKeys::LOG2_SLOTS],
}

impl RecentKeys {
    const LOG2_SLOTS: u32 = 10;

    /// Fibonacci hashing: the top bits of the product mix every bit of the
    /// key, so small integers and floats differing only in a few mantissa
    /// bits spread over the slots alike.
    const fn slot_of(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - Self::LOG2_SLOTS)) as usize
    }

    fn new() -> Self {
        // A fresh slot must not claim a key it was never given, so each
        // starts out holding a key that lives elsewhere: key 0 lives in slot
        // 0, key 1 does not.
        const { assert!(RecentKeys::slot_of(0) == 0 && RecentKeys::slot_of(1) != 0) };
        let mut slots = [0; 1 << Self::LOG2_SLOTS];
        slots[0] = 1;
        RecentKeys { slots }
    }

    /// Make `key` resident in its slot; true if it already was.
    #[inline]
    fn replace(&mut self, key: u64) -> bool {
        let slot = &mut self.slots[Self::slot_of(key)];
        std::mem::replace(slot, key) == key
    }
}

/// Online mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
struct Welford {
    count: usize,
    mean: f64,
    m2: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Welford {
    fn new() -> Self {
        Welford::default()
    }

    fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DictColumn;
    use crate::{Field, Schema, TableBuilder};
    use proptest::prelude::*;

    /// The row-at-a-time definition [`ColumnSummary::compute`] must
    /// reproduce: every selected non-NULL value goes into a plain `HashSet`
    /// and through the same Welford update, in row order.
    fn reference_summary(column: &Column, sel: &Bitmap, offset: usize) -> ColumnSummary {
        let mut out = ColumnSummary::empty(column.data_type());
        let mut welford = Welford::new();
        let mut nulls = 0;
        for local in 0..column.len() {
            if offset + local >= sel.len() || !sel.get(offset + local) {
                continue;
            }
            match (column, &mut out.distinct) {
                (Column::Int(p), DistinctSet::Ints(distinct)) => match p.get(local) {
                    Some(x) => {
                        distinct.insert(x);
                        welford.push(x as f64);
                    }
                    None => nulls += 1,
                },
                (Column::Float(p), DistinctSet::Floats(distinct)) => match p.get(local) {
                    Some(x) => {
                        distinct.insert(x.to_bits());
                        welford.push(x);
                    }
                    None => nulls += 1,
                },
                _ => unreachable!("numeric columns only"),
            }
        }
        out.set_numeric(nulls, welford);
        out
    }

    /// `SummaryParts` compared by bit pattern (`==` on `f64` would let
    /// `-0.0`/`0.0` mix-ups through).
    fn parts_bits(
        parts: &SummaryParts,
    ) -> (
        usize,
        usize,
        u64,
        u64,
        Option<u64>,
        Option<u64>,
        &DistinctValues,
    ) {
        (
            parts.non_null,
            parts.nulls,
            parts.mean.to_bits(),
            parts.m2.to_bits(),
            parts.min.map(f64::to_bits),
            parts.max.map(f64::to_bits),
            &parts.distinct,
        )
    }

    /// Cardinalities of one, about the [`RecentKeys`] slot count, and far
    /// above it.
    fn cardinality() -> impl Strategy<Value = i64> {
        prop_oneof![Just(1i64), 900i64..1200, Just(1i64 << 40)]
    }

    /// Rows as `(raw value, null roll, selected)`; `raw % cardinality` picks
    /// the value.
    fn rows() -> impl Strategy<Value = Vec<(i64, u8, bool)>> {
        proptest::collection::vec((0i64..i64::MAX, 0u8..10, any::<bool>()), 0..3000)
    }

    /// An Int or Float column over the rows (one in ten NULL), with both
    /// zeros among the float values.
    fn numeric_column(rows: &[(i64, u8, bool)], cardinality: i64, float: bool) -> Column {
        let value = |&(raw, null_roll, _): &(i64, u8, bool)| {
            (null_roll != 0).then_some(raw % cardinality - 3)
        };
        if float {
            let lanes: Vec<Option<f64>> = rows
                .iter()
                .map(|row| {
                    value(row).map(|v| match v {
                        0 if row.0 % 2 == 0 => -0.0,
                        v => v as f64 / 10.0,
                    })
                })
                .collect();
            Column::Float(lanes.into())
        } else {
            Column::Int(rows.iter().map(value).collect::<Vec<_>>().into())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn numeric_summary_matches_the_row_at_a_time_reference(
            rows in rows(),
            cardinality in cardinality(),
            float in any::<bool>(),
            offset in 0usize..200,
            skip_head in 0usize..70,
            skip_tail in 0usize..70,
            beyond in 0usize..70,
        ) {
            let column = numeric_column(&rows, cardinality, float);
            // A table-wide selection: rows before and after the segment are
            // selected too, and the segment's own rows start and end mid-word.
            let end = offset + rows.len();
            let mut sel = Bitmap::new_full(end + beyond);
            for (local, &(_, _, selected)) in rows.iter().enumerate() {
                let inside = local >= skip_head && local + skip_tail < rows.len();
                if !(inside && selected) {
                    sel.clear(offset + local);
                }
            }
            let computed = ColumnSummary::compute(&column, &sel, offset).to_parts();
            let reference = reference_summary(&column, &sel, offset).to_parts();
            prop_assert_eq!(parts_bits(&computed), parts_bits(&reference));
        }

        #[test]
        fn segment_folds_match_table_column_stats(
            rows in rows(),
            cardinality in cardinality(),
            float in any::<bool>(),
        ) {
            let column = numeric_column(&rows, cardinality, float);
            let dtype = column.data_type();
            let sel = Bitmap::from_indices(
                rows.len(),
                rows.iter().enumerate().filter(|(_, row)| row.2).map(|(i, _)| i),
            );
            let mut layouts = Vec::new();
            for segments in [1usize, 3, 16] {
                let schema = Schema::new(vec![Field::nullable("x", dtype)]).unwrap();
                let mut b = TableBuilder::new("t", schema)
                    .with_segment_rows(rows.len().div_ceil(segments).max(1));
                for row in 0..rows.len() {
                    b.push_row(&[column.value(row)]).unwrap();
                }
                let table = b.build().unwrap();
                let mut folded = ColumnSummary::empty(dtype);
                for (idx, segment) in table.segments().iter().enumerate() {
                    folded.merge_from(&reference_summary(
                        segment.column(0),
                        &sel,
                        table.segment_offset(idx),
                    ));
                }
                let stats = table.column_stats("x", &sel).unwrap();
                prop_assert_eq!(&stats, &folded.to_stats());
                prop_assert_eq!(
                    parts_bits(&table.column("x").unwrap().summary(&sel).to_parts()),
                    parts_bits(&folded.to_parts())
                );
                layouts.push(stats);
            }
            // Counts, extrema and the exact distinct count do not depend on
            // the layout (the moments do, in the last bits).
            for stats in &layouts[1..] {
                prop_assert_eq!(stats.non_null_count, layouts[0].non_null_count);
                prop_assert_eq!(stats.null_count, layouts[0].null_count);
                prop_assert_eq!(stats.distinct_count, layouts[0].distinct_count);
                prop_assert_eq!(stats.min, layouts[0].min);
                prop_assert_eq!(stats.max, layouts[0].max);
            }
        }
    }

    #[test]
    fn int_stats() {
        let col = Column::Int(vec![Some(1), Some(2), Some(3), Some(4), None].into());
        let stats = ColumnStats::compute(&col, &Bitmap::new_full(5));
        assert_eq!(stats.non_null_count, 4);
        assert_eq!(stats.null_count, 1);
        assert_eq!(stats.distinct_count, 4);
        assert_eq!(stats.min, Some(1.0));
        assert_eq!(stats.max, Some(4.0));
        assert!((stats.mean.unwrap() - 2.5).abs() < 1e-12);
        assert!((stats.variance.unwrap() - 1.25).abs() < 1e-12);
        assert!((stats.null_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn float_stats_respect_selection() {
        let col = Column::Float(vec![Some(10.0), Some(20.0), Some(30.0), Some(40.0)].into());
        let sel = Bitmap::from_indices(4, [0, 3]);
        let stats = ColumnStats::compute(&col, &sel);
        assert_eq!(stats.non_null_count, 2);
        assert_eq!(stats.min, Some(10.0));
        assert_eq!(stats.max, Some(40.0));
        assert!((stats.mean.unwrap() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn string_stats_and_identifier_detection() {
        let mut d = DictColumn::new();
        for i in 0..100 {
            d.push(Some(&format!("user-{i}")));
        }
        let col = Column::Str(d);
        let stats = ColumnStats::compute(&col, &Bitmap::new_full(100));
        assert_eq!(stats.distinct_count, 100);
        assert!(stats.looks_like_identifier());

        let mut d2 = DictColumn::new();
        for i in 0..100 {
            d2.push(Some(if i % 2 == 0 { "m" } else { "f" }));
        }
        let col2 = Column::Str(d2);
        let stats2 = ColumnStats::compute(&col2, &Bitmap::new_full(100));
        assert_eq!(stats2.distinct_count, 2);
        assert!(!stats2.looks_like_identifier());
    }

    #[test]
    fn bool_stats() {
        let col = Column::Bool(vec![Some(true), Some(false), Some(true), None].into());
        let stats = ColumnStats::compute(&col, &Bitmap::new_full(4));
        assert_eq!(stats.non_null_count, 3);
        assert_eq!(stats.null_count, 1);
        assert_eq!(stats.distinct_count, 2);
        assert_eq!(stats.min, None);
    }

    #[test]
    fn summaries_merge_exactly_across_splits() {
        // Split a column at arbitrary points; the folded summary must agree
        // with the single-pass statistics on everything, including the exact
        // distinct count (values are shared across the split).
        let values: Vec<Option<i64>> = (0..200)
            .map(|i| if i % 9 == 0 { None } else { Some(i % 13) })
            .collect();
        let whole = Column::Int(values.clone().into());
        let reference = ColumnStats::compute(&whole, &Bitmap::new_full(200));
        for split in [1usize, 63, 64, 65, 100, 199] {
            let left = Column::Int(values[..split].to_vec().into());
            let right = Column::Int(values[split..].to_vec().into());
            let sel = Bitmap::new_full(200);
            let mut folded = ColumnSummary::compute(&left, &sel, 0);
            folded.merge_from(&ColumnSummary::compute(&right, &sel, split));
            let merged = folded.to_stats();
            assert_eq!(merged.non_null_count, reference.non_null_count);
            assert_eq!(merged.null_count, reference.null_count);
            assert_eq!(
                merged.distinct_count, reference.distinct_count,
                "split {split}"
            );
            assert_eq!(merged.min, reference.min);
            assert_eq!(merged.max, reference.max);
            assert!((merged.mean.unwrap() - reference.mean.unwrap()).abs() < 1e-9);
            assert!((merged.variance.unwrap() - reference.variance.unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn string_summaries_union_distinct_values_across_dictionaries() {
        // Two segments interning overlapping dictionaries independently: the
        // merged distinct count must deduplicate by string, not by code.
        let mut a = DictColumn::new();
        for s in ["x", "y", "x"] {
            a.push(Some(s));
        }
        let mut b = DictColumn::new();
        for s in ["y", "z", "y"] {
            b.push(Some(s));
        }
        let left = Column::Str(a);
        let right = Column::Str(b);
        let sel = Bitmap::new_full(6);
        let mut folded = ColumnSummary::compute(&left, &sel, 0);
        folded.merge_from(&ColumnSummary::compute(&right, &sel, 3));
        let stats = folded.to_stats();
        assert_eq!(stats.distinct_count, 3, "x, y, z");
        assert_eq!(stats.non_null_count, 6);
    }

    #[test]
    fn summary_parts_round_trip_is_exact() {
        let cols = [
            Column::Int(vec![Some(3), Some(-7), None, Some(3), Some(11)].into()),
            Column::Float(vec![Some(0.0), Some(-0.0), Some(2.5), None, Some(2.5)].into()),
            Column::Bool(vec![Some(true), None, Some(true)].into()),
        ];
        for col in &cols {
            let original = ColumnSummary::compute(col, &Bitmap::new_full(5.min(col.len())), 0);
            let rebuilt = ColumnSummary::from_parts(original.to_parts());
            assert_eq!(rebuilt.to_parts(), original.to_parts());
            let a = original.to_stats();
            let b = rebuilt.to_stats();
            assert_eq!(a, b);
            // Future merges behave identically too.
            let more = ColumnSummary::compute(col, &Bitmap::new_full(col.len()), 0);
            let mut fold_a = original.clone();
            let mut fold_b = rebuilt.clone();
            fold_a.merge_from(&more);
            fold_b.merge_from(&more);
            assert_eq!(fold_a.to_parts(), fold_b.to_parts());
        }
        // Strings deduplicate by value across rebuilt dictionaries.
        let mut d = DictColumn::new();
        for s in ["b", "a", "b", "c"] {
            d.push(Some(s));
        }
        let col = Column::Str(d);
        let summary = ColumnSummary::compute(&col, &Bitmap::new_full(4), 0);
        let parts = summary.to_parts();
        assert_eq!(
            parts.distinct,
            DistinctValues::Strs(vec!["a".into(), "b".into(), "c".into()])
        );
        assert_eq!(
            ColumnSummary::from_parts(parts).to_stats(),
            summary.to_stats()
        );
    }

    #[test]
    fn column_stats_merge_is_exact_except_distinct() {
        let a = ColumnStats::compute(
            &Column::Int(vec![Some(1), Some(2), None].into()),
            &Bitmap::new_full(3),
        );
        let b = ColumnStats::compute(
            &Column::Int(vec![Some(2), Some(10)].into()),
            &Bitmap::new_full(2),
        );
        let merged = a.merge(&b);
        let reference = ColumnStats::compute(
            &Column::Int(vec![Some(1), Some(2), None, Some(2), Some(10)].into()),
            &Bitmap::new_full(5),
        );
        assert_eq!(merged.non_null_count, reference.non_null_count);
        assert_eq!(merged.null_count, reference.null_count);
        assert_eq!(merged.min, reference.min);
        assert_eq!(merged.max, reference.max);
        assert!((merged.mean.unwrap() - reference.mean.unwrap()).abs() < 1e-12);
        assert!((merged.variance.unwrap() - reference.variance.unwrap()).abs() < 1e-9);
        // distinct merges as the a + b upper bound (2 is shared).
        assert_eq!(merged.distinct_count, 4);
        assert_eq!(reference.distinct_count, 3);
        // Merging with an all-NULL side keeps the non-NULL side's moments.
        let nulls =
            ColumnStats::compute(&Column::Int(vec![None, None].into()), &Bitmap::new_full(2));
        let kept = a.merge(&nulls);
        assert_eq!(kept.mean, a.mean);
        assert_eq!(kept.null_count, 3);
    }

    #[test]
    fn empty_selection_yields_zeroes() {
        let col = Column::Int(vec![Some(1), Some(2)].into());
        let stats = ColumnStats::compute(&col, &Bitmap::new_empty(2));
        assert_eq!(stats.non_null_count, 0);
        assert_eq!(stats.distinct_count, 0);
        assert_eq!(stats.mean, None);
        assert_eq!(stats.null_fraction(), 0.0);
        assert_eq!(stats.distinct_ratio(), 0.0);
    }
}
