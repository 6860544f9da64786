//! Per-column summary statistics.
//!
//! Atlas consults these statistics to decide how to cut an attribute (numeric
//! range, categorical cardinality), to detect high-cardinality "code-like"
//! columns that should be skipped (Section 5.2 of the paper), and to report
//! region descriptions.
//!
//! A numeric summary is a **counted value set**: one pass over the selected
//! rows counts each distinct value in a small exact counter — no hash-set
//! probe, no floating-point update per row — and the distinct count, `min`
//! and `max` are read off the counts afterwards. A part stored as dictionary
//! codes ([`crate::column`]) is counted per code, direct-address like a string
//! column, and each dictionary entry some selected row holds enters the
//! counter once with its count: the counter re-discovers nothing a sealed
//! segment already knows, and holds the same set either way. The counts are
//! the column's
//! whole distribution over the selection: they add exactly under
//! [`ColumnSummary::merge_from`], travel in [`SummaryParts`], and surface as
//! [`ColumnStats::value_counts`], from which the median cut reads its split
//! points instead of gathering and selecting the rows a second time. The
//! counter is bounded: a summary that meets more distinct values than it
//! holds (coordinates, identifiers) **degrades for good** to a plain distinct
//! set without counts. Whether a summary is counted depends only on how many
//! distinct values it covers, never on the segment layout or merge order.
//!
//! A boolean summary is the same count over two values, kept as the `true` and
//! `false` row counts: a boolean part is coded like a numeric one
//! ([`crate::column`]) and walked by the same body.
//!
//! A string summary is counted the same way, by category: the one
//! pass that counts the selected rows per dictionary code
//! (`kernels::count_coded_part`, the body coded numerics are counted by: a
//! 64-row word of a part with a handful of entries is one popcount per entry,
//! any other word a tally per row) keeps those counts — every value of every
//! dictionary walked, **zero counts included**, in first-appearance order,
//! which makes the order the column's and not the selection's. They add under
//! [`ColumnSummary::merge_from`] (in row order: a later part appends the
//! values it is first to hold), travel in [`SummaryParts`], and surface as
//! [`ColumnStats::category_counts`], from which a categorical cut reads its
//! frequency ranking (ties in first-appearance order) instead of walking the
//! column a second time. The same bound applies: a column whose dictionaries hold more
//! values than the counter (names, codes) keeps the plain set of the values
//! some selected row holds, and nothing is cloned per dictionary entry.
//!
//! `min` and `max` come from the value set, not from a row-order fold, so
//! they are layout-independent too: the extremes of the non-NaN values under
//! [`f64::total_cmp`], which puts `-0.0` below `+0.0` (a selection of just
//! the two zeros has `min = -0.0`, `max = +0.0`). NaNs are values (non-NULL,
//! distinct by payload) but never an extreme, unless there is nothing else:
//! then `min`/`max` are the `total_cmp`-smallest/-largest NaN.

use crate::bitmap::Bitmap;
use crate::column::{Column, Lanes, Numeric, PrimitiveColumn, MAX_CODED_VALUES};
use crate::kernels;
use crate::value::DataType;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// Exact occurrence counts of up to [`ValueCounts::CAPACITY`] distinct 64-bit
/// keys. The open-addressed table starts unallocated and grows with the keys
/// it holds, so counting costs O(rows + distinct keys) whatever the capacity.
#[derive(Debug, Clone, Default)]
struct ValueCounts {
    /// `(key, count)` slots — none yet, or a power of two of them, at most
    /// half occupied. A zero count marks a free slot.
    slots: Vec<(u64, u64)>,
    /// `64 − log2(slots.len())` once there are slots.
    shift: u32,
    /// Occupied slots.
    len: usize,
}

impl ValueCounts {
    /// The most keys the counter holds (its largest table, half full) — also
    /// the most entries a coded column's dictionary holds, so one coded part
    /// never overflows an empty counter.
    const CAPACITY: usize = MAX_CODED_VALUES;

    /// Count `n > 0` more occurrences of `key`. False — and nothing changes —
    /// when the key is new and the counter already holds `CAPACITY` keys.
    #[inline]
    fn add(&mut self, key: u64, n: u64) -> bool {
        // Fibonacci hashing: the top bits of the product mix every bit of the
        // key, so small integers and floats differing only in a few mantissa
        // bits spread over the slots alike.
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        let mask = self.slots.len().wrapping_sub(1);
        loop {
            at &= mask;
            match self.slots.get_mut(at) {
                Some((resident, count)) if *count != 0 => {
                    if *resident == key {
                        *count = count.saturating_add(n);
                        return true;
                    }
                    at += 1;
                }
                // A free slot, or no table yet: the key is new.
                _ => return self.insert(at, key, n),
            }
        }
    }

    /// The rare half of [`ValueCounts::add`]: `key` is not in the table and
    /// `at` is the free slot its probe ended on.
    #[cold]
    fn insert(&mut self, at: usize, key: u64, n: u64) -> bool {
        if self.len * 2 < self.slots.len() {
            self.slots[at] = (key, n);
            self.len += 1;
            return true;
        }
        if self.len >= Self::CAPACITY {
            return false;
        }
        // Four times the slots, then every old entry and the new one again.
        let slots = (self.slots.len() * 4).clamp(16, 2 * Self::CAPACITY);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); slots]);
        self.shift = u64::BITS - slots.trailing_zeros();
        self.len = 0;
        let mut entries = old.into_iter().chain([(key, n)]).filter(|e| e.1 != 0);
        entries.all(|(key, n)| self.add(key, n))
    }

    /// The `(key, count)` pairs, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slots.iter().copied().filter(|&(_, n)| n != 0)
    }
}

/// The distinct values of a numeric summary as 64-bit keys (see
/// [`DistinctValues::Numbers`]): counted while a [`ValueCounts`] holds them
/// all, a plain set from the first key it cannot take.
#[derive(Debug, Clone)]
enum NumericSet {
    Counted(ValueCounts),
    Plain(HashSet<u64>),
}

impl NumericSet {
    /// Record `n > 0` occurrences of `key` (a plain set ignores `n`).
    #[inline]
    fn add(&mut self, key: u64, n: u64) {
        if let NumericSet::Counted(counts) = self {
            if counts.add(key, n) {
                return;
            }
        }
        self.make_plain().insert(key);
    }

    /// Forget the counts, if any are left.
    fn make_plain(&mut self) -> &mut HashSet<u64> {
        if let NumericSet::Counted(counts) = self {
            *self = NumericSet::Plain(counts.iter().map(|(key, _)| key).collect());
        }
        match self {
            NumericSet::Plain(set) => set,
            NumericSet::Counted(_) => unreachable!("just made plain"),
        }
    }

    /// Counts add; a side without counts leaves the union without them.
    fn union_with(&mut self, other: &NumericSet) {
        match other {
            NumericSet::Counted(counts) => counts.iter().for_each(|(key, n)| self.add(key, n)),
            #[expect(
                clippy::disallowed_methods,
                reason = "folds into another set: a union holds the same keys in whatever order they arrive"
            )]
            NumericSet::Plain(set) => self.make_plain().extend(set.iter().copied()),
        }
    }
}

/// The numeric value a [`NumericSet`] key of a `dtype` column stands for.
fn key_value(dtype: DataType, key: u64) -> f64 {
    match dtype {
        DataType::Int => key as i64 as f64,
        _ => f64::from_bits(key),
    }
}

/// The `(min, max)` of `ends` and one more value `x`, under the rule of the
/// module docs: `total_cmp` order, a NaN losing to any number at either end.
pub(crate) fn widen(ends: Option<(f64, f64)>, x: f64) -> (f64, f64) {
    let Some((min, max)) = ends else {
        return (x, x);
    };
    let below = x.is_nan().cmp(&min.is_nan()).then(x.total_cmp(&min));
    let above = max.is_nan().cmp(&x.is_nan()).then(x.total_cmp(&max));
    (
        if below.is_lt() { x } else { min },
        if above.is_gt() { x } else { max },
    )
}

/// `(min, max)` of the values under that rule.
fn extremes(values: impl IntoIterator<Item = f64>) -> Option<(f64, f64)> {
    values
        .into_iter()
        .fold(None, |ends, x| Some(widen(ends, x)))
}

/// The categorical values of a string column under a selection: counted while
/// the dictionaries walked hold few enough values, the plain set of the values
/// some selected row holds from the first one too many (for good, like
/// [`NumericSet`]).
///
/// `S` is how a value is held: a `String` in a [`ColumnSummary`], which is
/// kept, merged and sent; a `&str` borrowed from the segment dictionaries in
/// the statistics of one query ([`crate::ColumnView::stats`]), which so
/// allocate nothing per distinct value of a name-like column.
#[derive(Debug, Clone)]
pub(crate) enum CategorySet<S> {
    /// Every value of every dictionary walked, with its selected-row count
    /// (zeros included), in first-appearance order; `index` finds a value's
    /// position in `order`.
    Counted {
        order: Vec<(S, usize)>,
        index: HashMap<S, usize>,
    },
    Plain(HashSet<S>),
}

impl<S: Borrow<str> + Hash + Eq> CategorySet<S> {
    /// The most values counted — the numeric counter's bound.
    const CAPACITY: usize = ValueCounts::CAPACITY;

    pub(crate) fn new() -> Self {
        CategorySet::Counted {
            order: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Record that `n` more selected rows hold `value` (`n` may be zero: the
    /// value is in a dictionary that was walked).
    pub(crate) fn add<'v>(&mut self, value: &'v str, n: usize)
    where
        S: From<&'v str>,
    {
        if let CategorySet::Counted { order, index } = self {
            if let Some(&at) = index.get(value) {
                if let Some((_, count)) = order.get_mut(at) {
                    *count += n;
                }
                return;
            }
            if order.len() < Self::CAPACITY {
                index.insert(S::from(value), order.len());
                order.push((S::from(value), n));
                return;
            }
        }
        let plain = self.make_plain();
        if n > 0 && !plain.contains(value) {
            plain.insert(S::from(value));
        }
    }

    /// Count the selected rows of one string part (local row 0 at global
    /// row `offset`) into the set; the `(non-NULL, NULL)` selected rows of
    /// the part. A dictionary that alone is more than the counter holds is
    /// not counted into it first.
    pub(crate) fn count_part<'d>(
        &mut self,
        column: &'d Column,
        offset: usize,
        sel: &Bitmap,
    ) -> (usize, usize)
    where
        S: From<&'d str>,
    {
        if kernels::dictionary_part(column).len() > Self::CAPACITY {
            self.make_plain();
        }
        kernels::count_values_part(column, offset, sel, |value, n| self.add(value, n))
    }

    /// Forget the counts, if any are left.
    fn make_plain(&mut self) -> &mut HashSet<S> {
        if let CategorySet::Counted { order, .. } = self {
            let held = std::mem::take(order).into_iter().filter(|(_, n)| *n > 0);
            *self = CategorySet::Plain(held.map(|(value, _)| value).collect());
        }
        match self {
            CategorySet::Plain(set) => set,
            CategorySet::Counted { .. } => unreachable!("just made plain"),
        }
    }

    /// How many values some selected row holds.
    pub(crate) fn distinct_len(&self) -> usize {
        match self {
            CategorySet::Counted { order, .. } => order.iter().filter(|(_, n)| *n > 0).count(),
            CategorySet::Plain(set) => set.len(),
        }
    }

    /// The counts in their [`ColumnStats::category_counts`] form, while there
    /// are any.
    pub(crate) fn category_counts(&self) -> Option<Vec<(String, usize)>> {
        match self {
            CategorySet::Counted { order, .. } => Some(
                order
                    .iter()
                    .map(|(value, n)| (value.borrow().to_string(), *n))
                    .collect(),
            ),
            CategorySet::Plain(_) => None,
        }
    }
}

impl CategorySet<String> {
    /// Counts add, a later side appending the values it is first to hold; a
    /// side without counts leaves the union without them.
    fn union_with(&mut self, other: &CategorySet<String>) {
        match other {
            CategorySet::Counted { order, .. } => {
                order.iter().for_each(|(value, n)| self.add(value, *n));
            }
            CategorySet::Plain(set) => {
                let plain = self.make_plain();
                #[expect(
                    clippy::iter_over_hash_type,
                    reason = "folds into another set: a union holds the same values in whatever order they arrive"
                )]
                for value in set {
                    if !plain.contains(value.as_str()) {
                        plain.insert(value.clone());
                    }
                }
            }
        }
    }
}

/// The distinct non-NULL values seen by a [`ColumnSummary`], kept in a form
/// that merges exactly across segments (a plain count cannot: segments share
/// values, so distinct counts are not additive).
#[derive(Debug, Clone)]
enum DistinctSet {
    /// Distinct integers or floats.
    Numeric(NumericSet),
    /// Strings by category. Segments intern their dictionaries independently,
    /// so cross-segment identity has to go through the string itself.
    Strs(CategorySet<String>),
    /// How many selected rows are `true` / `false`.
    Bools {
        /// `true` rows.
        t: usize,
        /// `false` rows.
        f: usize,
    },
}

/// The distinct non-NULL values of a [`ColumnSummary`] in a serialisable,
/// deterministic form (sorted vectors instead of hash sets), produced by
/// [`ColumnSummary::to_parts`] and consumed by [`ColumnSummary::from_parts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistinctValues {
    /// Distinct numeric values as 64-bit keys, sorted ascending: integers by
    /// `as u64`, floats by IEEE-754 bit pattern, so `-0.0`/`0.0` and NaN
    /// payloads keep the distinct-count semantics of the in-memory set.
    Numbers(Vec<u64>),
    /// Strings. With [`SummaryParts::counts`]: every value of every
    /// dictionary walked, unselected ones included, in first-appearance
    /// order. Without: the values some selected row holds, sorted
    /// lexicographically.
    Strs(Vec<String>),
    /// How many selected rows are `true` / `false` (both counts add up to
    /// [`SummaryParts::non_null`]).
    Bools {
        /// `true` rows.
        t: usize,
        /// `false` rows.
        f: usize,
    },
}

/// The serialisable decomposition of a [`ColumnSummary`]: every field a
/// remote peer needs to rebuild a summary that merges and collapses exactly
/// like the original.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryParts {
    /// Data type of the summarised column.
    pub dtype: DataType,
    /// Number of non-NULL rows seen.
    pub non_null: usize,
    /// Number of NULL rows seen.
    pub nulls: usize,
    /// The distinct non-NULL values, in deterministic order.
    pub distinct: DistinctValues,
    /// How many selected rows hold each of the [`DistinctValues::Numbers`]
    /// (all positive) or [`DistinctValues::Strs`] (zeros included), position
    /// by position and summing to `non_null`: `Some` for a counted summary,
    /// `None` for a degraded or boolean one.
    pub counts: Option<Vec<u64>>,
}

impl DistinctSet {
    fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::Int | DataType::Float => {
                DistinctSet::Numeric(NumericSet::Counted(ValueCounts::default()))
            }
            DataType::Str => DistinctSet::Strs(CategorySet::new()),
            DataType::Bool => DistinctSet::Bools { t: 0, f: 0 },
        }
    }

    fn to_values(&self) -> (DistinctValues, Option<Vec<u64>>) {
        match self {
            DistinctSet::Numeric(NumericSet::Counted(counts)) => {
                let mut pairs: Vec<(u64, u64)> = counts.iter().collect();
                pairs.sort_unstable();
                let (keys, counts) = pairs.into_iter().unzip();
                (DistinctValues::Numbers(keys), Some(counts))
            }
            DistinctSet::Numeric(NumericSet::Plain(set)) => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "sorted on the next line, and keys are distinct"
                )]
                let mut keys: Vec<u64> = set.iter().copied().collect();
                keys.sort_unstable();
                (DistinctValues::Numbers(keys), None)
            }
            DistinctSet::Strs(CategorySet::Counted { order, .. }) => {
                let (values, counts) = order.iter().map(|(v, n)| (v.clone(), *n as u64)).unzip();
                (DistinctValues::Strs(values), Some(counts))
            }
            DistinctSet::Strs(CategorySet::Plain(set)) => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "sorted on the next line, and values are distinct"
                )]
                let mut v: Vec<String> = set.iter().cloned().collect();
                v.sort_unstable();
                (DistinctValues::Strs(v), None)
            }
            DistinctSet::Bools { t, f } => (DistinctValues::Bools { t: *t, f: *f }, None),
        }
    }

    /// Counts that are not one per value are not counts of these values: the
    /// set is rebuilt plain.
    fn from_values(values: DistinctValues, counts: Option<Vec<u64>>) -> Self {
        match values {
            DistinctValues::Numbers(keys) => DistinctSet::Numeric(match counts {
                Some(counts) if counts.len() == keys.len() => {
                    let mut set = NumericSet::Counted(ValueCounts::default());
                    let pairs = keys.into_iter().zip(counts);
                    pairs.for_each(|(key, n)| set.add(key, n));
                    set
                }
                _ => NumericSet::Plain(keys.into_iter().collect()),
            }),
            DistinctValues::Strs(values) => DistinctSet::Strs(match counts {
                Some(counts) if counts.len() == values.len() => {
                    let mut set = CategorySet::new();
                    let pairs = values.iter().zip(counts);
                    pairs.for_each(|(value, n)| set.add(value, n as usize));
                    set
                }
                _ => CategorySet::Plain(values.into_iter().collect()),
            }),
            DistinctValues::Bools { t, f } => DistinctSet::Bools { t, f },
        }
    }

    fn len(&self) -> usize {
        match self {
            DistinctSet::Numeric(NumericSet::Counted(counts)) => counts.len,
            DistinctSet::Numeric(NumericSet::Plain(set)) => set.len(),
            DistinctSet::Strs(set) => set.distinct_len(),
            DistinctSet::Bools { t, f } => usize::from(*t > 0) + usize::from(*f > 0),
        }
    }

    fn union_with(&mut self, other: &DistinctSet) {
        match (self, other) {
            (DistinctSet::Numeric(a), DistinctSet::Numeric(b)) => a.union_with(b),
            (DistinctSet::Strs(a), DistinctSet::Strs(b)) => a.union_with(b),
            (DistinctSet::Bools { t, f }, DistinctSet::Bools { t: ot, f: of }) => {
                *t += *ot;
                *f += *of;
            }
            _ => unreachable!("distinct sets of mismatched column types are never merged"),
        }
    }
}

/// The **mergeable** form of [`ColumnStats`]: everything a segment contributes
/// to the statistics of the whole column, in a representation where two
/// summaries combine exactly (row counts and value counts add, distinct
/// values union as a real set, and min/max are read off that set).
///
/// This is what makes profiles incremental: a prepared engine keeps one
/// `ColumnSummary` per column, and appending a segment merges the new
/// segment's summary instead of rescanning the table. No number in a summary
/// depends on the order its parts were merged in; the one thing that does is
/// the order string categories are listed in (first appearance), so parts are
/// merged in row order — as a from-scratch rebuild scans them, which makes an
/// appended profile bit-for-bit the profile that rebuild would produce.
#[derive(Debug, Clone)]
pub struct ColumnSummary {
    dtype: DataType,
    non_null: usize,
    nulls: usize,
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
            distinct: DistinctSet::new(dtype),
        }
    }

    /// Summarise one segment-local column over the rows of `sel` that fall in
    /// the segment's global row range `offset..offset + column.len()`.
    ///
    /// `sel` is a **table-wide** selection; the summary visits only this
    /// segment's slice of it, so per-segment summaries can be computed
    /// independently (and in parallel) and then merged.
    pub fn compute(column: &Column, sel: &Bitmap, offset: usize) -> Self {
        let mut out = ColumnSummary::empty(column.data_type());
        out.accumulate(column, sel, offset);
        out
    }

    /// [`ColumnSummary::compute`] straight into `self`: the same summary as
    /// merging the segment's own would give, without building that one.
    pub fn accumulate(&mut self, column: &Column, sel: &Bitmap, offset: usize) {
        match column {
            Column::Int(values) => self.scan_numeric(values, sel, offset),
            Column::Float(values) => self.scan_numeric(values, sel, offset),
            Column::Str(_) => {
                let DistinctSet::Strs(distinct) = &mut self.distinct else {
                    unreachable!("string columns use string distinct sets");
                };
                let (non_null, nulls) = distinct.count_part(column, offset, sel);
                self.non_null += non_null;
                self.nulls += nulls;
            }
            Column::Bool(values) => {
                let DistinctSet::Bools { t, f } = &mut self.distinct else {
                    unreachable!("bool columns use bool distinct sets");
                };
                self.nulls += count_by_value(values, sel, offset, |x, n| {
                    self.non_null += n;
                    if x {
                        *t += n;
                    } else {
                        *f += n;
                    }
                });
            }
        }
    }

    /// The numeric arm of [`ColumnSummary::accumulate`]: count the selected
    /// values by [`Numeric::key`], the 64-bit identity the set distinguishes
    /// them by ([`count_by_value`]) — the same set, bit for bit, whichever way
    /// a part is stored.
    fn scan_numeric<T: Numeric>(
        &mut self,
        column: &PrimitiveColumn<T>,
        sel: &Bitmap,
        offset: usize,
    ) {
        let DistinctSet::Numeric(set) = &mut self.distinct else {
            unreachable!("numeric columns use numeric distinct sets");
        };
        self.nulls += count_by_value(column, sel, offset, |x, n| {
            self.non_null += n;
            set.add(x.key(), n as u64);
        });
    }

    /// The column type this summary describes.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Merge `other` — the summary of a disjoint set of rows of the same
    /// column, **after** the rows of `self` — into `self`: row counts and
    /// value counts add, distinct values union, string categories `other` is
    /// first to hold append. A side without value counts leaves the result
    /// without them.
    pub fn merge_from(&mut self, other: &ColumnSummary) {
        debug_assert_eq!(self.dtype, other.dtype, "summaries of one column only");
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
        let (distinct, counts) = self.distinct.to_values();
        SummaryParts {
            dtype: self.dtype,
            non_null: self.non_null,
            nulls: self.nulls,
            distinct,
            counts,
        }
    }

    /// Rebuild a summary from the parts produced by
    /// [`ColumnSummary::to_parts`].
    pub fn from_parts(parts: SummaryParts) -> Self {
        ColumnSummary {
            dtype: parts.dtype,
            non_null: parts.non_null,
            nulls: parts.nulls,
            distinct: DistinctSet::from_values(parts.distinct, parts.counts),
        }
    }

    /// Collapse the summary into the public [`ColumnStats`] form. The distinct
    /// count is exact and the extremes are those of the merged value set,
    /// which costs one pass over its distinct values.
    pub fn to_stats(&self) -> ColumnStats {
        let value = |key| key_value(self.dtype, key);
        let (ends, value_counts) = match &self.distinct {
            DistinctSet::Numeric(NumericSet::Counted(counts)) => {
                // By value, equal values (integers beyond 2⁵³ sharing an
                // `f64`) by key: the order is the value set's, not that of
                // the counter's slots, which depends on insertion order.
                let mut keyed: Vec<_> = counts.iter().collect();
                keyed
                    .sort_unstable_by(|a, b| value(a.0).total_cmp(&value(b.0)).then(a.0.cmp(&b.0)));
                let pairs: Vec<_> = keyed.into_iter().map(|(key, n)| (value(key), n)).collect();
                (extremes(pairs.iter().map(|pair| pair.0)), Some(pairs))
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "folds into a minimum and a maximum under f64::total_cmp, which no order of arrival changes"
            )]
            DistinctSet::Numeric(NumericSet::Plain(set)) => {
                (extremes(set.iter().map(|&key| value(key))), None)
            }
            _ => (None, None),
        };
        let category_counts = match &self.distinct {
            DistinctSet::Strs(set) => set.category_counts(),
            DistinctSet::Bools { t, f } => {
                Some(vec![("true".to_string(), *t), ("false".to_string(), *f)])
            }
            DistinctSet::Numeric(_) => None,
        };
        let (min, max) = ends.unzip();
        ColumnStats {
            dtype: self.dtype,
            non_null_count: self.non_null,
            null_count: self.nulls,
            distinct_count: self.distinct.len(),
            min,
            max,
            value_counts,
            category_counts,
        }
    }
}

/// Count the selected rows of one numeric or boolean part (local row 0 at
/// global row `offset`) by value: `counted(x, n)` for every value `x` that
/// `n > 0` selected rows hold; returns how many selected rows are NULL. Plain
/// lanes are counted a row at a time (`n = 1`); a coded part already knows
/// its distinct values, so its rows are counted per code (no hash probe: a
/// direct-address tally, or one popcount per entry per 64-row word when the
/// part has a handful of entries) and each dictionary entry some selected
/// row holds is reported once, with its count.
#[inline]
fn count_by_value<T: Copy + Default>(
    column: &PrimitiveColumn<T>,
    sel: &Bitmap,
    offset: usize,
    mut counted: impl FnMut(T, usize),
) -> usize {
    let validity = column.validity();
    match column.lanes() {
        Lanes::Plain(values) => {
            kernels::for_each_selected_value(values, validity, offset, sel, |x| counted(x, 1))
        }
        Lanes::Coded { dict, codes } => {
            let counts = kernels::count_coded_part(codes, dict.len(), validity, offset, sel);
            let (&nulls, by_code) = counts.split_last().expect("the NULL slot is always there");
            for (&x, &n) in dict.iter().zip(by_code) {
                if n > 0 {
                    counted(x, n);
                }
            }
            nulls
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
    /// Minimum numeric value (numeric columns only; the module docs state the
    /// rule for `±0.0` and NaN).
    pub min: Option<f64>,
    /// Maximum numeric value (numeric columns only).
    pub max: Option<f64>,
    /// Every distinct numeric value among the selected rows with the number
    /// of rows holding it, ascending by [`f64::total_cmp`]: the exact
    /// distribution, from which any order statistic or moment follows without
    /// the rows. `None` for non-numeric columns and for summaries with too
    /// many distinct values to count (see the module docs). Integers beyond
    /// 2⁵³ that share an `f64` appear as adjacent equal values.
    pub value_counts: Option<Vec<(f64, u64)>>,
    /// Every categorical value with the number of selected rows holding it —
    /// [`crate::ColumnView::category_counts`], obtained by the statistics walk
    /// itself: one pair per value of the column's dictionaries, **zero counts
    /// included**, in global first-appearance order (`true`, `false` for a
    /// boolean column), the counts summing to `non_null_count`. A categorical
    /// cut ranks ([`crate::rank_categories_by_frequency`]) and orders its
    /// groups from these. `None` for numeric columns and for string columns
    /// whose dictionaries hold too many values to count (see the module
    /// docs).
    pub category_counts: Option<Vec<(String, usize)>>,
}

impl ColumnStats {
    /// Compute statistics for `column` over the rows selected by `sel`.
    ///
    /// This is the one-part case of the statistics scan: a table scans every
    /// segment into one [`ColumnSummary`], which for one segment is exactly
    /// this.
    pub fn compute(column: &Column, sel: &Bitmap) -> ColumnStats {
        ColumnSummary::compute(column, sel, 0).to_stats()
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

    /// The statistics of the rows `self` counts and `part` does not, where
    /// `part` describes a sub-selection of `self`'s rows of the same column:
    /// exactly what a walk of those remaining rows returns. Counts subtract;
    /// a value no remaining row holds leaves [`ColumnStats::value_counts`]
    /// but keeps its zero in [`ColumnStats::category_counts`], which stays in
    /// its first-appearance order; the distinct count, `min` and `max` are
    /// read off the remaining counts by the rules of the module docs.
    ///
    /// `None` whenever that cannot be guaranteed: either side without counts
    /// (a degraded summary), a count of `part` above `self`'s, a value of
    /// `part` that `self` lacks, or adjacent equal values — integers beyond
    /// 2⁵³ that share an `f64` no longer say which key a count belongs to.
    pub fn without(&self, part: &ColumnStats) -> Option<ColumnStats> {
        if self.dtype != part.dtype {
            return None;
        }
        let non_null_count = self.non_null_count.checked_sub(part.non_null_count)?;
        let null_count = self.null_count.checked_sub(part.null_count)?;
        let mut left = ColumnStats {
            dtype: self.dtype,
            non_null_count,
            null_count,
            distinct_count: 0,
            min: None,
            max: None,
            value_counts: None,
            category_counts: None,
        };
        let held: u64 = match self.dtype {
            DataType::Int | DataType::Float => {
                let counts =
                    value_counts_without(self.value_counts.as_ref()?, part.value_counts.as_ref()?)?;
                (left.min, left.max) = extremes(counts.iter().map(|pair| pair.0)).unzip();
                left.distinct_count = counts.len();
                let held = counts.iter().map(|pair| pair.1).sum();
                left.value_counts = Some(counts);
                held
            }
            DataType::Str | DataType::Bool => {
                let (whole, part) = (
                    self.category_counts.as_ref()?,
                    part.category_counts.as_ref()?,
                );
                if whole.len() != part.len() {
                    return None;
                }
                let mut counts = Vec::with_capacity(whole.len());
                for ((value, n), (same, m)) in whole.iter().zip(part) {
                    if value != same {
                        return None;
                    }
                    counts.push((value.clone(), n.checked_sub(*m)?));
                }
                left.distinct_count = counts.iter().filter(|pair| pair.1 > 0).count();
                let held = counts.iter().map(|pair| pair.1 as u64).sum();
                left.category_counts = Some(counts);
                held
            }
        };
        (held == non_null_count as u64).then_some(left)
    }
}

/// `whole`'s value counts less `part`'s, zeros dropped; `None` when `part`
/// holds a value `whole` lacks or more of one, or when either side lists two
/// equal values.
fn value_counts_without(whole: &[(f64, u64)], part: &[(f64, u64)]) -> Option<Vec<(f64, u64)>> {
    let shares_a_value = |pairs: &[(f64, u64)]| {
        pairs
            .windows(2)
            .any(|w| w[0].0.to_bits() == w[1].0.to_bits())
    };
    if shares_a_value(whole) || shares_a_value(part) {
        return None;
    }
    // Both ascend by `total_cmp`, under which values are equal exactly when
    // their bits are: one merge walk pairs them up.
    let mut part = part.iter().peekable();
    let mut out = Vec::with_capacity(whole.len());
    for &(x, n) in whole {
        let taken = part
            .next_if(|pair| pair.0.to_bits() == x.to_bits())
            .map_or(0, |pair| pair.1);
        match n.checked_sub(taken)? {
            0 => {}
            left => out.push((x, left)),
        }
    }
    // A value of `part` no pair of `whole` matched stays unconsumed.
    part.next().is_none().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DictColumn;
    use crate::{ColumnView, Field, Schema, TableBuilder, Value};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The row-at-a-time definition a numeric summary must reproduce, sharing
    /// nothing with the counter: every selected non-NULL value tallied in a
    /// `BTreeMap` by key, the counts kept exactly when the distinct values
    /// fit the counter, and beside the parts `min` and `max` by the module
    /// docs' rule off a sorted copy of the values.
    fn reference_parts(
        column: &Column,
        sel: &Bitmap,
        offset: usize,
    ) -> (SummaryParts, Option<f64>, Option<f64>) {
        let mut tally: BTreeMap<u64, u64> = BTreeMap::new();
        let mut values: Vec<f64> = Vec::new();
        let mut nulls = 0;
        for local in 0..column.len() {
            if offset + local >= sel.len() || !sel.get(offset + local) {
                continue;
            }
            let keyed = match column {
                Column::Int(p) => p.get(local).map(|x| (x as u64, x as f64)),
                Column::Float(p) => p.get(local).map(|x| (x.to_bits(), x)),
                _ => unreachable!("numeric columns only"),
            };
            match keyed {
                Some((key, value)) => {
                    *tally.entry(key).or_default() += 1;
                    values.push(value);
                }
                None => nulls += 1,
            }
        }
        let mut ranked: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
        if ranked.is_empty() {
            ranked = values.clone();
        }
        ranked.sort_by(f64::total_cmp);
        let counted = tally.len() <= ValueCounts::CAPACITY;
        let parts = SummaryParts {
            dtype: column.data_type(),
            non_null: values.len(),
            nulls,
            distinct: DistinctValues::Numbers(tally.keys().copied().collect()),
            counts: counted.then(|| tally.values().copied().collect()),
        };
        (parts, ranked.first().copied(), ranked.last().copied())
    }

    /// `ColumnStats` with its floats as bit patterns (a NaN among the values
    /// makes `==` on the struct false against itself).
    #[allow(clippy::type_complexity)]
    fn stats_bits(
        stats: &ColumnStats,
    ) -> (
        usize,
        usize,
        usize,
        Option<u64>,
        Option<u64>,
        Option<Vec<(u64, u64)>>,
    ) {
        let counts = stats.value_counts.as_ref();
        (
            stats.non_null_count,
            stats.null_count,
            stats.distinct_count,
            stats.min.map(f64::to_bits),
            stats.max.map(f64::to_bits),
            counts.map(|pairs| pairs.iter().map(|&(x, n)| (x.to_bits(), n)).collect()),
        )
    }

    /// Cardinalities of one, of the census columns, straddling the counter's
    /// capacity (about 4 700 selected values are drawn from these), and far
    /// above it.
    fn cardinality() -> impl Strategy<Value = i64> {
        prop_oneof![
            Just(1i64),
            Just(70i64),
            Just(700i64),
            950i64..1150,
            Just(1i64 << 40)
        ]
    }

    /// Rows as `(raw value, null roll, selection roll)`; `raw % cardinality`
    /// picks the value, a zero roll makes the row NULL / unselected.
    fn rows() -> impl Strategy<Value = Vec<(i64, u8, u8)>> {
        proptest::collection::vec((0i64..i64::MAX, 0u8..10, 0u8..8), 0..6000)
    }

    /// An Int or Float column over the rows (one in ten NULL); the float
    /// values include both zeros and NaNs of both signs.
    fn numeric_column(rows: &[(i64, u8, u8)], cardinality: i64, float: bool) -> Column {
        let value = |&(raw, null_roll, _): &(i64, u8, u8)| {
            (null_roll != 0).then_some(raw % cardinality - 3)
        };
        if float {
            let lanes: Vec<Option<f64>> = rows
                .iter()
                .map(|row| {
                    value(row).map(|v| match v {
                        0 if row.0 % 2 == 0 => -0.0,
                        5 => f64::NAN,
                        6 => -f64::NAN,
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
            for (local, &(_, _, sel_roll)) in rows.iter().enumerate() {
                let inside = local >= skip_head && local + skip_tail < rows.len();
                if !(inside && sel_roll != 0) {
                    sel.clear(offset + local);
                }
            }
            let summary = ColumnSummary::compute(&column, &sel, offset);
            let (reference, min, max) = reference_parts(&column, &sel, offset);
            prop_assert_eq!(&summary.to_parts(), &reference);

            // The public form: exact distinct count, extremes by the stated
            // rule, and the counts as the run lengths of the sorted values.
            let stats = summary.to_stats();
            let DistinctValues::Numbers(keys) = &reference.distinct else { unreachable!() };
            prop_assert_eq!(stats.distinct_count, keys.len());
            prop_assert_eq!(stats.min.map(f64::to_bits), min.map(f64::to_bits));
            prop_assert_eq!(stats.max.map(f64::to_bits), max.map(f64::to_bits));
            let mut sorted = ColumnView::of_column("x", &column).numeric_values_where(&{
                let mut local = Bitmap::new_empty(rows.len());
                sel.for_each_one_in(offset, end, |idx| local.set(idx - offset));
                local
            });
            sorted.sort_by(f64::total_cmp);
            let mut runs: Vec<(u64, u64)> = Vec::new();
            for x in sorted {
                match runs.last_mut() {
                    Some((bits, n)) if *bits == x.to_bits() => *n += 1,
                    _ => runs.push((x.to_bits(), 1)),
                }
            }
            let counted = stats_bits(&stats).5;
            prop_assert_eq!(counted, reference.counts.is_some().then_some(runs));
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
                rows.iter().enumerate().filter(|(_, row)| row.2 != 0).map(|(i, _)| i),
            );
            // Nothing in a summary depends on the layout — extremes and
            // whether it stayed counted included — so every layout must
            // reproduce the reference over the unsplit column.
            let (reference, min, max) = reference_parts(&column, &sel, 0);
            for segments in [1usize, 3, 16] {
                let schema = Schema::new(vec![Field::nullable("x", dtype)]).unwrap();
                let mut b = TableBuilder::new("t", schema)
                    .with_segment_rows(rows.len().div_ceil(segments).max(1));
                for row in 0..rows.len() {
                    b.push_row(&[column.value(row)]).unwrap();
                }
                let table = b.build().unwrap();
                let summary = table.column("x").unwrap().summary(&sel);
                prop_assert_eq!(&summary.to_parts(), &reference);
                let rebuilt = ColumnSummary::from_parts(reference.clone());
                let stats = table.column_stats("x", &sel).unwrap();
                prop_assert_eq!(stats_bits(&stats), stats_bits(&rebuilt.to_stats()));
                prop_assert_eq!(stats.min.map(f64::to_bits), min.map(f64::to_bits));
                prop_assert_eq!(stats.max.map(f64::to_bits), max.map(f64::to_bits));
            }
        }
    }

    /// One column of each type over `(raw, null roll, …)` rows, `raw %
    /// cardinality` picking the value: floats with both zeros, NaNs of both
    /// signs and another payload, and both infinities.
    fn mixed_table(rows: &[(i64, u8, u8, u8)], cardinality: i64, segments: usize) -> crate::Table {
        let schema = Schema::new(vec![
            Field::nullable("i", DataType::Int),
            Field::nullable("f", DataType::Float),
            Field::nullable("s", DataType::Str),
            Field::nullable("b", DataType::Bool),
        ])
        .unwrap();
        let segment_rows = rows.len().div_ceil(segments).max(1);
        let mut b = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
        for &(raw, null_roll, _, _) in rows {
            let v = raw % cardinality - 3;
            let f = match v {
                0 if raw % 2 == 0 => -0.0,
                5 => f64::NAN,
                6 => -f64::NAN,
                7 => f64::from_bits(0x7ff8_0000_0000_0001),
                8 => f64::INFINITY,
                9 => f64::NEG_INFINITY,
                v => v as f64 / 10.0,
            };
            let row = if null_roll == 0 {
                [Value::Null, Value::Null, Value::Null, Value::Null]
            } else {
                [
                    Value::Int(v),
                    Value::Float(f),
                    Value::Str(format!("v{v}")),
                    Value::Bool(v % 3 == 0),
                ]
            };
            b.push_row(&row).unwrap();
        }
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `without` is the walk of the rows it leaves: for nested random
        /// selections of every column type, coded and plain parts on both
        /// sides of the `u8` (256) and counter (1 024) lines, every segment
        /// layout — and `None` exactly when a side carries no counts.
        #[test]
        fn without_equals_walking_the_rows_left(
            rows in proptest::collection::vec((0i64..i64::MAX, 0u8..10, 0u8..8, 0u8..3), 0..4000),
            cardinality in prop_oneof![
                Just(1i64),
                Just(12i64),
                250i64..262,
                1000i64..1050,
                Just(1i64 << 40)
            ],
            segments in 1usize..=4,
        ) {
            let table = mixed_table(&rows, cardinality, segments);
            let outer = Bitmap::from_fn(rows.len(), |row| rows[row].2 != 0);
            let inner = Bitmap::from_fn(rows.len(), |row| rows[row].2 != 0 && rows[row].3 == 0);
            let left = outer.and(&inner.not());
            for col in table.columns() {
                let (whole, part) = (col.stats(&outer), col.stats(&inner));
                let counted = whole.value_counts.is_some() || whole.category_counts.is_some();
                match whole.without(&part) {
                    Some(derived) => {
                        let walked = col.stats(&left);
                        prop_assert!(counted, "{}", col.name());
                        prop_assert_eq!(stats_bits(&derived), stats_bits(&walked), "{}", col.name());
                        prop_assert_eq!(&derived.category_counts, &walked.category_counts);
                    }
                    None => prop_assert!(!counted, "{} declined with counts", col.name()),
                }
                // The other way round `part` would hold more than it has.
                if left.count() > 0 {
                    prop_assert!(part.without(&whole).is_none(), "{}", col.name());
                }
            }
        }
    }

    #[test]
    fn without_declines_integers_sharing_an_f64() {
        // 2⁵³ and 2⁵³ + 1 are one `f64`: the counts no longer say which.
        let big = 1i64 << 53;
        let column = Column::Int(vec![Some(big), Some(big + 1), Some(1), Some(big)].into());
        let whole = ColumnStats::compute(&column, &Bitmap::new_full(4));
        assert_eq!(whole.distinct_count, 3);
        let part = ColumnStats::compute(&column, &Bitmap::from_indices(4, [0]));
        assert_eq!(whole.without(&part), None);
        // Without the shared value the same subtraction is exact.
        let whole = ColumnStats::compute(&column, &Bitmap::from_indices(4, [0, 2, 3]));
        let left = ColumnStats::compute(&column, &Bitmap::from_indices(4, [2, 3]));
        assert_eq!(whole.without(&part).as_ref(), Some(&left));
        // A value `part` holds and `whole` lacks is not subtracted either.
        let whole = ColumnStats::compute(&column, &Bitmap::from_indices(4, [0, 3]));
        assert_eq!(whole.without(&left), None);
    }

    #[test]
    fn zeros_and_nans_follow_the_stated_min_max_rule() {
        let stats = |values: &[f64]| {
            let lanes: Vec<Option<f64>> = values.iter().copied().map(Some).collect();
            ColumnStats::compute(
                &Column::Float(lanes.into()),
                &Bitmap::new_full(values.len()),
            )
        };
        let bits = |s: &ColumnStats| (s.min.map(f64::to_bits), s.max.map(f64::to_bits));
        // Both zeros, in either row order: −0.0 is the minimum, +0.0 the maximum.
        for zeros in [[0.0, -0.0], [-0.0, 0.0]] {
            let s = stats(&zeros);
            assert_eq!(
                bits(&s),
                (Some((-0.0f64).to_bits()), Some(0.0f64.to_bits()))
            );
            assert_eq!(s.distinct_count, 2);
        }
        // NaNs of either sign are values but never an extreme …
        let s = stats(&[f64::NAN, 2.0, -f64::NAN, -1.0, f64::NAN]);
        assert_eq!((s.min, s.max), (Some(-1.0), Some(2.0)));
        assert_eq!((s.non_null_count, s.distinct_count), (5, 4));
        // … unless nothing else is there: then the total order picks.
        let s = stats(&[f64::NAN, -f64::NAN]);
        assert_eq!(
            bits(&s),
            (Some((-f64::NAN).to_bits()), Some(f64::NAN.to_bits()))
        );
    }

    #[test]
    fn the_counter_degrades_past_its_capacity_and_never_comes_back() {
        let ints = |range: std::ops::Range<i64>| {
            let lanes: Vec<Option<i64>> = range.flat_map(|x| [Some(x), Some(x)]).collect();
            let len = lanes.len();
            ColumnSummary::compute(&Column::Int(lanes.into()), &Bitmap::new_full(len), 0)
        };
        let capacity = ValueCounts::CAPACITY as i64;
        // Exactly the capacity: still counted, every value twice.
        let full = ints(0..capacity);
        let stats = full.to_stats();
        let counts = stats.value_counts.as_ref().expect("counted at capacity");
        assert_eq!(counts.len(), ValueCounts::CAPACITY);
        assert!(counts.iter().all(|&(_, n)| n == 2));
        assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
        // One value more: a plain set, same exact statistics otherwise.
        let over = ints(0..capacity + 1).to_stats();
        assert_eq!(over.value_counts, None);
        assert_eq!(over.distinct_count, ValueCounts::CAPACITY + 1);
        assert_eq!((over.min, over.max), (Some(0.0), Some(capacity as f64)));
        // Counted halves whose union fits add their counts …
        let mut merged = ints(0..capacity / 2);
        merged.merge_from(&ints(capacity / 4..capacity));
        let counts = merged.to_stats().value_counts.expect("union fits");
        assert_eq!(counts.len(), ValueCounts::CAPACITY);
        let doubled = counts.iter().filter(|&&(_, n)| n == 4).count();
        assert_eq!(doubled, ValueCounts::CAPACITY / 4);
        // … a union that does not fit degrades, and stays degraded whatever
        // is merged into it or it is merged into.
        merged.merge_from(&ints(capacity..capacity + 1));
        assert_eq!(merged.to_stats().value_counts, None);
        assert_eq!(merged.to_stats().distinct_count, ValueCounts::CAPACITY + 1);
        let mut small = ints(0..3);
        small.merge_from(&merged);
        assert_eq!(small.to_parts().counts, None);
        assert_eq!(small.to_stats().distinct_count, ValueCounts::CAPACITY + 1);
        assert_eq!(
            small.to_stats().non_null_count,
            merged.to_stats().non_null_count + 6
        );
    }

    #[test]
    fn the_category_counter_has_the_same_bound_and_degrades_the_same_way() {
        let column = |range: std::ops::Range<usize>| {
            let mut d = DictColumn::new();
            for i in range.clone().chain(range) {
                d.push(Some(&format!("v{i}")));
            }
            Column::Str(d)
        };
        let all = |range: std::ops::Range<usize>| {
            let column = column(range);
            ColumnSummary::compute(&column, &Bitmap::new_full(column.len()), 0)
        };
        let capacity = ValueCounts::CAPACITY;
        // Exactly the capacity: still counted, in dictionary order.
        let counts = all(0..capacity).to_stats().category_counts;
        let counts = counts.expect("counted at capacity");
        assert_eq!(counts.len(), capacity);
        assert_eq!(counts[0], ("v0".to_string(), 2));
        assert_eq!(counts[capacity - 1], (format!("v{}", capacity - 1), 2));
        // One value more: the plain set, the same exact statistics otherwise.
        let over = all(0..capacity + 1).to_stats();
        assert_eq!(over.category_counts, None);
        assert_eq!(over.distinct_count, capacity + 1);
        assert_eq!(over.non_null_count, 2 * capacity + 2);
        // The bound is on the dictionaries walked, not on the selection: one
        // selected row of a long dictionary is not counted either.
        let long = column(0..capacity + 1);
        let one = ColumnSummary::compute(&long, &Bitmap::from_indices(long.len(), [3]), 0);
        assert_eq!(one.to_stats().category_counts, None);
        assert_eq!(one.to_stats().distinct_count, 1);
        assert_eq!(
            one.to_parts().distinct,
            DistinctValues::Strs(vec!["v3".into()])
        );
        // Counted parts whose union fits add their counts, the later part
        // appending what it is first to hold …
        let mut merged = all(0..capacity / 2);
        merged.merge_from(&all(capacity / 4..capacity));
        let counts = merged.to_stats().category_counts.expect("union fits");
        assert_eq!(counts.len(), capacity);
        assert_eq!(counts.iter().filter(|(_, n)| *n == 4).count(), capacity / 4);
        assert!(counts
            .iter()
            .enumerate()
            .all(|(i, (v, _))| *v == format!("v{i}")));
        // … a union that does not fit degrades, and stays degraded whatever
        // is merged into it or it is merged into.
        merged.merge_from(&all(capacity..capacity + 1));
        assert_eq!(merged.to_stats().category_counts, None);
        assert_eq!(merged.to_stats().distinct_count, capacity + 1);
        let mut small = all(0..3);
        small.merge_from(&merged);
        assert_eq!(small.to_parts().counts, None);
        assert_eq!(small.to_stats().distinct_count, capacity + 1);
        assert_eq!(
            small.to_stats().non_null_count,
            merged.to_stats().non_null_count + 6
        );
    }

    #[test]
    fn colliding_keys_probe_around_the_end_of_the_table() {
        // Keys whose home is the last slot of the largest table: every probe
        // sequence wraps, through every table size on the way up.
        let shift = u64::BITS - (2 * ValueCounts::CAPACITY).trailing_zeros();
        let last = (2 * ValueCounts::CAPACITY - 1) as u64;
        let colliding: Vec<u64> = (0u64..)
            .filter(|key| key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift == last)
            .take(300)
            .collect();
        let mut counts = ValueCounts::default();
        for round in 1..=3u64 {
            for (i, &key) in colliding.iter().enumerate() {
                assert!(counts.add(key, i as u64 + 1));
                assert_eq!(counts.len, if round == 1 { i + 1 } else { 300 });
            }
        }
        let mut pairs: Vec<(u64, u64)> = counts.iter().collect();
        pairs.sort_unstable();
        let expected: Vec<(u64, u64)> = colliding
            .iter()
            .enumerate()
            .map(|(i, &key)| (key, 3 * (i as u64 + 1)))
            .collect();
        assert_eq!(pairs, expected);
        // Full is full: a resident key still counts, a new one is refused and
        // changes nothing.
        for key in (1u64 << 40..).take(ValueCounts::CAPACITY - 300) {
            assert!(counts.add(key, 1));
        }
        assert_eq!(counts.len, ValueCounts::CAPACITY);
        assert!(counts.add(colliding[0], 1));
        assert!(!counts.add(u64::MAX, 1));
        assert_eq!(counts.iter().count(), ValueCounts::CAPACITY);
        assert!(counts.slots.len() == 2 * ValueCounts::CAPACITY);
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
        assert_eq!(
            stats.value_counts,
            Some(vec![(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 1)])
        );
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
        assert_eq!(stats.value_counts, Some(vec![(10.0, 1), (40.0, 1)]));
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
        assert_eq!(stats.value_counts, None);
        assert_eq!(
            stats.category_counts,
            Some(vec![("true".to_string(), 2), ("false".to_string(), 1)])
        );
        // A value no selected row holds is listed with a zero and is not
        // distinct.
        let stats = ColumnStats::compute(&col, &Bitmap::from_indices(4, [0, 2, 3]));
        assert_eq!(stats.distinct_count, 1);
        assert_eq!(
            stats.category_counts,
            Some(vec![("true".to_string(), 2), ("false".to_string(), 0)])
        );
    }

    #[test]
    fn summaries_merge_exactly_across_splits() {
        // Split a column at arbitrary points; the folded summary must equal
        // the single-pass statistics on everything, value counts included
        // (values are shared across the split).
        let values: Vec<Option<i64>> = (0..200)
            .map(|i| if i % 9 == 0 { None } else { Some(i % 13) })
            .collect();
        let whole = Column::Int(values.clone().into());
        let reference = ColumnStats::compute(&whole, &Bitmap::new_full(200));
        assert_eq!(reference.distinct_count, 13);
        for split in [1usize, 63, 64, 65, 100, 199] {
            let left = Column::Int(values[..split].to_vec().into());
            let right = Column::Int(values[split..].to_vec().into());
            let sel = Bitmap::new_full(200);
            let mut folded = ColumnSummary::compute(&left, &sel, 0);
            folded.merge_from(&ColumnSummary::compute(&right, &sel, split));
            assert_eq!(folded.to_stats(), reference, "split {split}");
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
        // Numeric keys travel in ascending `u64` order with their counts.
        let parts = ColumnSummary::compute(&cols[0], &Bitmap::new_full(5), 0).to_parts();
        assert_eq!(
            parts.distinct,
            DistinctValues::Numbers(vec![3, 11, -7i64 as u64])
        );
        assert_eq!(parts.counts, Some(vec![2, 1, 1]));
        // Counts that are not one per value are dropped, not misapplied.
        let lopsided = ColumnSummary::from_parts(SummaryParts {
            counts: Some(vec![4]),
            ..parts
        });
        assert_eq!(lopsided.to_parts().counts, None);
        assert_eq!(lopsided.to_stats().distinct_count, 3);
        // Strings travel in dictionary order with a count each — the value no
        // selected row holds included — and deduplicate by value across
        // rebuilt dictionaries.
        let mut d = DictColumn::new();
        for s in ["b", "a", "b", "c"] {
            d.push(Some(s));
        }
        let col = Column::Str(d);
        let summary = ColumnSummary::compute(&col, &Bitmap::from_indices(4, [0, 2, 3]), 0);
        let parts = summary.to_parts();
        assert_eq!(
            parts.distinct,
            DistinctValues::Strs(vec!["b".into(), "a".into(), "c".into()])
        );
        assert_eq!(parts.counts, Some(vec![2, 0, 1]));
        assert_eq!(summary.to_stats().distinct_count, 2);
        assert_eq!(
            ColumnSummary::from_parts(parts.clone()).to_stats(),
            summary.to_stats()
        );
        // Without its counts a string set is the plain set of its values.
        let plain = ColumnSummary::from_parts(SummaryParts {
            counts: None,
            ..parts
        });
        assert_eq!(plain.to_stats().category_counts, None);
        assert_eq!(plain.to_stats().distinct_count, 3);
        assert_eq!(
            plain.to_parts().distinct,
            DistinctValues::Strs(vec!["a".into(), "b".into(), "c".into()])
        );
    }

    #[test]
    fn empty_selection_yields_zeroes() {
        let col = Column::Int(vec![Some(1), Some(2)].into());
        let stats = ColumnStats::compute(&col, &Bitmap::new_empty(2));
        assert_eq!(stats.non_null_count, 0);
        assert_eq!(stats.distinct_count, 0);
        assert_eq!(stats.min, None);
        assert_eq!(stats.value_counts, Some(Vec::new()));
        assert_eq!(stats.null_fraction(), 0.0);
        assert_eq!(stats.distinct_ratio(), 0.0);
    }
}
