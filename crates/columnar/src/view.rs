//! Table-spanning column views over segmented storage.
//!
//! A [`ColumnView`] is what [`crate::Table::column`] hands out: a lightweight
//! (`Copy`) handle addressing one schema column across every segment of a
//! table. It exposes the same scan kernels the monolithic `Column` offers —
//! range/set selection, one-pass partitioning, frequency counting, min/max,
//! null masks — but each kernel walks the segments **in row order**, operating
//! on the segment's slice of the table-wide selection bitmap
//! ([`Bitmap::for_each_one_in`] / [`Bitmap::filter_ones_in_into`]) and
//! assembling results in global row coordinates. Every kernel on this type
//! is therefore bit-for-bit independent of the segment layout. (Quantile
//! *sketches*, which live in the engine profile rather than here, are the
//! one ε-approximate exception — see `atlas-stats::gk`.)
//!
//! String columns are dictionary-encoded **per segment**: each kernel resolves
//! its value set against each segment's dictionary (one cheap lookup per
//! segment, never a per-row string comparison), and the merged first-appearance
//! order over all segments — [`ColumnView::dictionary`] — matches the order a
//! single table-wide dictionary would have produced.

use crate::bitmap::Bitmap;
use crate::colstats::{ColumnStats, ColumnSummary};
use crate::column::{Column, NULL_CODE};
use crate::error::{ColumnarError, Result};
use crate::kernels;
use crate::table::Table;
use crate::value::{DataType, Value};
use std::collections::{HashMap, HashSet};

/// A view of one column across every segment of a [`Table`].
#[derive(Clone, Copy)]
pub struct ColumnView<'a> {
    table: &'a Table,
    col: usize,
    dtype: DataType,
}

impl<'a> ColumnView<'a> {
    pub(crate) fn new(table: &'a Table, col: usize) -> Self {
        ColumnView {
            table,
            col,
            dtype: table.schema.fields()[col].dtype,
        }
    }

    /// The column name.
    pub fn name(&self) -> &'a str {
        &self.table.schema.fields()[self.col].name
    }

    /// The data type of the column.
    pub fn data_type(&self) -> DataType {
        self.dtype
    }

    /// Number of rows (the table's row count).
    pub fn len(&self) -> usize {
        self.table.num_rows
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.table.num_rows == 0
    }

    /// The column's segment-local parts, in row order, as
    /// `(global_offset, column)` pairs.
    pub fn parts(&self) -> impl Iterator<Item = (usize, &'a Column)> + '_ {
        self.table
            .segments
            .iter()
            .zip(self.table.offsets.iter())
            .map(move |(segment, &offset)| (offset, &segment.columns()[self.col]))
    }

    /// The segment-local column containing global `row`, with its offset.
    fn part_of(&self, row: usize) -> (usize, &'a Column) {
        let (offset, segment) = self.table.segment_of(row);
        (offset, &segment.columns()[self.col])
    }

    /// The value at `row` as a dynamically-typed [`Value`].
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn value(&self, row: usize) -> Value {
        let (offset, column) = self.part_of(row);
        column.value(row - offset)
    }

    /// Checked version of [`ColumnView::value`].
    pub fn try_value(&self, row: usize) -> Result<Value> {
        if row >= self.len() {
            return Err(ColumnarError::RowOutOfBounds {
                row,
                len: self.len(),
            });
        }
        Ok(self.value(row))
    }

    /// True if the value at `row` is NULL.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn is_null(&self, row: usize) -> bool {
        let (offset, column) = self.part_of(row);
        column.is_null(row - offset)
    }

    /// Number of NULL entries, served from the segments' cached statistics.
    pub fn null_count(&self) -> usize {
        self.table
            .segments
            .iter()
            .map(|s| s.column_stats(self.col).null_count)
            .sum()
    }

    /// Numeric view of the value at `row` (`None` for NULL or non-numeric).
    pub fn numeric(&self, row: usize) -> Option<f64> {
        let (offset, column) = self.part_of(row);
        column.numeric(row - offset)
    }

    /// Summary statistics over the selected rows: every segment scanned into
    /// one [`ColumnSummary`] — what merging per-segment summaries gives
    /// (a summary does not depend on how its rows were grouped), without the
    /// per-segment value sets.
    pub fn summary(&self, sel: &Bitmap) -> ColumnSummary {
        let mut acc = ColumnSummary::empty(self.dtype);
        for (offset, column) in self.parts() {
            acc.accumulate(column, sel, offset);
        }
        acc
    }

    /// [`ColumnView::summary`] collapsed into the public statistics form.
    ///
    /// String columns take a transient fast path: cross-segment distinct
    /// values are deduplicated through a set of `&str` **borrowed from the
    /// segment dictionaries**, so the per-query statistics of a drill-down
    /// working set allocate nothing per distinct value (the owned value sets
    /// of [`ColumnSummary`] are only materialised when a summary is retained,
    /// as the engine's table profile does).
    pub fn stats(&self, sel: &Bitmap) -> ColumnStats {
        if self.dtype == DataType::Str {
            let mut non_null = 0usize;
            let mut nulls = 0usize;
            let mut distinct: HashSet<&str> = HashSet::new();
            for (offset, column) in self.parts() {
                let d = column.as_dict().expect("schema says string column");
                let mut seen = vec![false; d.cardinality()];
                sel.for_each_one_in(offset, offset + d.len(), |idx| {
                    let code = d.code(idx - offset);
                    if code == NULL_CODE {
                        nulls += 1;
                    } else {
                        non_null += 1;
                        seen[code as usize] = true;
                    }
                });
                for (code, seen) in seen.into_iter().enumerate() {
                    if seen {
                        distinct.insert(d.dictionary()[code].as_str());
                    }
                }
            }
            return ColumnStats {
                dtype: DataType::Str,
                non_null_count: non_null,
                null_count: nulls,
                distinct_count: distinct.len(),
                min: None,
                max: None,
                value_counts: None,
            };
        }
        self.summary(sel).to_stats()
    }

    /// Collect the non-NULL numeric values for the rows selected by `sel`, in
    /// global row order. Non-numeric columns return an empty vector. This is
    /// the main scan kernel the `CUT` primitive relies on.
    pub fn numeric_values_where(&self, sel: &Bitmap) -> Vec<f64> {
        if !matches!(self.dtype, DataType::Int | DataType::Float) {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(sel.count().min(self.len()));
        for (offset, column) in self.parts() {
            kernels::numeric_values_part(column, offset, sel, &mut out);
        }
        out
    }

    /// Select the rows whose numeric value lies in `[lo, hi]` (inclusive),
    /// restricted to `sel`. NULLs never match. Non-numeric columns return an
    /// empty selection.
    ///
    /// Word-parallel kernel (see [`crate::kernels`]): each segment walks its
    /// slice of the selection word by word, validity comes from the null-mask
    /// words, and dense 64-row blocks classify with lane-wise compares
    /// assembled directly into the shared output bitmap.
    pub fn select_range(&self, sel: &Bitmap, lo: f64, hi: f64) -> Bitmap {
        let mut out = Bitmap::new_empty(sel.len());
        let bounds = [(lo, hi)];
        let spec = kernels::resolve_ranges(self.dtype, &bounds);
        for (offset, column) in self.parts() {
            kernels::select_ranges_part(
                column,
                offset,
                sel,
                &bounds,
                &spec,
                std::slice::from_mut(&mut out),
            );
        }
        out
    }

    /// Select the rows whose categorical value is in `values`, restricted to
    /// `sel`. For boolean columns the values `"true"` / `"false"` are
    /// honoured. NULLs never match. Numeric columns match on the decimal
    /// rendering of the value, so set predicates degrade gracefully on
    /// integers.
    pub fn select_in<S: AsRef<str>>(&self, sel: &Bitmap, values: &[S]) -> Bitmap {
        self.select_in_iter(sel, values.iter().map(S::as_ref))
    }

    /// [`ColumnView::select_in`] over a borrowed value iterator (no value-set
    /// clone required).
    ///
    /// The value set is resolved once per segment — to that segment's
    /// dictionary codes for string columns (membership is then one indexed
    /// load per row, never a string comparison) — and once overall for the
    /// other types.
    pub fn select_in_iter<'v, I>(&self, sel: &Bitmap, values: I) -> Bitmap
    where
        I: IntoIterator<Item = &'v str>,
    {
        let mut out = Bitmap::new_empty(sel.len());
        match self.dtype {
            DataType::Str => {
                let values: Vec<&str> = values.into_iter().collect();
                for (offset, column) in self.parts() {
                    let d = column.as_dict().expect("schema says string column");
                    let mut codes: Vec<u32> = values.iter().filter_map(|v| d.code_of(v)).collect();
                    if codes.is_empty() {
                        continue;
                    }
                    codes.sort_unstable();
                    let end = offset + d.len();
                    sel.filter_ones_in_into(offset, end, &mut out, |idx| {
                        let code = d.code(idx - offset);
                        code != NULL_CODE && codes.binary_search(&code).is_ok()
                    });
                }
            }
            DataType::Bool => {
                let mut want_true = false;
                let mut want_false = false;
                for s in values {
                    want_true |= s.eq_ignore_ascii_case("true");
                    want_false |= s.eq_ignore_ascii_case("false");
                }
                for (offset, column) in self.parts() {
                    let Column::Bool(v) = column else { continue };
                    let end = offset + v.len();
                    sel.filter_ones_in_into(offset, end, &mut out, |idx| {
                        match v.get(idx - offset) {
                            Some(true) => want_true,
                            Some(false) => want_false,
                            None => false,
                        }
                    });
                }
            }
            DataType::Int => {
                // Parse the value set once; the round-trip check keeps the
                // semantics of decimal-rendering equality (e.g. "007" or "+7"
                // still never match the value 7).
                let wanted: Vec<i64> = values
                    .into_iter()
                    .filter_map(|s| s.parse::<i64>().ok().filter(|x| x.to_string() == s))
                    .collect();
                if wanted.is_empty() {
                    return out;
                }
                for (offset, column) in self.parts() {
                    let Column::Int(v) = column else { continue };
                    let end = offset + v.len();
                    sel.filter_ones_in_into(offset, end, &mut out, |idx| {
                        match v.get(idx - offset) {
                            Some(x) => wanted.contains(&x),
                            None => false,
                        }
                    });
                }
            }
            DataType::Float => {
                let wanted: HashSet<&str> = values.into_iter().collect();
                if wanted.is_empty() {
                    return out;
                }
                for (offset, column) in self.parts() {
                    let Column::Float(v) = column else { continue };
                    let end = offset + v.len();
                    sel.filter_ones_in_into(offset, end, &mut out, |idx| {
                        match v.get(idx - offset) {
                            Some(x) => wanted.contains(x.to_string().as_str()),
                            None => false,
                        }
                    });
                }
            }
        }
        out
    }

    /// Partition the selected rows into one selection per numeric range, in a
    /// **single pass** over the column (instead of one
    /// [`ColumnView::select_range`] scan per region).
    ///
    /// `bounds` are inclusive `[lo, hi]` intervals and must be pairwise
    /// disjoint (each row is assigned to the first interval containing its
    /// value — for disjoint intervals, the only one). NULLs fall into no
    /// region; non-numeric columns return all-empty selections.
    ///
    /// The bounds are resolved once (for integer columns: to the exact `i64`
    /// intervals matching the `f64` semantics) and each segment runs the
    /// word-parallel partition kernel of [`crate::kernels`];
    /// `ATLAS_FORCE_SCALAR=1` selects the one-row-at-a-time reference.
    pub fn select_ranges(&self, sel: &Bitmap, bounds: &[(f64, f64)]) -> Vec<Bitmap> {
        let mut out: Vec<Bitmap> = bounds
            .iter()
            .map(|_| Bitmap::new_empty(sel.len()))
            .collect();
        let spec = kernels::resolve_ranges(self.dtype, bounds);
        for (offset, column) in self.parts() {
            kernels::select_ranges_part(column, offset, sel, bounds, &spec, &mut out);
        }
        out
    }

    /// Partition the selected rows into one selection per value group, in a
    /// **single pass** over the column (instead of one
    /// [`ColumnView::select_in`] scan per group).
    ///
    /// Groups must be pairwise disjoint value sets. String columns resolve
    /// every group against each segment's dictionary once (a code→group
    /// table, or lane-wise range compares when the dictionary is sorted and
    /// the groups are contiguous code ranges); boolean columns honour
    /// `"true"` / `"false"`; numeric columns resolve a combined value→group
    /// map once and classify in the same single pass (no per-group rescans).
    pub fn select_in_groups(&self, sel: &Bitmap, groups: &[Vec<String>]) -> Vec<Bitmap> {
        let mut out: Vec<Bitmap> = groups
            .iter()
            .map(|_| Bitmap::new_empty(sel.len()))
            .collect();
        let spec = kernels::resolve_groups(self.dtype, groups);
        for (offset, column) in self.parts() {
            kernels::select_in_groups_part(column, offset, sel, groups, &spec, &mut out);
        }
        out
    }

    /// The rows holding a non-NULL value, as a bitmap over the table's rows
    /// (the inverted null mask), assembled a word at a time per segment.
    pub fn non_null_mask(&self) -> Bitmap {
        let mut out = Bitmap::new_empty(self.len());
        for (offset, column) in self.parts() {
            let end = offset + column.len();
            match column {
                Column::Int(v) => {
                    out.fill_range_from_fn(offset, end, |idx| v.validity().get(idx - offset))
                }
                Column::Float(v) => {
                    out.fill_range_from_fn(offset, end, |idx| v.validity().get(idx - offset))
                }
                Column::Bool(v) => {
                    out.fill_range_from_fn(offset, end, |idx| v.validity().get(idx - offset))
                }
                Column::Str(d) => {
                    out.fill_range_from_fn(offset, end, |idx| d.code(idx - offset) != NULL_CODE)
                }
            }
        }
        out
    }

    /// The distinct categorical values of the rows selected by `sel`, ordered
    /// by decreasing frequency (ties broken by first appearance over the
    /// whole column — the order a single table-wide dictionary would give).
    ///
    /// Numeric columns return an empty vector.
    pub fn categories_by_frequency(&self, sel: &Bitmap) -> Vec<(String, usize)> {
        rank_categories_by_frequency(self.category_counts(sel))
    }

    /// The raw per-category selected counts, one `(value, count)` pair per
    /// distinct value in **global first-appearance order**, *including zero
    /// counts* — the mergeable precursor of
    /// [`ColumnView::categories_by_frequency`].
    ///
    /// Per-range count vectors fold with [`merge_category_counts`] (in row
    /// order) into exactly the vector this method computes over the union of
    /// the ranges, and [`rank_categories_by_frequency`] turns the folded
    /// vector into the final frequency ranking — which is how a distributed
    /// coordinator reproduces the local ranking bit for bit from per-shard
    /// counts. Numeric columns return an empty vector.
    pub fn category_counts(&self, sel: &Bitmap) -> Vec<(String, usize)> {
        match self.dtype {
            DataType::Str => {
                // (value, selected count) in global first-appearance order:
                // walking segment dictionaries in row order visits values
                // exactly in the order a shared dictionary would have interned
                // them.
                let mut order: Vec<(String, usize)> = Vec::new();
                let mut index: HashMap<String, usize> = HashMap::new();
                for (offset, column) in self.parts() {
                    let d = column.as_dict().expect("schema says string column");
                    // The extra trailing slot absorbs NULL lanes (see
                    // `count_codes_part`); only the real codes are merged.
                    let mut counts = vec![0usize; d.cardinality() + 1];
                    kernels::count_codes_part(d, offset, sel, &mut counts);
                    for (code, value) in d.dictionary().iter().enumerate() {
                        match index.get(value.as_str()) {
                            Some(&pos) => order[pos].1 += counts[code],
                            None => {
                                index.insert(value.clone(), order.len());
                                order.push((value.clone(), counts[code]));
                            }
                        }
                    }
                }
                order
            }
            DataType::Bool => {
                let mut t = 0usize;
                let mut f = 0usize;
                for (offset, column) in self.parts() {
                    let Column::Bool(v) = column else { continue };
                    let end = offset + v.len();
                    sel.for_each_one_in(offset, end, |idx| match v.get(idx - offset) {
                        Some(true) => t += 1,
                        Some(false) => f += 1,
                        None => {}
                    });
                }
                vec![("true".to_string(), t), ("false".to_string(), f)]
            }
            _ => Vec::new(),
        }
    }

    /// Minimum and maximum of the non-NULL numeric values selected by `sel`.
    pub fn numeric_min_max(&self, sel: &Bitmap) -> Option<(f64, f64)> {
        if !matches!(self.dtype, DataType::Int | DataType::Float) {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut seen = false;
        for (offset, column) in self.parts() {
            let end = offset + column.len();
            match column {
                Column::Int(v) => sel.for_each_one_in(offset, end, |idx| {
                    if let Some(x) = v.get(idx - offset) {
                        let x = x as f64;
                        min = min.min(x);
                        max = max.max(x);
                        seen = true;
                    }
                }),
                Column::Float(v) => sel.for_each_one_in(offset, end, |idx| {
                    if let Some(x) = v.get(idx - offset) {
                        min = min.min(x);
                        max = max.max(x);
                        seen = true;
                    }
                }),
                _ => {}
            }
        }
        seen.then_some((min, max))
    }

    /// The distinct values of a string column in **global first-appearance
    /// order** — the order a single table-wide dictionary would list them.
    /// Non-string columns return an empty vector.
    pub fn dictionary(&self) -> Vec<String> {
        if self.dtype != DataType::Str {
            return Vec::new();
        }
        let mut order: Vec<String> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for (_, column) in self.parts() {
            let d = column.as_dict().expect("schema says string column");
            for value in d.dictionary() {
                if !seen.contains(value.as_str()) {
                    seen.insert(value.clone());
                    order.push(value.clone());
                }
            }
        }
        order
    }

    /// Per-row codes of a string column against the merged global dictionary
    /// ([`ColumnView::dictionary`] order), with [`NULL_CODE`] for NULLs — the
    /// label vector clustering-quality metrics consume. Non-string columns
    /// return an empty vector.
    pub fn category_codes(&self) -> Vec<u32> {
        if self.dtype != DataType::Str {
            return Vec::new();
        }
        let mut out = vec![NULL_CODE; self.len()];
        let mut global: HashMap<String, u32> = HashMap::new();
        for (offset, column) in self.parts() {
            let d = column.as_dict().expect("schema says string column");
            // Segment code → global code, resolved once per segment.
            let translate: Vec<u32> = d
                .dictionary()
                .iter()
                .map(|value| {
                    if let Some(&code) = global.get(value.as_str()) {
                        code
                    } else {
                        let code = global.len() as u32;
                        global.insert(value.clone(), code);
                        code
                    }
                })
                .collect();
            for local in 0..d.len() {
                let code = d.code(local);
                if code != NULL_CODE {
                    out[offset + local] = translate[code as usize];
                }
            }
        }
        out
    }
}

/// Fold one more per-range category count vector (`next`, covering the rows
/// **after** everything already folded into `acc`) into an accumulator, both
/// in the first-appearance order of [`ColumnView::category_counts`].
///
/// Known values add their counts; new values append — exactly what
/// [`ColumnView::category_counts`] does when it walks the next segment's
/// dictionary, so folding per-range vectors in row order reproduces the
/// whole-column vector, order included.
pub fn merge_category_counts(acc: &mut Vec<(String, usize)>, next: &[(String, usize)]) {
    let mut index: HashMap<String, usize> = acc
        .iter()
        .enumerate()
        .map(|(pos, (value, _))| (value.clone(), pos))
        .collect();
    for (value, count) in next {
        match index.get(value.as_str()) {
            Some(&pos) => acc[pos].1 += count,
            None => {
                index.insert(value.clone(), acc.len());
                acc.push((value.clone(), *count));
            }
        }
    }
}

/// Collapse a [`ColumnView::category_counts`] vector into the
/// [`ColumnView::categories_by_frequency`] ranking: drop zero counts, then
/// stable-sort by decreasing count (ties keep first-appearance order).
pub fn rank_categories_by_frequency(counts: Vec<(String, usize)>) -> Vec<(String, usize)> {
    let mut pairs: Vec<(String, usize)> = counts.into_iter().filter(|(_, n)| *n > 0).collect();
    pairs.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    pairs
}

impl std::fmt::Debug for ColumnView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnView")
            .field("name", &self.name())
            .field("dtype", &self.dtype)
            .field("len", &self.len())
            .field("segments", &self.table.num_segments())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;
    use crate::schema::{Field, Schema};

    /// A mixed-type table built with a tiny segment size so every kernel
    /// crosses segment boundaries (including unaligned ones: 7 rows per
    /// segment straddles the 64-bit word boundaries of the selection bitmaps).
    fn segmented_table(rows: usize, segment_rows: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("c", DataType::Str),
            Field::new("b", DataType::Bool),
        ])
        .unwrap();
        let mut builder = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
        for i in 0..rows {
            let x = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int((i % 50) as i64)
            };
            let c = ["red", "green", "blue", "red", "green"][i % 5];
            builder
                .push_row(&[
                    x,
                    Value::Float(i as f64 / 3.0),
                    Value::Str(c.to_string()),
                    Value::Bool(i % 3 == 0),
                ])
                .unwrap();
        }
        builder.build().unwrap()
    }

    /// The same data in one segment, as the reference.
    fn reference_table(rows: usize) -> Table {
        segmented_table(rows, usize::MAX)
    }

    #[test]
    fn kernels_are_identical_across_segment_layouts() {
        let rows = 200;
        let reference = reference_table(rows);
        for segment_rows in [7usize, 64, 100, 199] {
            let segmented = segmented_table(rows, segment_rows);
            assert!(segmented.num_segments() > 1, "segment_rows={segment_rows}");
            let sel = Bitmap::from_indices(rows, (0..rows).filter(|i| i % 3 != 1));
            for name in ["x", "f", "c", "b"] {
                let a = reference.column(name).unwrap();
                let b = segmented.column(name).unwrap();
                assert_eq!(
                    a.numeric_values_where(&sel),
                    b.numeric_values_where(&sel),
                    "{name} @ {segment_rows}"
                );
                assert_eq!(
                    a.select_range(&sel, 5.0, 30.0),
                    b.select_range(&sel, 5.0, 30.0)
                );
                assert_eq!(
                    a.select_in(
                        &sel,
                        &["red".to_string(), "true".to_string(), "7".to_string()]
                    ),
                    b.select_in(
                        &sel,
                        &["red".to_string(), "true".to_string(), "7".to_string()]
                    )
                );
                assert_eq!(
                    a.select_ranges(&sel, &[(0.0, 10.0), (10.5, 40.0)]),
                    b.select_ranges(&sel, &[(0.0, 10.0), (10.5, 40.0)])
                );
                assert_eq!(
                    a.select_in_groups(
                        &sel,
                        &[
                            vec!["red".to_string()],
                            vec!["green".to_string(), "blue".to_string()]
                        ]
                    ),
                    b.select_in_groups(
                        &sel,
                        &[
                            vec!["red".to_string()],
                            vec!["green".to_string(), "blue".to_string()]
                        ]
                    )
                );
                assert_eq!(a.non_null_mask(), b.non_null_mask(), "{name}");
                assert_eq!(
                    a.categories_by_frequency(&sel),
                    b.categories_by_frequency(&sel)
                );
                assert_eq!(a.numeric_min_max(&sel), b.numeric_min_max(&sel));
                assert_eq!(a.null_count(), b.null_count());
                let sa = a.stats(&sel);
                let sb = b.stats(&sel);
                assert_eq!(sa.non_null_count, sb.non_null_count);
                assert_eq!(sa.null_count, sb.null_count);
                assert_eq!(sa.distinct_count, sb.distinct_count, "{name}");
                assert_eq!(sa.min, sb.min);
                assert_eq!(sa.max, sb.max);
                for row in [0usize, 63, 64, rows - 1] {
                    assert_eq!(a.value(row), b.value(row));
                    assert_eq!(a.is_null(row), b.is_null(row));
                    assert_eq!(a.numeric(row), b.numeric(row));
                }
            }
            assert_eq!(
                reference.column("c").unwrap().dictionary(),
                segmented.column("c").unwrap().dictionary()
            );
            assert_eq!(
                reference.column("c").unwrap().category_codes(),
                segmented.column("c").unwrap().category_codes()
            );
        }
    }

    #[test]
    fn per_segment_category_counts_fold_into_the_whole_column_ranking() {
        // The distributed contract: category counts computed per segment (on
        // single-segment tables, as a shard would) and folded in row order
        // with `merge_category_counts` equal the whole-column counts, and
        // ranking the folded vector equals `categories_by_frequency`.
        let table = segmented_table(200, 7);
        let sel = Bitmap::from_indices(200, (0..200).filter(|i| i % 3 != 1));
        for name in ["c", "b", "x"] {
            let whole = table.column(name).unwrap();
            let mut folded: Vec<(String, usize)> = Vec::new();
            for (seg_idx, segment) in table.segments().iter().enumerate() {
                let offset = table.segment_offset(seg_idx);
                let single = Table::from_segments(
                    table.name(),
                    table.schema().clone(),
                    vec![std::sync::Arc::clone(segment)],
                )
                .unwrap();
                let local_sel = Bitmap::from_indices(
                    segment.num_rows(),
                    (0..segment.num_rows()).filter(|i| sel.get(offset + i)),
                );
                let part = single.column(name).unwrap().category_counts(&local_sel);
                merge_category_counts(&mut folded, &part);
            }
            assert_eq!(folded, whole.category_counts(&sel), "{name}");
            assert_eq!(
                rank_categories_by_frequency(folded),
                whole.categories_by_frequency(&sel),
                "{name}"
            );
        }
    }

    #[test]
    fn view_accessors_and_bounds() {
        let t = segmented_table(20, 6);
        let x = t.column("x").unwrap();
        assert_eq!(x.name(), "x");
        assert_eq!(x.data_type(), DataType::Int);
        assert_eq!(x.len(), 20);
        assert!(!x.is_empty());
        assert!(x.try_value(19).is_ok());
        assert!(matches!(
            x.try_value(20),
            Err(ColumnarError::RowOutOfBounds { .. })
        ));
        assert!(format!("{x:?}").contains("ColumnView"));
        // Non-string columns have no dictionary or category codes.
        assert!(x.dictionary().is_empty());
        assert!(x.category_codes().is_empty());
        // String dictionary merges per-segment dictionaries in order.
        let c = t.column("c").unwrap();
        assert_eq!(c.dictionary(), vec!["red", "green", "blue"]);
        let codes = c.category_codes();
        assert_eq!(codes.len(), 20);
        assert_eq!(codes[0], 0, "first row is red");
        assert_eq!(codes[1], 1, "second row is green");
    }

    #[test]
    fn select_range_pins_nan_and_inverted_bound_semantics() {
        // Satellite regression: pin the current inclusive-bound behaviour
        // before (and after) the kernels went per-segment.
        for segment_rows in [usize::MAX, 3] {
            let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
            let mut b = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
            for v in [1.0, f64::NAN, 2.0, 3.0, f64::NAN, 4.0] {
                b.push_row(&[Value::Float(v)]).unwrap();
            }
            let t = b.build().unwrap();
            let col = t.column("v").unwrap();
            let all = t.full_selection();
            // NaN values never match a range.
            assert_eq!(
                col.select_range(&all, f64::NEG_INFINITY, f64::INFINITY)
                    .to_indices(),
                vec![0, 2, 3, 5],
                "segment_rows={segment_rows}"
            );
            // Bounds are inclusive on both ends.
            assert_eq!(col.select_range(&all, 2.0, 3.0).to_indices(), vec![2, 3]);
            // Inverted bounds select nothing.
            assert!(col.select_range(&all, 3.0, 2.0).is_all_clear());
            // NaN bounds select nothing.
            assert!(col.select_range(&all, f64::NAN, 10.0).is_all_clear());
            assert!(col.select_range(&all, 0.0, f64::NAN).is_all_clear());
            // One-pass partitioning agrees on the same edge cases.
            let parts = col.select_ranges(&all, &[(3.0, 2.0), (2.0, 3.0)]);
            assert!(parts[0].is_all_clear());
            assert_eq!(parts[1].to_indices(), vec![2, 3]);
        }
    }
}
