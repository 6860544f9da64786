//! Column views: the one method set every scan goes through.
//!
//! The rule of the crate: a [`Column`] **stores**, [`crate::kernels`] **scans
//! one part**, and [`ColumnView`] **is the method set** — range/set selection,
//! one-pass partitioning, frequency counting, min/max, null masks, summary
//! statistics. A new column encoding is taught to `kernels.rs` and to
//! [`ColumnSummary::accumulate`] only; nothing here looks inside a column.
//!
//! A [`ColumnView`] is what [`crate::Table::column`] hands out: a lightweight
//! (`Copy`) handle addressing one schema column across every segment of a
//! table. Each kernel walks the segments **in row order**, operating on the
//! segment's slice of the table-wide selection bitmap and assembling results
//! in global row coordinates, so every kernel on this type is bit-for-bit
//! independent of the segment layout. A lone segment-local column is the
//! one-part case ([`ColumnView::of_column`]), addressed in its own row
//! coordinates: what a per-segment task computes there folds, in row order,
//! into exactly what the table-wide view computes.
//!
//! String columns are dictionary-encoded **per segment**: each kernel resolves
//! its value set against each segment's dictionary (one lookup per dictionary
//! entry, never a per-row string comparison), and the merged first-appearance
//! order over all segments — [`ColumnView::dictionary`] — matches the order a
//! single table-wide dictionary would have produced.

use crate::bitmap::Bitmap;
use crate::colstats::{widen, CategorySet, ColumnStats, ColumnSummary};
use crate::column::Column;
use crate::kernels;
use crate::table::Table;
use crate::value::{DataType, Value};
use std::collections::{HashMap, HashSet};

/// A view of one column: across every segment of a [`Table`], or over one
/// segment-local [`Column`].
#[derive(Clone, Copy)]
pub struct ColumnView<'a> {
    name: &'a str,
    dtype: DataType,
    len: usize,
    source: Source<'a>,
}

/// Where the parts of a view are.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// The schema column at this position in every segment of the table, each
    /// at its segment's global offset.
    Table(&'a Table, usize),
    /// One column, at offset 0.
    Column(&'a Column),
}

impl<'a> ColumnView<'a> {
    pub(crate) fn new(table: &'a Table, col: usize) -> Self {
        let field = &table.schema.fields()[col];
        ColumnView {
            name: &field.name,
            dtype: field.dtype,
            len: table.num_rows,
            source: Source::Table(table, col),
        }
    }

    /// A view of one segment-local column in that column's own row
    /// coordinates: the one-part case of a table-wide view, with the same
    /// kernels over selections of `column.len()` rows. Nothing is copied.
    pub fn of_column(name: &'a str, column: &'a Column) -> Self {
        ColumnView {
            name,
            dtype: column.data_type(),
            len: column.len(),
            source: Source::Column(column),
        }
    }

    /// The column name.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// The data type of the column.
    pub fn data_type(&self) -> DataType {
        self.dtype
    }

    /// Number of rows (the table's row count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn num_parts(&self) -> usize {
        match self.source {
            Source::Table(table, _) => table.segments.len(),
            Source::Column(_) => 1,
        }
    }

    /// The column's segment-local parts, in row order, as
    /// `(global_offset, column)` pairs.
    pub fn parts(&self) -> impl Iterator<Item = (usize, &'a Column)> + '_ {
        (0..self.num_parts()).map(|idx| match self.source {
            Source::Table(table, col) => (table.offsets[idx], table.segments[idx].column(col)),
            Source::Column(column) => (0, column),
        })
    }

    /// The segment-local column containing global `row`, with its offset.
    fn part_of(&self, row: usize) -> (usize, &'a Column) {
        match self.source {
            Source::Table(table, col) => {
                let (offset, segment) = table.segment_of(row);
                (offset, segment.column(col))
            }
            Source::Column(column) => (0, column),
        }
    }

    /// The value at `row` as a dynamically-typed [`Value`].
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn value(&self, row: usize) -> Value {
        let (offset, column) = self.part_of(row);
        column.value(row - offset)
    }

    /// True if the value at `row` is NULL.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn is_null(&self, row: usize) -> bool {
        let (offset, column) = self.part_of(row);
        column.is_null(row - offset)
    }

    /// Number of NULL entries: the parts' own counts, no value is read.
    pub fn null_count(&self) -> usize {
        self.parts().map(|(_, column)| column.null_count()).sum()
    }

    /// Numeric view of the value at `row` (`None` for NULL or non-numeric).
    pub fn numeric(&self, row: usize) -> Option<f64> {
        let (offset, column) = self.part_of(row);
        column.numeric(row - offset)
    }

    /// Summary statistics over the selected rows: every segment scanned, in
    /// row order, into one [`ColumnSummary`] — what merging per-segment
    /// summaries in that order gives, without the per-segment value sets.
    pub fn summary(&self, sel: &Bitmap) -> ColumnSummary {
        let mut acc = ColumnSummary::empty(self.dtype);
        for (offset, column) in self.parts() {
            acc.accumulate(column, sel, offset);
        }
        acc
    }

    /// [`ColumnView::summary`] collapsed into the public statistics form —
    /// category counts included, so a categorical cut needs no second walk of
    /// the column ([`ColumnStats::category_counts`]).
    ///
    /// String columns take a transient fast path: the same per-part code
    /// counts, folded into a category set of `&str` **borrowed from the
    /// segment dictionaries**, so the per-query statistics of a drill-down
    /// working set allocate nothing per distinct value of a name-like column
    /// (the owned value sets of [`ColumnSummary`] are only materialised when a
    /// summary is retained, as the engine's table profile does).
    pub fn stats(&self, sel: &Bitmap) -> ColumnStats {
        if self.dtype != DataType::Str {
            return self.summary(sel).to_stats();
        }
        let (mut non_null_count, mut null_count) = (0, 0);
        let mut categories: CategorySet<&str> = CategorySet::new();
        for (offset, column) in self.parts() {
            let (non_null, nulls) = categories.count_part(column, offset, sel);
            non_null_count += non_null;
            null_count += nulls;
        }
        ColumnStats {
            dtype: DataType::Str,
            non_null_count,
            null_count,
            distinct_count: categories.distinct_len(),
            min: None,
            max: None,
            value_counts: None,
            category_counts: categories.category_counts(),
        }
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
    /// empty selection. The one-bound case of [`ColumnView::select_ranges`].
    pub fn select_range(&self, sel: &Bitmap, lo: f64, hi: f64) -> Bitmap {
        let mut regions = self.select_ranges(sel, &[(lo, hi)]);
        regions.pop().expect("one selection per bound")
    }

    /// Select the rows whose categorical value is in `values`, restricted to
    /// `sel`. For boolean columns the values `"true"` / `"false"` are
    /// honoured. NULLs never match. Numeric columns match on the decimal
    /// rendering of the value, so set predicates degrade gracefully on
    /// integers.
    pub fn select_in<S: AsRef<str>>(&self, sel: &Bitmap, values: &[S]) -> Bitmap {
        self.select_in_iter(sel, values.iter().map(S::as_ref))
    }

    /// [`ColumnView::select_in`] over a borrowed value iterator: the one-group
    /// case of [`ColumnView::select_in_groups`]. A segment whose dictionary
    /// holds none of the values is not scanned.
    pub fn select_in_iter<'v, I>(&self, sel: &Bitmap, values: I) -> Bitmap
    where
        I: IntoIterator<Item = &'v str>,
    {
        let group: Vec<String> = values.into_iter().map(str::to_string).collect();
        let mut regions = self.select_in_groups(sel, std::slice::from_ref(&group));
        regions.pop().expect("one selection per group")
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
    /// Groups must be pairwise disjoint value sets; a value listed in more
    /// than one belongs to the **first** group that lists it, whatever the
    /// column type. The groups resolve once into a value→group map; a part
    /// stored as dictionary codes — every string part, a sealed numeric part
    /// with few distinct values — looks each dictionary entry up once and
    /// partitions its rows by code, 64 at a time; boolean columns honour
    /// `"true"` / `"false"`; plain numeric parts look every row up in the same
    /// single pass (no per-group rescans).
    pub fn select_in_groups(&self, sel: &Bitmap, groups: &[Vec<String>]) -> Vec<Bitmap> {
        let mut out: Vec<Bitmap> = groups
            .iter()
            .map(|_| Bitmap::new_empty(sel.len()))
            .collect();
        let spec = kernels::resolve_groups(self.dtype, groups);
        for (offset, column) in self.parts() {
            kernels::select_in_groups_part(column, offset, sel, &spec, &mut out);
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
    ///
    /// [`ColumnView::stats`] already holds this vector
    /// ([`ColumnStats::category_counts`]) for every column whose dictionaries
    /// fit its counter; a separate walk is only for the columns past it.
    pub fn category_counts(&self, sel: &Bitmap) -> Vec<(String, usize)> {
        match self.dtype {
            DataType::Str => {
                // (value, selected count) in global first-appearance order:
                // walking segment dictionaries in row order visits values
                // exactly in the order a shared dictionary would have interned
                // them.
                let mut order: Vec<(String, usize)> = Vec::new();
                let mut index: HashMap<&str, usize> = HashMap::new();
                for (offset, column) in self.parts() {
                    kernels::count_values_part(column, offset, sel, |value, count| {
                        match index.get(value) {
                            Some(&pos) => order[pos].1 += count,
                            None => {
                                index.insert(value, order.len());
                                order.push((value.to_string(), count));
                            }
                        }
                    });
                }
                order
            }
            DataType::Bool => self.stats(sel).category_counts.unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// Minimum and maximum of the non-NULL numeric values selected by `sel`,
    /// by the rule [`ColumnStats::min`] follows (see [`crate::colstats`]): the
    /// extremes of the non-NaN values, a NaN only when nothing else is
    /// selected. `None` when no value is, and for non-numeric columns.
    pub fn numeric_min_max(&self, sel: &Bitmap) -> Option<(f64, f64)> {
        let mut ends = None;
        for (offset, column) in self.parts() {
            kernels::for_each_numeric_part(column, offset, sel, |x| ends = Some(widen(ends, x)));
        }
        ends
    }

    /// The distinct values of a string column in **global first-appearance
    /// order** — the order a single table-wide dictionary would list them.
    /// Non-string columns return an empty vector.
    pub fn dictionary(&self) -> Vec<String> {
        if self.dtype != DataType::Str {
            return Vec::new();
        }
        let mut order: Vec<String> = Vec::new();
        let mut seen: HashSet<&str> = HashSet::new();
        for (_, column) in self.parts() {
            for value in kernels::dictionary_part(column) {
                if seen.insert(value) {
                    order.push(value.clone());
                }
            }
        }
        order
    }

    /// Per-row codes of a string column against the merged global dictionary
    /// ([`ColumnView::dictionary`] order) — the label vector clustering-quality
    /// metrics consume. A NULL row gets the label `u32::MAX`, which no
    /// dictionary entry has: NULLs form a class of their own. Non-string
    /// columns return an empty vector.
    pub fn category_codes(&self) -> Vec<u32> {
        if self.dtype != DataType::Str {
            return Vec::new();
        }
        let mut out = vec![u32::MAX; self.len()];
        let mut global: HashMap<&str, u32> = HashMap::new();
        for (offset, column) in self.parts() {
            // Segment code → global code, resolved once per segment.
            let translate: Vec<u32> = kernels::dictionary_part(column)
                .iter()
                .map(|value| {
                    let next = global.len() as u32;
                    *global.entry(value).or_insert(next)
                })
                .collect();
            kernels::category_codes_part(column, &translate, &mut out[offset..]);
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
            .field("segments", &self.num_parts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;
    use crate::kernels::{with_kernel_path, KernelPath};
    use crate::schema::{Field, Schema};
    use proptest::prelude::*;

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
                assert_eq!(
                    a.categories_by_frequency(&sel),
                    b.categories_by_frequency(&sel)
                );
                assert_eq!(a.numeric_min_max(&sel), b.numeric_min_max(&sel));
                assert_eq!(a.null_count(), b.null_count());
                // The profile's contract: what each segment's one-part view
                // computes in the segment's own row coordinates folds, in row
                // order, into the table-wide answer.
                let mut summary = ColumnSummary::empty(b.data_type());
                let mut values = Vec::new();
                let mut counts = Vec::new();
                for (offset, column) in b.parts() {
                    let part = ColumnView::of_column(name, column);
                    let local = Bitmap::from_fn(part.len(), |row| sel.get(offset + row));
                    summary.merge_from(&part.summary(&local));
                    values.extend(part.numeric_values_where(&local));
                    merge_category_counts(&mut counts, &part.category_counts(&local));
                }
                assert_eq!(summary.to_parts(), b.summary(&sel).to_parts(), "{name}");
                assert_eq!(values, b.numeric_values_where(&sel), "{name}");
                assert_eq!(counts, b.category_counts(&sel), "{name}");
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
                let offset = table.offsets[seg_idx];
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

    #[test]
    fn numeric_min_max_follows_the_summary_rule() {
        // One min/max rule in the crate: whatever `stats` says, bit for bit —
        // the extremes of the non-NaN values, a NaN only when nothing else is
        // selected (that case used to come back as `(inf, -inf)`).
        let bits = |ends: Option<(f64, f64)>| ends.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        for segment_rows in [1usize, 3] {
            let schema = Schema::new(vec![Field::nullable("v", DataType::Float)]).unwrap();
            let mut b = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
            let nan = Value::Float(f64::NAN);
            let rows = [
                nan.clone(),
                nan,
                Value::Null,
                Value::Null,
                Value::Float(0.0),
                Value::Float(-0.0),
                Value::Float(2.0),
                Value::Float(-1.0),
            ];
            for v in rows {
                b.push_row(&[v]).unwrap();
            }
            let t = b.build().unwrap();
            let col = t.column("v").unwrap();
            let nan_only = Bitmap::from_indices(8, [0, 1]);
            let (lo, hi) = col.numeric_min_max(&nan_only).expect("NaNs are values");
            assert!(lo.is_nan() && hi.is_nan(), "segment_rows={segment_rows}");
            assert_eq!(col.numeric_min_max(&Bitmap::from_indices(8, [2, 3])), None);
            let zeros = col.numeric_min_max(&Bitmap::from_indices(8, [4, 5]));
            assert_eq!(bits(zeros), bits(Some((-0.0, 0.0))));
            let mixed = Bitmap::from_indices(8, [0, 2, 6, 7]);
            assert_eq!(col.numeric_min_max(&mixed), Some((-1.0, 2.0)));
            for sel in [
                nan_only,
                mixed,
                t.full_selection(),
                Bitmap::new_empty(t.num_rows()),
            ] {
                let stats = col.stats(&sel);
                assert_eq!(
                    bits(col.numeric_min_max(&sel)),
                    bits(stats.min.zip(stats.max))
                );
            }
        }
    }

    #[test]
    fn values_no_segment_holds_select_nothing() {
        // Segments whose dictionary has none of the values are skipped, not
        // scanned (a `kernels` unit test pins that half); the answer is that
        // of the segments that do hold one.
        let t = segmented_table(200, 7);
        let all = t.full_selection();
        let c = t.column("c").unwrap();
        assert!(c.select_in(&all, &["mauve"]).is_all_clear());
        assert!(c.select_in(&all, &[] as &[&str]).is_all_clear());
        let groups = [vec!["mauve".to_string()], vec!["red".to_string()]];
        let parts = c.select_in_groups(&all, &groups);
        assert!(parts[0].is_all_clear());
        assert_eq!(parts[1], c.select_in(&all, &["red", "mauve"]));
        assert_eq!(parts[1].count(), 80);
        // Values that do not parse as the column's type match no row either.
        for name in ["x", "f", "b"] {
            let col = t.column(name).unwrap();
            assert!(col.select_in(&all, &["mauve", "007", "+7"]).is_all_clear());
        }
    }

    /// The statistics of a categorical column before they kept the category
    /// counts, one row at a time: the selected `(non-NULL, NULL, distinct)`
    /// counts.
    fn categorical_reference(col: ColumnView<'_>, sel: &Bitmap) -> (usize, usize, usize) {
        let (mut non_null, mut nulls) = (0, 0);
        let mut distinct: HashSet<String> = HashSet::new();
        for row in sel.iter_ones() {
            match col.value(row) {
                Value::Null => nulls += 1,
                value => {
                    non_null += 1;
                    distinct.insert(value.to_string());
                }
            }
        }
        (non_null, nulls, distinct.len())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The statistics walk keeps the counts a categorical cut used to
        /// fetch with a second walk: ranked, they are
        /// `categories_by_frequency` — ties in first-appearance order
        /// included — for every segment layout, through the retained summary
        /// and through per-segment summaries folded in row order over the
        /// parts form, and the row counts are what they always were. Past the
        /// counter's bound (values are drawn from up to 4 096) the statistics
        /// are the distinct-only form, whatever the layout.
        #[test]
        fn categorical_stats_hold_the_counts_a_frequency_ranking_is_made_of(
            rows in proptest::collection::vec(
                (
                    proptest::option::weighted(0.9, 0u32..1 << 20),
                    proptest::option::weighted(0.9, any::<bool>()),
                    any::<bool>(),
                ),
                1..2600,
            ),
            cardinality in prop_oneof![Just(1u32), Just(2u32), Just(9u32), Just(40u32), 900u32..1300, Just(4096u32)],
            skew in 1u32..4,
        ) {
            let schema = Schema::new(vec![
                Field::nullable("c", DataType::Str),
                Field::nullable("b", DataType::Bool),
            ])
            .unwrap();
            let sel = Bitmap::from_fn(rows.len(), |row| rows[row].2);
            let mut unsplit: Vec<ColumnStats> = Vec::new();
            for segments in 1usize..=5 {
                let segment_rows = rows.len().div_ceil(segments).max(1);
                let mut builder =
                    TableBuilder::new("t", schema.clone()).with_segment_rows(segment_rows);
                for &(c, b, _) in &rows {
                    // Skewed draws: ties and a clear ranking both occur.
                    let c = c.map(|raw| (raw % cardinality) / skew);
                    builder
                        .push_row(&[
                            c.map_or(Value::Null, |c| Value::Str(format!("v{c}"))),
                            b.map_or(Value::Null, Value::Bool),
                        ])
                        .unwrap();
                }
                let table = builder.build().unwrap();
                for (at, col) in table.columns().into_iter().enumerate() {
                    let stats = col.stats(&sel);
                    let (non_null, nulls, distinct) = categorical_reference(col, &sel);
                    prop_assert_eq!(stats.non_null_count, non_null);
                    prop_assert_eq!(stats.null_count, nulls);
                    prop_assert_eq!(stats.distinct_count, distinct);

                    let walked = col.category_counts(&sel);
                    let counted = col.data_type() == DataType::Bool || walked.len() <= 1024;
                    prop_assert_eq!(&stats.category_counts, &counted.then_some(walked));
                    if let Some(counts) = &stats.category_counts {
                        prop_assert_eq!(
                            rank_categories_by_frequency(counts.clone()),
                            col.categories_by_frequency(&sel)
                        );
                        if col.data_type() == DataType::Str {
                            let order: Vec<String> =
                                counts.iter().map(|(value, _)| value.clone()).collect();
                            prop_assert_eq!(order, col.dictionary());
                        }
                    }

                    // The retained summary, and the shard-to-coordinator
                    // fold: each part's own summary over its own rows, sent
                    // as parts, merged in row order.
                    prop_assert_eq!(&col.summary(&sel).to_stats(), &stats);
                    let mut folded = ColumnSummary::empty(col.data_type());
                    for (offset, column) in col.parts() {
                        let part = ColumnView::of_column(col.name(), column);
                        let local = Bitmap::from_fn(part.len(), |row| sel.get(offset + row));
                        let sent = part.summary(&local).to_parts();
                        folded.merge_from(&ColumnSummary::from_parts(sent));
                    }
                    prop_assert_eq!(&folded.to_stats(), &stats);

                    // Nothing above depends on the layout.
                    match unsplit.get(at) {
                        Some(first) => prop_assert_eq!(first, &stats, "{} segments", segments),
                        None => unsplit.push(stats),
                    }
                }
            }
        }
    }

    /// What `select_in` means, one row at a time: a non-NULL row matches when
    /// its rendering is one of the values (booleans case-insensitively).
    fn select_in_oracle(col: ColumnView<'_>, sel: &Bitmap, values: &[&str]) -> Bitmap {
        Bitmap::from_fn(sel.len(), |row| {
            sel.get(row)
                && match col.value(row) {
                    Value::Null => false,
                    Value::Bool(b) => {
                        let rendered = if b { "true" } else { "false" };
                        values.iter().any(|v| v.eq_ignore_ascii_case(rendered))
                    }
                    Value::Str(s) => values.contains(&s.as_str()),
                    Value::Int(x) => values.contains(&x.to_string().as_str()),
                    Value::Float(x) => values.contains(&x.to_string().as_str()),
                }
        })
    }

    /// Values present in the generated columns, absent from them, and
    /// look-alikes that must not match (`"007"` / `"+7"` are not 7).
    const VALUE_POOL: [&str; 16] = [
        "7", "007", "+7", "-2", "3", "1.5", "2", "NaN", "cat0", "cat3", "cat9", "TRUE", "tRuE",
        "false", "", "inf",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn select_in_is_the_one_group_case_of_select_in_groups(
            rows in proptest::collection::vec(
                (
                    proptest::option::weighted(0.85, -3i64..10),
                    proptest::option::weighted(0.85, -4i64..16),
                    proptest::option::weighted(0.85, 0u8..5),
                    proptest::option::weighted(0.85, any::<bool>()),
                ),
                1..200,
            ),
            picks in proptest::collection::vec(0usize..VALUE_POOL.len(), 0..6),
            sel_bits in proptest::collection::vec(any::<bool>(), 1..200),
            layout in 0usize..3,
        ) {
            let schema = Schema::new(vec![
                Field::nullable("i", DataType::Int),
                Field::nullable("f", DataType::Float),
                Field::nullable("c", DataType::Str),
                Field::nullable("b", DataType::Bool),
            ])
            .unwrap();
            let segment_rows = [usize::MAX, 7, 64][layout];
            let mut builder = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
            for &(i, f, c, b) in &rows {
                // Halves (1.5 renders "1.5", 2.0 renders "2") and one NaN.
                let f = f.map(|k| if k == 15 { f64::NAN } else { k as f64 / 2.0 });
                builder
                    .push_row(&[
                        i.map_or(Value::Null, Value::Int),
                        f.map_or(Value::Null, Value::Float),
                        c.map_or(Value::Null, |c| Value::Str(format!("cat{c}"))),
                        b.map_or(Value::Null, Value::Bool),
                    ])
                    .unwrap();
            }
            let table = builder.build().unwrap();
            // Duplicates come with the picks; no pick is the empty value set.
            let values: Vec<&str> = picks.iter().map(|&p| VALUE_POOL[p]).collect();
            let group: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            // The last selected row is wherever the bits end — mid-word, mostly.
            let sel = Bitmap::from_fn(rows.len(), |row| sel_bits.get(row) == Some(&true));
            for path in [KernelPath::WordParallel, KernelPath::Scalar] {
                with_kernel_path(path, || {
                    for col in table.columns() {
                        let hit = col.select_in(&sel, &values);
                        let grouped = col.select_in_groups(&sel, std::slice::from_ref(&group));
                        prop_assert_eq!(&hit, &grouped[0], "{} {:?}", col.name(), path);
                        prop_assert_eq!(&hit, &select_in_oracle(col, &sel, &values));
                    }
                });
            }
        }
    }

    /// A boolean part is coded like any other few-valued primitive: sealed
    /// at 8 rows or more it is `u8` codes, and a 5-row tail holding both
    /// values stays plain. Either way it partitions and counts as the scalar
    /// reference and a row-at-a-time oracle do.
    #[test]
    fn sealed_boolean_parts_are_codes_and_answer_as_the_scalar_reference() {
        use crate::column::Encoding;
        let schema = Schema::new(vec![Field::nullable("b", DataType::Bool)]).unwrap();
        let mut builder = TableBuilder::new("t", schema).with_segment_rows(64);
        for i in 0..133 {
            let b = if i % 13 == 0 {
                Value::Null
            } else {
                Value::Bool(i % 3 == 0)
            };
            builder.push_row(&[b]).unwrap();
        }
        let table = builder.build().unwrap();
        let col = table.column("b").unwrap();
        let encodings: Vec<Encoding> = col.parts().map(|(_, c)| c.encoding()).collect();
        assert_eq!(
            encodings,
            [Encoding::CodedU8, Encoding::CodedU8, Encoding::Plain]
        );
        let group = |values: &[&str]| values.iter().map(|v| v.to_string()).collect::<Vec<_>>();
        let group_lists = [
            vec![group(&["true"]), group(&["false"])],
            vec![group(&["FALSE"]), group(&["True"])],
            vec![group(&["false", "true"])],
            vec![group(&["true"]), group(&["TRUE", "false"])],
        ];
        let selections = [
            table.full_selection(),
            Bitmap::from_fn(133, |row| row % 4 != 1),
            Bitmap::from_fn(133, |row| (60..131).contains(&row)),
        ];
        for sel in &selections {
            let (mut trues, mut falses) = (0, 0);
            for row in sel.iter_ones() {
                match col.value(row) {
                    Value::Bool(true) => trues += 1,
                    Value::Bool(false) => falses += 1,
                    _ => {}
                }
            }
            let counts = vec![("true".to_string(), trues), ("false".to_string(), falses)];
            for groups in &group_lists {
                let oracle: Vec<Bitmap> = groups
                    .iter()
                    .enumerate()
                    .map(|(g, group)| {
                        // A value listed in two groups lands in the first.
                        let earlier: Vec<&str> =
                            groups[..g].iter().flatten().map(String::as_str).collect();
                        let values: Vec<&str> = group
                            .iter()
                            .map(String::as_str)
                            .filter(|v| !earlier.iter().any(|e| e.eq_ignore_ascii_case(v)))
                            .collect();
                        select_in_oracle(col, sel, &values)
                    })
                    .collect();
                for path in [KernelPath::WordParallel, KernelPath::Scalar] {
                    with_kernel_path(path, || {
                        assert_eq!(col.select_in_groups(sel, groups), oracle, "{path:?}");
                        assert_eq!(col.category_counts(sel), counts, "{path:?}");
                        assert_eq!(col.stats(sel).non_null_count, trues + falses);
                    });
                }
            }
        }
    }
}
