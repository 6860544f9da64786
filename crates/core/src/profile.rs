//! Build-time per-column statistics shared across explorations — built **per
//! segment** and folded, so profiles are incremental.
//!
//! Every call to [`crate::engine::Atlas::explore`] needs per-column summary
//! statistics (distinct counts, min/max, null counts, and — for columns with
//! few enough distinct values — the count of every value, which is all a
//! median cut or a categorical cut reads) to decide which attributes are
//! cuttable and where to cut them. A [`TableProfile`] computes them **once**
//! when the engine is built and shares them (behind an `Arc`) across every
//! subsequent exploration — the "anticipative computation" spirit of Section
//! 5.1 applied to the engine's own metadata — so a whole-table cut of a
//! counted column touches no row before it partitions them.
//!
//! With segmented storage the profile is also **mergeable**: every column is
//! profiled as one [`ColumnSummary`] per segment (one pool task per
//! (segment, column) pair, each scanning its column through the one-part
//! [`ColumnView`] — segments keep no statistics of their own — so building
//! scales across segments and columns alike), folded left-to-right in row
//! order. The folded summaries stay in the profile, so appending a segment
//! ([`TableProfile::merge_segment`], driven by
//! [`crate::engine::Atlas::append`]) only profiles the **new** rows and
//! merges — no whole-table rebuild — and produces bit-for-bit the profile a
//! from-scratch rebuild of the extended table would (both fold the summaries
//! left to right in row order). The profile holds summaries only: every
//! median is exact, read off the counted values or selected from the working
//! set's own values, so no statistic it serves depends on the segment layout.
//!
//! Statistics served from the profile are counted as `hits`; working sets that
//! are proper subsets of the table (drill-down queries, anytime samples,
//! composition re-cuts) still require fresh statistics — a walk of their rows
//! — and are counted as `misses`. One kind of subset needs neither: when a
//! composition re-cuts regions that partition the working set it holds the
//! statistics of, the largest region's statistics are the working set's minus
//! the other regions' ([`atlas_columnar::ColumnStats::without`]), and are
//! counted as `derived`. The counters make cache behaviour observable in tests
//! and benchmarks ([`TableProfile::counters`]).

use crate::error::Result;
use atlas_columnar::{Bitmap, ColumnStats, ColumnSummary, ColumnView, Segment, Table};
use minirayon::ThreadPool;
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pre-computed statistics of one column over the full table.
#[derive(Debug, Clone)]
pub struct ColumnProfile {
    /// The column name.
    pub name: String,
    /// Full-table summary statistics (row and distinct counts, min/max, and
    /// the per-value counts of a numeric or categorical column that has few
    /// enough values — what whole-table median and categorical cuts read
    /// instead of the column).
    pub stats: ColumnStats,
    /// The mergeable form of `stats` (the fold of the per-segment summaries),
    /// kept so [`TableProfile::merge_segment`] can extend the profile without
    /// rescanning existing segments. This retains the column's exact
    /// distinct-value set (with a count per value while the summary is
    /// counted) for the engine's lifetime — `O(distinct)` memory,
    /// which is what buys exact (and append-invariant) distinct counts
    /// without rescans; identifier-like columns pay the most.
    summary: ColumnSummary,
}

/// A snapshot of the profile's cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileStats {
    /// Statistics requests served from the pre-computed profile.
    pub hits: usize,
    /// Statistics requests that had to be computed on the fly (subset working
    /// sets and unknown columns).
    pub misses: usize,
    /// Region statistics a composition derived from statistics it held
    /// instead of walking the region.
    pub derived: usize,
}

/// Per-column statistics of a table, computed once and shared by every
/// exploration of a prepared engine.
#[derive(Debug)]
pub struct TableProfile {
    num_rows: usize,
    columns: Vec<ColumnProfile>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    derived: AtomicUsize,
}

/// Summarise one column of one segment, through its one-part view (the
/// segment's own row coordinates).
fn summarise_segment_column(column: ColumnView<'_>) -> ColumnSummary {
    column.summary(&Bitmap::new_full(column.len()))
}

/// Extend one column's profile with one more segment's column.
fn merge_column_segment(profile: &ColumnProfile, column: ColumnView<'_>) -> ColumnProfile {
    let mut summary = profile.summary.clone();
    summary.merge_from(&summarise_segment_column(column));
    ColumnProfile {
        name: profile.name.clone(),
        stats: summary.to_stats(),
        summary,
    }
}

impl TableProfile {
    /// Profile every column of the table: one mergeable summary per segment
    /// per column, folded in row order.
    pub fn build(table: &Table) -> Self {
        TableProfile::build_with_pool(table, ThreadPool::sequential())
    }

    /// [`TableProfile::build`] with one task per **(segment, column)** pair
    /// on the given pool, so `Atlas::builder` scales with the core count on
    /// both axes — across segments of a long table *and* across columns of a
    /// wide (or single-segment) one. The per-pair profiles are independent
    /// and folded in row order: the result is identical at every thread
    /// count — and identical to incrementally appending the same segments
    /// one by one.
    pub fn build_with_pool(table: &Table, pool: &ThreadPool) -> Self {
        let fields = table.schema().fields();
        let num_columns = fields.len();
        let tasks: Vec<(usize, usize)> = (0..table.num_segments())
            .flat_map(|seg| (0..num_columns).map(move |col| (seg, col)))
            .collect();
        let mut build_span = atlas_obs::span("profile.build");
        build_span.attr("dataset", table.name());
        build_span.attr("tasks", tasks.len());
        let parent = build_span.context();
        let partials = pool.par_map(&tasks, |&(seg, col)| {
            let mut task_span = atlas_obs::span_in(parent, "profile.column");
            task_span.attr("segment", seg);
            // col < num_columns == fields.len() by task construction.
            let name = &fields[col].name;
            task_span.attr("column", name);
            let column = table.segments()[seg].column(col);
            summarise_segment_column(ColumnView::of_column(name, column))
        });
        let columns = fields
            .iter()
            .enumerate()
            .map(|(col, field)| {
                let mut summary = ColumnSummary::empty(field.dtype);
                for seg in 0..table.num_segments() {
                    summary.merge_from(&partials[seg * num_columns + col]);
                }
                ColumnProfile {
                    name: field.name.clone(),
                    stats: summary.to_stats(),
                    summary,
                }
            })
            .collect();
        TableProfile {
            num_rows: table.num_rows(),
            columns,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            derived: AtomicUsize::new(0),
        }
    }

    /// A profile with no pre-computed columns: every statistics request is
    /// answered by scanning the working set on the fly (and counted as a
    /// miss). Standalone entry points that run once per working set — the
    /// baselines, [`crate::candidates::generate_candidates`] — use this
    /// instead of paying for a full-table profile they would never amortise;
    /// prepared engines always carry a full [`TableProfile::build`] profile.
    pub fn empty(num_rows: usize) -> Self {
        TableProfile {
            num_rows,
            columns: Vec::new(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            derived: AtomicUsize::new(0),
        }
    }

    /// The profile of the table extended by `segment`: only the **new** rows
    /// are summarised, then
    /// merged column by column into the existing fold — the incremental
    /// re-preparation behind [`crate::engine::Atlas::append`]. Because the
    /// fold is left-associative in row order, the result is bit-for-bit the
    /// profile [`TableProfile::build`] would produce on the extended table.
    ///
    /// The segment must match the profiled table's schema (the engine
    /// validates this when it appends to the [`Table`] first). Empty profiles
    /// stay empty — they compute everything on the fly anyway.
    ///
    /// Hit/miss counters start at zero: the merged profile describes a new
    /// engine state.
    pub fn merge_segment(&self, segment: &Segment) -> TableProfile {
        let columns = self
            .columns
            .iter()
            .enumerate()
            .map(|(col, profile)| {
                let column = ColumnView::of_column(&profile.name, segment.column(col));
                merge_column_segment(profile, column)
            })
            .collect();
        TableProfile {
            num_rows: self.num_rows + segment.num_rows(),
            columns,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            derived: AtomicUsize::new(0),
        }
    }

    /// Number of rows of the profiled table.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The profile of a column, if the column exists.
    pub fn column(&self, name: &str) -> Option<&ColumnProfile> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// All column profiles, in schema order.
    pub fn columns(&self) -> &[ColumnProfile] {
        &self.columns
    }

    /// True when the working set covers the whole table, so full-table
    /// statistics apply as-is.
    pub fn covers(&self, working: &Bitmap) -> bool {
        working.count() == self.num_rows
    }

    /// Statistics of `attribute` over `working`: served from the profile when
    /// the working set is the whole table, computed on the fly otherwise.
    pub fn stats_for<'a>(
        &'a self,
        table: &Table,
        attribute: &str,
        working: &Bitmap,
    ) -> Result<Cow<'a, ColumnStats>> {
        if self.covers(working) {
            if let Some(profile) = self.column(attribute) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                observe_cache("hit", attribute);
                return Ok(Cow::Borrowed(&profile.stats));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        observe_cache("miss", attribute);
        Ok(Cow::Owned(table.column_stats(attribute, working)?))
    }

    /// Count one region's statistics of `attribute` as derived rather than
    /// walked.
    pub(crate) fn count_derived(&self, attribute: &str) {
        self.derived.fetch_add(1, Ordering::Relaxed);
        observe_cache("derived", attribute);
    }

    /// Add `counts` to the counters: what an explore over a gathered copy of
    /// the table's rows ([`atlas_columnar::Table::gather`]) counted on the
    /// empty profile it ran with, so this profile's counters still tell every
    /// walk and derivation the engine made.
    pub(crate) fn add_counters(&self, counts: ProfileStats) {
        self.hits.fetch_add(counts.hits, Ordering::Relaxed);
        self.misses.fetch_add(counts.misses, Ordering::Relaxed);
        self.derived.fetch_add(counts.derived, Ordering::Relaxed);
    }

    /// A snapshot of the hit/miss/derived counters.
    pub fn counters(&self) -> ProfileStats {
        ProfileStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            derived: self.derived.load(Ordering::Relaxed),
        }
    }
}

/// Attach one profile-cache lookup to the current trace (the per-profile
/// atomics above are the counters `/metrics` reports).
fn observe_cache(outcome: &'static str, attribute: &str) {
    if atlas_obs::enabled() {
        atlas_obs::event(
            "profile.cache",
            &[("outcome", outcome), ("attribute", attribute)],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_columnar::{DataType, Field, Schema, TableBuilder, Value};

    fn table() -> Table {
        table_with_segment_rows(usize::MAX)
    }

    fn table_with_segment_rows(segment_rows: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::nullable("n", DataType::Int),
            Field::new("c", DataType::Str),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
        for i in 0..100 {
            let n = if i % 4 == 0 {
                Value::Null
            } else {
                Value::Int(i % 10)
            };
            b.push_row(&[
                Value::Float(i as f64),
                n,
                Value::Str(["a", "b"][(i % 2) as usize].into()),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn profile_matches_on_demand_statistics() {
        let t = table();
        let profile = TableProfile::build(&t);
        assert_eq!(profile.num_rows(), 100);
        assert_eq!(profile.columns().len(), 3);
        for name in ["x", "n", "c"] {
            let cached = &profile.column(name).unwrap().stats;
            let fresh = t.column_stats(name, &t.full_selection()).unwrap();
            assert_eq!(cached, &fresh, "column {name}");
        }
        // Column n has 25 NULLs.
        assert_eq!(profile.column("n").unwrap().stats.non_null_count, 75);
        assert_eq!(profile.column("x").unwrap().stats.non_null_count, 100);
    }

    #[test]
    fn segmented_profiles_match_single_segment_ones_on_everything_exact() {
        let reference = TableProfile::build(&table());
        for segment_rows in [7usize, 32, 64] {
            let t = table_with_segment_rows(segment_rows);
            assert!(t.num_segments() > 1);
            let profile = TableProfile::build(&t);
            for (a, b) in profile.columns().iter().zip(reference.columns()) {
                assert_eq!(a.name, b.name);
                // Everything explore consumes is segmentation-invariant.
                assert_eq!(a.stats.non_null_count, b.stats.non_null_count);
                assert_eq!(a.stats.null_count, b.stats.null_count);
                assert_eq!(a.stats.distinct_count, b.stats.distinct_count);
                assert_eq!(a.stats.min, b.stats.min);
                assert_eq!(a.stats.max, b.stats.max);
                assert_eq!(a.stats.category_counts, b.stats.category_counts);
                assert_eq!(a.stats.value_counts, b.stats.value_counts);
            }
        }
    }

    #[test]
    fn merge_segment_equals_a_full_rebuild() {
        // Build a profile over the first segments, append the last one, and
        // compare against profiling the whole table from scratch.
        let t = table_with_segment_rows(32); // 32+32+32+4 rows
        assert_eq!(t.num_segments(), 4);
        let prefix =
            Table::from_segments("t", t.schema().clone(), t.segments()[..3].to_vec()).unwrap();
        let appended = TableProfile::build(&prefix).merge_segment(&t.segments()[3]);
        let rebuilt = TableProfile::build(&t);
        assert_eq!(appended.num_rows(), rebuilt.num_rows());
        for (a, b) in appended.columns().iter().zip(rebuilt.columns()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.stats, b.stats, "appended profile must equal rebuild");
        }
        // Counters restart on the merged profile.
        assert_eq!(appended.counters(), ProfileStats::default());
        // Empty profiles stay empty but track the new row count.
        let empty = TableProfile::empty(96).merge_segment(&t.segments()[3]);
        assert_eq!(empty.num_rows(), 100);
        assert!(empty.columns().is_empty());
    }

    #[test]
    fn full_table_requests_hit_and_subsets_miss() {
        let t = table();
        let profile = TableProfile::build(&t);
        assert_eq!(profile.counters(), ProfileStats::default());

        let full = t.full_selection();
        let cached = profile.stats_for(&t, "x", &full).unwrap();
        assert_eq!(profile.counters().hits, 1);
        assert_eq!(profile.counters().misses, 0);
        assert_eq!(cached.non_null_count, 100);

        let subset = Bitmap::from_indices(100, 0..50);
        let fresh = profile.stats_for(&t, "x", &subset).unwrap();
        assert_eq!(profile.counters().hits, 1);
        assert_eq!(profile.counters().misses, 1);
        assert_eq!(fresh.non_null_count, 50);
    }

    #[test]
    fn empty_profiles_always_compute_on_the_fly() {
        let t = table();
        let profile = TableProfile::empty(t.num_rows());
        let full = t.full_selection();
        let stats = profile.stats_for(&t, "x", &full).unwrap();
        assert_eq!(stats.non_null_count, 100);
        assert_eq!(
            profile.counters(),
            ProfileStats {
                hits: 0,
                misses: 1,
                derived: 0
            }
        );
    }

    #[test]
    fn pooled_profile_build_matches_the_sequential_one() {
        // Multi-segment table so the pool actually has independent tasks.
        let t = table_with_segment_rows(16);
        let sequential = TableProfile::build(&t);
        let pool = ThreadPool::new(4);
        let pooled = TableProfile::build_with_pool(&t, &pool);
        assert_eq!(pooled.num_rows(), sequential.num_rows());
        assert_eq!(pooled.columns().len(), sequential.columns().len());
        for (a, b) in pooled.columns().iter().zip(sequential.columns()) {
            assert_eq!(a.name, b.name, "schema order is preserved");
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn cached_category_rankings_match_on_demand_ones() {
        let t = table_with_segment_rows(32);
        let profile = TableProfile::build(&t);
        let full = t.full_selection();
        let c = t.column("c").unwrap();
        // The profiled statistics carry the view's mergeable counts — zeros
        // included, first-appearance order — and numeric columns none.
        let profiled = |name: &str| profile.column(name).unwrap().stats.category_counts.clone();
        assert_eq!(profiled("c"), Some(c.category_counts(&full)));
        assert_eq!(profiled("x"), None);
        // Whole-table working sets are served the profiled counts (a hit),
        // subsets get them from the one statistics walk (a miss); ranked,
        // either is bit-identical to the on-demand scan.
        let subset = Bitmap::from_indices(100, 0..50);
        for working in [&full, &subset] {
            let stats = profile.stats_for(&t, "c", working).unwrap();
            let counts = stats
                .category_counts
                .clone()
                .expect("two values are counted");
            assert_eq!(
                atlas_columnar::rank_categories_by_frequency(counts),
                c.categories_by_frequency(working)
            );
        }
        assert_eq!(
            profile.counters(),
            ProfileStats {
                hits: 1,
                misses: 1,
                derived: 0
            }
        );
        // Empty profiles always scan, to the same counts.
        let empty = TableProfile::empty(t.num_rows());
        let scanned = empty.stats_for(&t, "c", &full).unwrap();
        assert_eq!(scanned.category_counts, profiled("c"));
        assert_eq!(
            empty.counters(),
            ProfileStats {
                hits: 0,
                misses: 1,
                derived: 0
            }
        );
    }

    #[test]
    fn unknown_columns_are_an_error() {
        let t = table();
        let profile = TableProfile::build(&t);
        assert!(profile.stats_for(&t, "zzz", &t.full_selection()).is_err());
    }
}
