//! The merge algebra behind distributed scatter-gather: the coordinator
//! folds per-shard partials — [`ColumnSummary`]s, [`GkSketch`]es, profile
//! segments — and the fold must not care how the data was chunked or in
//! which order the pieces arrive.
//!
//! * `ColumnSummary::merge_from` is associative and order-invariant under
//!   arbitrary fold trees: the counting fields (non-NULL, NULL, exact
//!   distinct) and the extremes are *exactly* invariant.
//! * `GkSketch::merge` keeps every queried quantile within twice the
//!   per-sketch rank bound no matter the fold order.
//! * `TableProfile::build` on the whole table equals any prefix build
//!   extended segment-by-segment with `merge_segment` — stats bit-equal,
//!   sketch answers bit-equal.

use atlas::columnar::{
    Bitmap, ColumnStats, ColumnSummary, DataType, Field, Schema, TableBuilder, Value,
};
use atlas::core::TableProfile;
use atlas::stats::GkSketch;
use proptest::prelude::*;
use std::sync::Arc;

/// Summarise one chunk of optional floats (NULLs included) through the
/// public kernel path: a single-column table, full selection.
fn chunk_summary(chunk: &[Option<f64>]) -> ColumnSummary {
    let schema = Schema::new(vec![Field::new("x", DataType::Float)]).unwrap();
    let mut builder = TableBuilder::new("chunk", schema);
    for value in chunk {
        let value = match value {
            Some(v) => Value::Float(*v),
            None => Value::Null,
        };
        builder.push_row(&[value]).unwrap();
    }
    let table = builder.build().unwrap();
    let full = Bitmap::new_full(table.num_rows());
    table.column("x").unwrap().summary(&full)
}

/// Fold `parts` pairwise in the order dictated by `picks`: each step merges
/// two worklist entries into one, so the sequence of picks walks one
/// arbitrary binary fold tree.
fn fold_tree(parts: Vec<ColumnSummary>, picks: &[usize]) -> ColumnSummary {
    let mut worklist = parts;
    let mut step = 0;
    while worklist.len() > 1 {
        let a = picks.get(step).copied().unwrap_or(0) % worklist.len();
        let mut left = worklist.swap_remove(a);
        let b = picks.get(step + 1).copied().unwrap_or(0) % worklist.len();
        let right = worklist.swap_remove(b);
        left.merge_from(&right);
        worklist.push(left);
        step += 2;
    }
    worklist.pop().expect("at least one part")
}

/// Every field is an exact fold and must match exactly.
fn assert_stats_close(a: &ColumnStats, b: &ColumnStats) {
    assert_eq!(a.dtype, b.dtype);
    assert_eq!(a.non_null_count, b.non_null_count);
    assert_eq!(a.null_count, b.null_count);
    assert_eq!(a.distinct_count, b.distinct_count);
    assert_eq!(a.min, b.min, "min is an exact fold");
    assert_eq!(a.max, b.max, "max is an exact fold");
}

/// Split `values` at the (deduplicated, sorted) cut points.
fn chunks_of<T: Clone>(values: &[T], cuts: &[usize]) -> Vec<Vec<T>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (values.len() + 1)).collect();
    bounds.push(0);
    bounds.push(values.len());
    bounds.sort_unstable();
    bounds.dedup();
    bounds
        .windows(2)
        .map(|w| values[w[0]..w[1]].to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any chunking, any fold tree: the merged summary describes the
    /// concatenated column. Values are drawn from a small lattice so
    /// duplicates (and thus a non-trivial exact distinct set) are common;
    /// code 40 stands for NULL.
    #[test]
    fn column_summary_merge_is_order_invariant(
        codes in proptest::collection::vec(0u8..41, 1..120),
        cuts in proptest::collection::vec(0usize..120, 0..8),
        picks in proptest::collection::vec(0usize..64, 32),
    ) {
        let values: Vec<Option<f64>> = codes
            .iter()
            .map(|&code| (code < 40).then(|| (f64::from(code) - 20.0) / 4.0))
            .collect();
        let whole = chunk_summary(&values);
        let parts: Vec<ColumnSummary> =
            chunks_of(&values, &cuts).iter().map(|c| chunk_summary(c)).collect();

        // Reference: the coordinator's canonical ascending fold from empty.
        let mut ascending = ColumnSummary::empty(DataType::Float);
        for part in &parts {
            ascending.merge_from(part);
        }
        // The ascending fold reproduces the unchunked summary's stats.
        assert_stats_close(&whole.to_stats(), &ascending.to_stats());

        // An arbitrary fold tree agrees with the ascending fold.
        let shuffled = fold_tree(parts, &picks);
        assert_stats_close(&ascending.to_stats(), &shuffled.to_stats());
    }

    /// Folding per-chunk GK sketches in any order keeps every queried
    /// quantile's rank error within twice the per-sketch bound.
    #[test]
    fn gk_sketch_merge_is_order_invariant(
        values in proptest::collection::vec(-1e6..1e6f64, 8..300),
        cuts in proptest::collection::vec(0usize..300, 0..6),
        picks in proptest::collection::vec(0usize..64, 16),
        epsilon in 0.02f64..0.2,
    ) {
        let chunks = chunks_of(&values, &cuts);
        let mut parts: Vec<GkSketch> = chunks
            .iter()
            .map(|chunk| {
                let mut sketch = GkSketch::new(epsilon);
                sketch.extend(chunk);
                sketch
            })
            .collect();

        // Fold in the arbitrary order dictated by `picks`.
        let mut step = 0;
        while parts.len() > 1 {
            let a = picks.get(step).copied().unwrap_or(0) % parts.len();
            let mut left = parts.swap_remove(a);
            let b = picks.get(step + 1).copied().unwrap_or(0) % parts.len();
            let right = parts.swap_remove(b);
            left.merge(&right);
            parts.push(left);
            step += 2;
        }
        let merged = parts.pop().unwrap();
        prop_assert_eq!(merged.count(), values.len() as u64);

        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        for p in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let answer = merged.query(p).expect("non-empty sketch");
            let rank = sorted.iter().filter(|v| **v <= answer).count() as f64;
            let target = p * n;
            prop_assert!(
                (rank - target).abs() <= 2.0 * epsilon * n + 1.0,
                "p={} answer={} rank={} target={} n={}",
                p, answer, rank, target, n
            );
        }
    }

    /// `TableProfile::build` over the whole table is bit-identical to
    /// building over a prefix of segments and folding the rest in with
    /// `merge_segment` — the invariant `Atlas::append` (and the distributed
    /// coordinator's summary gather) stands on.
    #[test]
    fn profile_build_equals_segmentwise_merge(
        numeric in proptest::collection::vec(-1000.0..1000.0f64, 12..160),
        labels in proptest::collection::vec(0u8..5, 4..16),
        segment_rows in 4usize..40,
        prefix_len in 1usize..6,
    ) {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("c", DataType::Str),
        ])
        .unwrap();
        let mut builder = TableBuilder::new("t", schema.clone()).with_segment_rows(segment_rows);
        for (i, &x) in numeric.iter().enumerate() {
            let label = labels[i % labels.len()];
            builder
                .push_row(&[Value::Float(x), Value::Str(format!("l{label}"))])
                .unwrap();
        }
        let table = Arc::new(builder.build().unwrap());
        let segments = table.segments();
        let prefix_len = 1 + (prefix_len - 1) % segments.len();

        let full = TableProfile::build(&table, Some(0.05));
        let prefix_table = Arc::new(atlas::columnar::Table::from_segments(
            "t",
            schema,
            segments[..prefix_len].to_vec(),
        ).unwrap());
        let mut folded = TableProfile::build(&prefix_table, Some(0.05));
        for segment in &segments[prefix_len..] {
            folded = folded.merge_segment(segment);
        }

        prop_assert_eq!(full.num_rows(), folded.num_rows());
        for column in ["x", "c"] {
            let a = full.column(column).expect("profiled column");
            let b = folded.column(column).expect("profiled column");
            prop_assert_eq!(&a.stats, &b.stats, "stats of '{}' must be bit-equal", column);
            match (&a.sketch, &b.sketch) {
                (None, None) => {}
                (Some(sa), Some(sb)) => {
                    prop_assert_eq!(sa.count(), sb.count());
                    for p in [0.25, 0.5, 0.75] {
                        prop_assert_eq!(
                            sa.query(p).map(f64::to_bits),
                            sb.query(p).map(f64::to_bits),
                            "sketch answers of '{}' must be bit-equal", column
                        );
                    }
                }
                other => panic!("sketch presence differs for '{column}': {other:?}"),
            }
        }
    }
}
