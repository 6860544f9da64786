//! Distances between data maps (step 2a of the framework).
//!
//! Definition 2 of the paper associates a discrete random variable to every
//! map: pick a random tuple of the working set, the variable is the region it
//! falls into. Two maps are *related* when their variables are statistically
//! dependent. The paper proposes mutual-information-based measures and singles
//! out the Variation of Information (Meilă 2007) because it is a true metric.
//!
//! The clustering phase compares every pair of `n` candidates through the
//! contingency table of their regions. An explore asks its source for each
//! pair's table ([`crate::ExploreSource::contingency`]) and scores it here
//! ([`distance_matrix_from`]). In process, candidates cut from one working
//! set partition it (unless their attribute has NULLs there), so of a pair's
//! `r × c` cells only the `(r−1)(c−1)` head cells are intersected and the
//! rest follow from the regions' stored counts ([`contingency_within`]):
//! `O(n² · (r−1)(c−1) · rows/64)` word operations, one intersection per pair
//! of two-region maps. A distributed coordinator holds no rows: its shards
//! count every pair's cells in the round that partitions the candidates.
//! [`distance_matrix_with_pool`] still counts all `r · c` cells; only the
//! benchmark harness's staged replay reads that cost.

use crate::map::DataMap;
use atlas_columnar::Bitmap;
use atlas_stats::ContingencyTable;
use minirayon::ThreadPool;
use std::convert::Infallible;

/// The dependency measure used as a distance between maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapDistanceMetric {
    /// Variation of Information, in bits. A metric; 0 for identical
    /// partitions, `H(X) + H(Y)` for independent ones. The paper's choice.
    VariationOfInformation,
    /// VI normalised by the joint entropy, in `[0, 1]`. Scale-free, so a
    /// single distance threshold works across datasets.
    #[default]
    NormalizedVI,
    /// `1 − NMI`, in `[0, 1]`. Not a metric, provided for comparison in the
    /// ablation experiments.
    OneMinusNmi,
}

/// A symmetric distance matrix over a set of candidate maps.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    size: usize,
    values: Vec<f64>,
}

impl DistanceMatrix {
    /// Build a matrix of the given size with all distances set to zero.
    pub fn zeros(size: usize) -> Self {
        DistanceMatrix {
            size,
            values: vec![0.0; size * size],
        }
    }

    /// Number of maps the matrix ranges over.
    pub fn len(&self) -> usize {
        self.size
    }

    /// True if the matrix ranges over no maps.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The distance between maps `i` and `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.size + j]
    }

    /// Set the distance between maps `i` and `j` (kept symmetric).
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        self.values[i * self.size + j] = value;
        self.values[j * self.size + i] = value;
    }
}

/// The chosen dependency measure of a prebuilt contingency table.
///
/// This is the scoring half of every map distance: the matrices below apply
/// it to each pair's table, and callers that already hold a
/// [`ContingencyTable`] — e.g. a distributed coordinator that summed
/// per-shard partial counts — apply the same metric, so identical counts give
/// bit-identical distances.
pub fn metric_of(table: &ContingencyTable, metric: MapDistanceMetric) -> f64 {
    match metric {
        MapDistanceMetric::VariationOfInformation => table.variation_of_information(),
        MapDistanceMetric::NormalizedVI => table.normalized_vi(),
        MapDistanceMetric::OneMinusNmi => 1.0 - table.normalized_mi(),
    }
}

/// Pairwise distance matrix over a set of candidate maps (sequential).
///
/// `table_rows` is the row count of the maps' table: every region bitmap of
/// every map has one common length, at most `table_rows` (debug builds check
/// it), and each map's regions are pairwise disjoint, as the cut strategies
/// and merge operators produce them. Rows outside a map (NULLs, rows outside
/// the working set) carry no information about dependency and are ignored.
///
/// Each pair is compared through the fused bitmap-contingency kernel
/// [`ContingencyTable::from_selections`] — `regions(a) × regions(b)`
/// word-level intersection popcounts — so the cost is
/// `O(n² · regionsᵃ·regionsᵇ · rows/64)` word operations for `n` candidates;
/// no label vectors are materialised. [`contingency_within`] counts fewer
/// cells of a pair when the maps' working set is known.
pub fn distance_matrix(
    maps: &[DataMap],
    table_rows: usize,
    metric: MapDistanceMetric,
) -> DistanceMatrix {
    distance_matrix_with_pool(maps, table_rows, metric, ThreadPool::sequential())
}

/// [`distance_matrix`] with the upper triangle split row-blocked across a
/// thread pool: every cell of every pair's contingency table is counted
/// ([`ContingencyTable::from_selections`]).
///
/// Results are written per row of the triangle and are **identical at every
/// thread count** (each cell is a pure function of its two maps).
pub fn distance_matrix_with_pool(
    maps: &[DataMap],
    table_rows: usize,
    metric: MapDistanceMetric,
    pool: &ThreadPool,
) -> DistanceMatrix {
    debug_assert!(
        {
            let mut lens = maps
                .iter()
                .flat_map(|m| &m.regions)
                .map(|r| r.selection.len());
            let first = lens.next().unwrap_or(0);
            first <= table_rows && lens.all(|len| len == first)
        },
        "region bitmaps share one length of at most table_rows ({table_rows})"
    );
    let regions: Vec<Vec<&Bitmap>> = maps.iter().map(selections).collect();
    let matrix = distance_matrix_from(maps.len(), metric, pool, |i, j| {
        Ok::<_, Infallible>(ContingencyTable::from_selections(&regions[i], &regions[j]))
    });
    let Ok(matrix) = matrix;
    matrix
}

/// The pairwise distance matrix of `n` maps under `metric`, pair `(i, j)`
/// scored off the contingency table `table(i, j)` — the one scoring body of
/// every matrix. The upper triangle is split row-blocked across `pool` and
/// assembled in row order, so the matrix, and the first error in row order,
/// are the same at every thread count.
pub fn distance_matrix_from<E: Send>(
    n: usize,
    metric: MapDistanceMetric,
    pool: &ThreadPool,
    table: impl Fn(usize, usize) -> Result<ContingencyTable, E> + Sync,
) -> Result<DistanceMatrix, E> {
    // Row i of the upper triangle holds the distances (i, i+1..n).
    let rows = pool.par_map_indexed(n, 1, |i| {
        ((i + 1)..n)
            .map(|j| table(i, j).map(|table| metric_of(&table, metric)))
            .collect::<Result<Vec<f64>, E>>()
    });
    Ok(triangle_to_matrix(
        n,
        rows.into_iter().collect::<Result<_, E>>()?,
    ))
}

/// The contingency table of two maps cut from a working set of
/// `working_rows` rows — every region a subset of it, each map's regions
/// pairwise disjoint, as the cut strategies produce them — counted from
/// their rows: cell `(i, j)` holds the rows in `a`'s region `i` and `b`'s
/// region `j`.
///
/// A map whose region counts sum to `working_rows` partitions the working
/// set, so a pair of such maps is counted through
/// [`ContingencyTable::from_partitions`]: only the `(r−1)(c−1)` head cells
/// are intersected (one for two two-region maps, not four), and the rest
/// come from the regions' stored counts. A pair with a map that misses rows
/// of the working set — NULLs in its attribute — counts every cell. Either
/// way the table is the one [`ContingencyTable::from_selections`] counts.
pub fn contingency_within(a: &DataMap, b: &DataMap, working_rows: usize) -> ContingencyTable {
    let (rows, cols) = (selections(a), selections(b));
    let (row_counts, col_counts) = (a.region_counts(), b.region_counts());
    let partitions = |counts: &[u64]| counts.iter().sum::<u64>() == working_rows as u64;
    if partitions(&row_counts) && partitions(&col_counts) {
        ContingencyTable::from_partitions(&rows, &row_counts, &cols, &col_counts)
    } else {
        ContingencyTable::from_selections(&rows, &cols)
    }
}

/// A map's region bitmaps, in region order.
fn selections(map: &DataMap) -> Vec<&Bitmap> {
    map.regions.iter().map(|r| &r.selection).collect()
}

/// Assemble per-row upper-triangle distances into a symmetric matrix.
fn triangle_to_matrix(n: usize, rows: Vec<Vec<f64>>) -> DistanceMatrix {
    let mut matrix = DistanceMatrix::zeros(n);
    for (i, row) in rows.into_iter().enumerate() {
        for (offset, d) in row.into_iter().enumerate() {
            matrix.set(i, i + 1 + offset, d);
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;
    use atlas_columnar::Bitmap;
    use atlas_query::{ConjunctiveQuery, Predicate};

    /// The distance between two maps, as the matrix computes it.
    fn map_pair(a: &DataMap, b: &DataMap, table_rows: usize, metric: MapDistanceMetric) -> f64 {
        distance_matrix(&[a.clone(), b.clone()], table_rows, metric).get(0, 1)
    }

    /// Build a map over `n` rows whose region index for row `r` is
    /// `assign(r)`, with `k` regions.
    fn map_from_fn(n: usize, k: usize, assign: impl Fn(usize) -> usize, attr: &str) -> DataMap {
        let mut regions = Vec::new();
        for region_idx in 0..k {
            let rows: Vec<usize> = (0..n).filter(|&r| assign(r) == region_idx).collect();
            regions.push(Region::new(
                ConjunctiveQuery::all("t").and(Predicate::range(
                    attr,
                    region_idx as f64,
                    region_idx as f64 + 1.0,
                )),
                Bitmap::from_indices(n, rows),
            ));
        }
        DataMap::new(regions, vec![attr.to_string()])
    }

    #[test]
    fn identical_maps_have_zero_distance() {
        let a = map_from_fn(100, 2, |r| r % 2, "x");
        let b = map_from_fn(100, 2, |r| r % 2, "y");
        for metric in [
            MapDistanceMetric::VariationOfInformation,
            MapDistanceMetric::NormalizedVI,
            MapDistanceMetric::OneMinusNmi,
        ] {
            assert!(map_pair(&a, &b, 100, metric) < 1e-9, "{metric:?}");
        }
    }

    #[test]
    fn dependent_maps_are_closer_than_independent_ones() {
        // a and b are perfectly dependent (same partition relabelled);
        // c is independent of both.
        let a = map_from_fn(400, 2, |r| r % 2, "a");
        let b = map_from_fn(400, 2, |r| (r + 1) % 2, "b");
        let c = map_from_fn(400, 2, |r| usize::from((r / 2) % 2 == 0), "c");
        for metric in [
            MapDistanceMetric::VariationOfInformation,
            MapDistanceMetric::NormalizedVI,
            MapDistanceMetric::OneMinusNmi,
        ] {
            let d_ab = map_pair(&a, &b, 400, metric);
            let d_ac = map_pair(&a, &c, 400, metric);
            assert!(d_ab < d_ac, "{metric:?}: d_ab={d_ab} d_ac={d_ac}");
        }
    }

    #[test]
    fn normalized_metrics_stay_in_unit_interval() {
        let a = map_from_fn(300, 3, |r| r % 3, "a");
        let c = map_from_fn(300, 2, |r| (r * 7 + 3) % 2, "c");
        for metric in [
            MapDistanceMetric::NormalizedVI,
            MapDistanceMetric::OneMinusNmi,
        ] {
            let d = map_pair(&a, &c, 300, metric);
            assert!((0.0..=1.0).contains(&d), "{metric:?}: {d}");
        }
    }

    #[test]
    fn vi_distance_is_symmetric_and_satisfies_triangle_inequality() {
        let a = map_from_fn(240, 2, |r| r % 2, "a");
        let b = map_from_fn(240, 3, |r| r % 3, "b");
        let c = map_from_fn(240, 2, |r| usize::from(r < 120), "c");
        let metric = MapDistanceMetric::VariationOfInformation;
        let d_ab = map_pair(&a, &b, 240, metric);
        let d_ba = map_pair(&b, &a, 240, metric);
        assert!((d_ab - d_ba).abs() < 1e-12);
        let d_bc = map_pair(&b, &c, 240, metric);
        let d_ac = map_pair(&a, &c, 240, metric);
        assert!(d_ac <= d_ab + d_bc + 1e-9);
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let maps = vec![
            map_from_fn(120, 2, |r| r % 2, "a"),
            map_from_fn(120, 2, |r| (r / 3) % 2, "b"),
            map_from_fn(120, 3, |r| r % 3, "c"),
        ];
        let m = distance_matrix(&maps, 120, MapDistanceMetric::NormalizedVI);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        for i in 0..3 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..3 {
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fused_bitmap_distance_matches_the_label_based_reference() {
        // The fused contingency kernel must reproduce the label-vector path
        // bit for bit on disjoint maps (including rows outside both maps).
        let n = 300;
        let a = map_from_fn(n, 3, |r| r % 3, "a");
        let b = map_from_fn(n, 2, |r| (r / 7) % 2, "b");
        let labels_a = a.region_labels(n);
        let labels_b = b.region_labels(n);
        for metric in [
            MapDistanceMetric::VariationOfInformation,
            MapDistanceMetric::NormalizedVI,
            MapDistanceMetric::OneMinusNmi,
        ] {
            let fused = map_pair(&a, &b, n, metric);
            let reference = metric_of(
                &ContingencyTable::from_labels(&labels_a, &labels_b, 3, 2),
                metric,
            );
            assert_eq!(fused.to_bits(), reference.to_bits(), "{metric:?}");
        }
    }

    #[test]
    fn parallel_distance_matrix_is_bit_identical_to_sequential() {
        let maps: Vec<DataMap> = (0..12)
            .map(|k| map_from_fn(500, 2 + k % 3, move |r| (r / (k + 1)) % (2 + k % 3), "x"))
            .collect();
        let sequential = distance_matrix(&maps, 500, MapDistanceMetric::NormalizedVI);
        let pool = minirayon::ThreadPool::new(4);
        let parallel =
            distance_matrix_with_pool(&maps, 500, MapDistanceMetric::NormalizedVI, &pool);
        assert_eq!(sequential.len(), parallel.len());
        for i in 0..maps.len() {
            for j in 0..maps.len() {
                assert_eq!(
                    sequential.get(i, j).to_bits(),
                    parallel.get(i, j).to_bits(),
                    "cell ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn rows_outside_both_maps_are_ignored() {
        // Only the first 50 rows are labelled; the rest is sentinel.
        let a = map_from_fn(50, 2, |r| r % 2, "a");
        let b = map_from_fn(50, 2, |r| r % 2, "b");
        // Distances over 100 table rows (50 unlabelled) equal distances over 50.
        let d_100 = map_pair(&a, &b, 100, MapDistanceMetric::NormalizedVI);
        let d_50 = map_pair(&a, &b, 50, MapDistanceMetric::NormalizedVI);
        assert!((d_100 - d_50).abs() < 1e-12);
    }
}
