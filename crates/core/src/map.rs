//! Data maps: small sets of queries that partition the working set.

use crate::region::Region;
use atlas_stats::entropy_of_counts;
use std::fmt;

/// Sentinel label for rows that belong to no region of a map (rows outside
/// the working set, or rows whose cut attribute is NULL).
pub const NO_REGION: u32 = u32::MAX;

/// A data map: a set of regions, each described by a conjunctive query.
///
/// Definition (paper, Section 3): `M = {Q_0, …, Q_M}`. The regions of a map
/// produced by `CUT` and by the merge operators are pairwise disjoint and
/// (up to NULL values in the cut attributes) cover the working set.
#[derive(Debug, Clone)]
pub struct DataMap {
    /// The regions of the map.
    pub regions: Vec<Region>,
    /// The attributes whose cuts produced this map (one for a candidate map,
    /// several after merging). Used for reporting and to bound query
    /// complexity.
    pub source_attributes: Vec<String>,
}

impl DataMap {
    /// Create a map from regions and the attributes that produced it.
    pub fn new(regions: Vec<Region>, source_attributes: Vec<String>) -> Self {
        DataMap {
            regions,
            source_attributes,
        }
    }

    /// Number of regions (the paper's readability constraint caps this at ~8).
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Total number of tuples covered by the map's regions.
    pub fn covered_count(&self) -> usize {
        self.regions.iter().map(Region::count).sum()
    }

    /// The per-region covers relative to a reference population size.
    pub fn covers(&self, reference_size: usize) -> Vec<f64> {
        self.regions
            .iter()
            .map(|r| r.cover(reference_size))
            .collect()
    }

    /// The per-region tuple counts.
    pub fn region_counts(&self) -> Vec<u64> {
        self.regions.iter().map(|r| r.count() as u64).collect()
    }

    /// Entropy (bits) of the map's cover distribution — the ranking score of
    /// Section 3.4. Maps with many balanced regions score high; maps that
    /// isolate a tiny outlier region score low. Computed from the regions'
    /// stored counts.
    pub fn entropy(&self) -> f64 {
        entropy_of_counts(&self.region_counts())
    }

    /// The maximum number of predicates over the map's region queries.
    pub fn max_predicates(&self) -> usize {
        self.regions
            .iter()
            .map(Region::num_predicates)
            .max()
            .unwrap_or(0)
    }

    /// The label vector of the map's *underlying variable* (Definition 2 of
    /// the paper): for every row of the table, the index of the region that
    /// contains it, or [`NO_REGION`] if none does.
    ///
    /// `table_rows` is the total number of rows of the table the regions'
    /// bitmaps range over. Every region must hold its rows
    /// ([`Region::holds_rows`]): a released one has none to label.
    pub fn region_labels(&self, table_rows: usize) -> Vec<u32> {
        let mut labels = vec![NO_REGION; table_rows];
        for (idx, region) in self.regions.iter().enumerate() {
            assert!(
                region.holds_rows(),
                "region {region} holds no rows to label"
            );
            for row in region.selection.iter_ones() {
                if row < table_rows {
                    labels[row] = idx as u32;
                }
            }
        }
        labels
    }

    /// True if the regions are pairwise disjoint. Every region must hold its
    /// rows ([`Region::holds_rows`]): released ones have none to compare.
    pub fn regions_are_disjoint(&self) -> bool {
        for region in &self.regions {
            assert!(
                region.holds_rows(),
                "region {region} holds no rows to compare"
            );
        }
        for i in 0..self.regions.len() {
            for j in (i + 1)..self.regions.len() {
                if !self.regions[i]
                    .selection
                    .is_disjoint(&self.regions[j].selection)
                {
                    return false;
                }
            }
        }
        true
    }

    /// Drop regions that cover no tuples.
    pub fn drop_empty_regions(&mut self) {
        self.regions.retain(|r| !r.is_empty());
    }
}

impl fmt::Display for DataMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "map on [{}], {} regions:",
            self.source_attributes.join(", "),
            self.num_regions()
        )?;
        for (i, region) in self.regions.iter().enumerate() {
            writeln!(f, "  #{i}: {region}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_columnar::Bitmap;
    use atlas_query::{ConjunctiveQuery, Predicate};

    fn region(table_rows: usize, rows: &[usize], attr: &str) -> Region {
        Region::new(
            ConjunctiveQuery::all("t").and(Predicate::range(attr, 0.0, 1.0)),
            Bitmap::from_indices(table_rows, rows.iter().copied()),
        )
    }

    #[test]
    fn counts_covers_and_entropy() {
        let map = DataMap::new(
            vec![region(8, &[0, 1, 2, 3], "a"), region(8, &[4, 5, 6, 7], "a")],
            vec!["a".to_string()],
        );
        assert_eq!(map.num_regions(), 2);
        assert_eq!(map.covered_count(), 8);
        assert_eq!(map.covers(8), vec![0.5, 0.5]);
        assert!((map.entropy() - 1.0).abs() < 1e-12);
        assert_eq!(map.max_predicates(), 1);
    }

    #[test]
    fn entropy_prefers_balanced_maps() {
        let balanced = DataMap::new(
            vec![region(8, &[0, 1, 2, 3], "a"), region(8, &[4, 5, 6, 7], "a")],
            vec!["a".to_string()],
        );
        let skewed = DataMap::new(
            vec![region(8, &[0], "a"), region(8, &[1, 2, 3, 4, 5, 6, 7], "a")],
            vec!["a".to_string()],
        );
        let four_way = DataMap::new(
            vec![
                region(8, &[0, 1], "a"),
                region(8, &[2, 3], "a"),
                region(8, &[4, 5], "a"),
                region(8, &[6, 7], "a"),
            ],
            vec!["a".to_string()],
        );
        assert!(balanced.entropy() > skewed.entropy());
        assert!(four_way.entropy() > balanced.entropy());
    }

    #[test]
    fn labels_and_partition_checks() {
        let map = DataMap::new(
            vec![region(6, &[0, 1, 2], "a"), region(6, &[3, 4, 5], "a")],
            vec!["a".to_string()],
        );
        assert_eq!(map.region_labels(6), vec![0, 0, 0, 1, 1, 1]);
        assert!(map.regions_are_disjoint());

        let overlapping = DataMap::new(
            vec![region(6, &[0, 1, 2], "a"), region(6, &[2, 3], "a")],
            vec!["a".to_string()],
        );
        assert!(!overlapping.regions_are_disjoint());

        let partial = DataMap::new(vec![region(6, &[0, 1], "a")], vec!["a".to_string()]);
        assert!(partial.regions_are_disjoint());
        assert_eq!(partial.covered_count(), 2);
        assert_eq!(
            partial.region_labels(6),
            vec![0, 0, NO_REGION, NO_REGION, NO_REGION, NO_REGION]
        );
    }

    #[test]
    #[should_panic(expected = "holds no rows to label")]
    fn a_released_region_has_no_labels() {
        let released = Region::released(ConjunctiveQuery::all("t"), 2);
        let map = DataMap::new(vec![region(6, &[0, 1], "a"), released], vec!["a".into()]);
        let _ = map.region_labels(6);
    }

    #[test]
    #[should_panic(expected = "holds no rows to compare")]
    fn released_regions_are_not_called_disjoint() {
        let mut map = DataMap::new(
            vec![region(6, &[0, 1], "a"), region(6, &[0, 1], "a")],
            vec!["a".to_string()],
        );
        map.regions.iter_mut().for_each(Region::release_rows);
        let _ = map.regions_are_disjoint();
    }

    #[test]
    fn drop_empty_regions_removes_only_empty_ones() {
        let mut map = DataMap::new(
            vec![
                region(4, &[0, 1], "a"),
                region(4, &[], "a"),
                region(4, &[2], "a"),
            ],
            vec!["a".to_string()],
        );
        map.drop_empty_regions();
        assert_eq!(map.num_regions(), 2);
    }

    #[test]
    fn display_mentions_attributes_and_regions() {
        let map = DataMap::new(vec![region(4, &[0, 1], "age")], vec!["age".to_string()]);
        let text = map.to_string();
        assert!(text.contains("age"));
        assert!(text.contains("1 regions"));
    }
}
