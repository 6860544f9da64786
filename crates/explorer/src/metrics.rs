//! Readability and quality metrics over maps and results.
//!
//! Section 2 of the paper states the convenience requirements explicitly: few
//! maps, at most ~8 regions per map, at most ~3 predicates per query. The
//! evaluation (experiment E8) scores Atlas and every baseline on these
//! metrics, plus cluster-recovery quality when ground truth is available.

use atlas_core::{DataMap, RankedMap};
use atlas_stats::{adjusted_rand_index, normalized_mutual_information, purity};

/// Readability metrics of a set of maps.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadabilityReport {
    /// Number of maps.
    pub num_maps: usize,
    /// Largest number of regions in any map.
    pub max_regions: usize,
    /// Mean number of regions per map.
    pub mean_regions: f64,
    /// Largest number of predicates in any region query.
    pub max_predicates: usize,
    /// Mean entropy (balance) of the maps, in bits.
    pub mean_entropy: f64,
    /// True if every map satisfies the paper's constraints (≤ `region_limit`
    /// regions and ≤ `predicate_limit` predicates).
    pub within_constraints: bool,
}

impl ReadabilityReport {
    /// Compute the report for a set of maps against the given limits.
    pub fn compute(maps: &[DataMap], region_limit: usize, predicate_limit: usize) -> Self {
        let num_maps = maps.len();
        let max_regions = maps.iter().map(DataMap::num_regions).max().unwrap_or(0);
        let mean_regions = if num_maps == 0 {
            0.0
        } else {
            maps.iter().map(DataMap::num_regions).sum::<usize>() as f64 / num_maps as f64
        };
        let max_predicates = maps.iter().map(DataMap::max_predicates).max().unwrap_or(0);
        let mean_entropy = if num_maps == 0 {
            0.0
        } else {
            maps.iter().map(DataMap::entropy).sum::<f64>() / num_maps as f64
        };
        ReadabilityReport {
            num_maps,
            max_regions,
            mean_regions,
            max_predicates,
            mean_entropy,
            within_constraints: max_regions <= region_limit && max_predicates <= predicate_limit,
        }
    }
}

/// Cluster-recovery quality of one map against planted ground-truth labels.
#[derive(Debug, Clone, PartialEq)]
pub struct MapQuality {
    /// Adjusted Rand Index between the map's regions and the ground truth.
    pub ari: f64,
    /// Normalised mutual information between the map's regions and the truth.
    pub nmi: f64,
    /// Purity of the map's regions with respect to the truth.
    pub purity: f64,
    /// Fraction of the reference rows that fall in some region of the map.
    pub coverage: f64,
}

impl MapQuality {
    /// Score a map against ground-truth labels (one label per table row; rows
    /// with no ground truth can use any value as long as they are outside the
    /// map's regions).
    pub fn against_truth(map: &DataMap, truth: &[u32]) -> Self {
        let labels = map.region_labels(truth.len());
        // Restrict both vectors to rows the map actually covers.
        let mut covered_map = Vec::new();
        let mut covered_truth = Vec::new();
        for (l, t) in labels.iter().zip(truth.iter()) {
            if *l != atlas_core::map::NO_REGION {
                covered_map.push(*l);
                covered_truth.push(*t);
            }
        }
        let coverage = if truth.is_empty() {
            0.0
        } else {
            covered_map.len() as f64 / truth.len() as f64
        };
        if covered_map.is_empty() {
            return MapQuality {
                ari: 0.0,
                nmi: 0.0,
                purity: 0.0,
                coverage,
            };
        }
        MapQuality {
            ari: adjusted_rand_index(&covered_map, &covered_truth),
            nmi: normalized_mutual_information(&covered_map, &covered_truth),
            purity: purity(&covered_map, &covered_truth),
            coverage,
        }
    }

    /// The best (highest-ARI) quality over a list of ranked maps, together
    /// with the index of the best map. Returns `None` for an empty list.
    pub fn best_of(maps: &[RankedMap], truth: &[u32]) -> Option<(usize, MapQuality)> {
        maps.iter()
            .enumerate()
            .map(|(i, m)| (i, MapQuality::against_truth(&m.map, truth)))
            .max_by(|a, b| a.1.ari.total_cmp(&b.1.ari))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::{Atlas, AtlasConfig, MapResult, MergeStrategy};
    use atlas_datagen::MixtureGenerator;
    use atlas_query::ConjunctiveQuery;
    use std::sync::Arc;

    fn maps_of(result: &MapResult) -> Vec<DataMap> {
        result
            .maps
            .iter()
            .map(|ranked| ranked.map.clone())
            .collect()
    }

    #[test]
    fn readability_report_on_atlas_output_is_within_constraints() {
        let ds = MixtureGenerator::with_shape(2000, 3, 2, 2, 21).generate();
        let atlas = Atlas::new(Arc::new(ds.table), AtlasConfig::default()).unwrap();
        let result = atlas.explore(&ConjunctiveQuery::all("mixture")).unwrap();
        let report = ReadabilityReport::compute(&maps_of(&result), 8, 3);
        assert!(report.within_constraints, "{report:?}");
        assert!(report.num_maps >= 1);
        assert!(report.max_regions >= 2);
        assert!(report.mean_regions >= 2.0);
        assert!(report.mean_entropy > 0.0);
    }

    #[test]
    fn readability_report_flags_violations() {
        // An artificially huge map violates the region constraint.
        let ds = MixtureGenerator::with_shape(500, 2, 1, 0, 3).generate();
        let table = Arc::new(ds.table);
        let config = AtlasConfig {
            max_regions_per_map: 64,
            merge: MergeStrategy::Product,
            cut: atlas_core::CutConfig {
                num_splits: 6,
                ..atlas_core::CutConfig::default()
            },
            ..AtlasConfig::default()
        };
        let atlas = Atlas::new(table, config).unwrap();
        let result = atlas.explore(&ConjunctiveQuery::all("mixture")).unwrap();
        let report = ReadabilityReport::compute(&maps_of(&result), 2, 3);
        assert!(!report.within_constraints);
        // Empty input edge case.
        let empty = ReadabilityReport::compute(&[], 8, 3);
        assert_eq!(empty.num_maps, 0);
        assert!(empty.within_constraints);
    }

    #[test]
    fn map_quality_recovers_planted_clusters() {
        let ds = MixtureGenerator::with_shape(3000, 4, 2, 1, 17).generate();
        let truth = ds.labels.clone();
        let atlas = Atlas::new(Arc::new(ds.table), AtlasConfig::quality()).unwrap();
        let result = atlas.explore(&ConjunctiveQuery::all("mixture")).unwrap();
        let (_, quality) = MapQuality::best_of(&result.maps, &truth).unwrap();
        assert!(
            quality.ari > 0.6,
            "expected good cluster recovery, got {quality:?}"
        );
        assert!(quality.coverage > 0.99);
        assert!(quality.purity > 0.7);
        assert!(quality.nmi > 0.5);
    }

    #[test]
    fn map_quality_of_uninformative_map_is_low() {
        let ds = MixtureGenerator::with_shape(1500, 3, 2, 2, 29).generate();
        let truth = ds.labels.clone();
        // A map built only on a noise dimension cannot recover the clusters.
        let table = Arc::new(ds.table);
        let config = AtlasConfig {
            attributes: Some(vec!["noise_0".to_string()]),
            ..AtlasConfig::default()
        };
        let atlas = Atlas::new(table, config).unwrap();
        let result = atlas.explore(&ConjunctiveQuery::all("mixture")).unwrap();
        let (_, quality) = MapQuality::best_of(&result.maps, &truth).unwrap();
        assert!(
            quality.ari < 0.2,
            "noise map should not recover clusters: {quality:?}"
        );
    }

    #[test]
    fn best_of_empty_is_none() {
        assert!(MapQuality::best_of(&[], &[0, 1, 0]).is_none());
    }
}
