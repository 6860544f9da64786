//! End-to-end engine configuration.

use crate::cluster::ClusteringConfig;
use crate::cut::CutConfig;
use crate::distance::MapDistanceMetric;
use crate::error::{AtlasError, Result};
use std::time::Duration;

/// How the maps of one cluster are combined into a representative map
/// (Section 3.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeStrategy {
    /// The product operator `M1 × M2`: intersect every region of the first
    /// map with every region of the second. Fast and "natural", but unlikely
    /// to reveal clusters.
    Product,
    /// The composition operator `M1 ∘ M2`: re-cut every region of the first
    /// map on the attributes of the other maps, so split points adapt locally.
    /// More expensive, more likely to reveal clusters.
    #[default]
    Composition,
}

/// Configuration of the whole Atlas pipeline.
///
/// The defaults follow the choices the paper argues for: two-way cuts, the
/// Variation-of-Information distance (normalised so one threshold works
/// across datasets), single-linkage agglomerative clustering capped at three
/// attributes per cluster, composition merging, entropy ranking, and the
/// readability constraints of Section 2 (≤ 8 regions per map, ≤ 3 predicates
/// per query, at most a dozen maps shown).
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasConfig {
    /// Configuration of the `CUT` primitive.
    pub cut: CutConfig,
    /// Dependency measure between candidate maps.
    pub distance: MapDistanceMetric,
    /// Configuration of the agglomerative clustering step.
    pub clustering: ClusteringConfig,
    /// How clusters of candidate maps are merged.
    pub merge: MergeStrategy,
    /// Maximum number of regions per result map ("a map with more than 8
    /// regions is hard to read").
    pub max_regions_per_map: usize,
    /// Maximum number of maps returned ("less than a dozen").
    pub max_maps: usize,
    /// If set, candidate generation only considers these attributes.
    pub attributes: Option<Vec<String>>,
    /// Drop result regions that cover no tuples.
    pub drop_empty_regions: bool,
    /// Number of threads the engine's pipeline phases may use (candidate
    /// generation, the pairwise distance matrix, per-cluster merging, and
    /// profile building at [`crate::engine::Atlas::builder`] time).
    ///
    /// Defaults to the number of hardware threads
    /// ([`AtlasConfig::default_parallelism`]); the `ATLAS_PARALLELISM`
    /// environment variable overrides the default (CI uses it to exercise the
    /// sequential path). `1` disables the thread pool entirely: every phase
    /// runs inline on the calling thread, exactly as before the pool existed.
    ///
    /// **Determinism:** every parallel phase assembles its results in input
    /// order, so with the paper's (pure) cut the ranked maps are
    /// **bit-for-bit identical** at every parallelism level. A cut strategy
    /// with order-dependent interior state (e.g. a shared RNG stream, like
    /// [`crate::baselines::RandomCut`]) only keeps run-to-run determinism at
    /// `parallelism = 1`.
    pub parallelism: usize,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            cut: CutConfig::default(),
            distance: MapDistanceMetric::NormalizedVI,
            clustering: ClusteringConfig::default(),
            merge: MergeStrategy::Composition,
            max_regions_per_map: 8,
            max_maps: 10,
            attributes: None,
            drop_empty_regions: true,
            parallelism: AtlasConfig::default_parallelism(),
        }
    }
}

impl AtlasConfig {
    /// The default value of [`AtlasConfig::parallelism`]: the
    /// `ATLAS_PARALLELISM` environment variable if set to a positive integer,
    /// the number of hardware threads otherwise.
    pub fn default_parallelism() -> usize {
        match std::env::var("ATLAS_PARALLELISM")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => minirayon::available_threads(),
        }
    }

    /// This configuration with the given [`AtlasConfig::parallelism`].
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }
    /// Validate the configuration. The predicates a region query adds to the
    /// user's are bounded by [`ClusteringConfig::max_cluster_size`] (one per
    /// attribute of its cluster).
    pub fn validate(&self) -> Result<()> {
        self.cut.validate()?;
        self.clustering.validate()?;
        if self.max_regions_per_map < 2 {
            return Err(AtlasError::InvalidConfig(
                "max_regions_per_map must be at least 2".to_string(),
            ));
        }
        if self.max_maps == 0 {
            return Err(AtlasError::InvalidConfig(
                "max_maps must be at least 1".to_string(),
            ));
        }
        if self.parallelism == 0 {
            return Err(AtlasError::InvalidConfig(
                "parallelism must be at least 1 (1 = sequential)".to_string(),
            ));
        }
        Ok(())
    }

    /// A configuration tuned for speed: equi-width cuts, product merging.
    pub fn fast() -> Self {
        AtlasConfig {
            cut: CutConfig {
                numeric: crate::cut::NumericCutStrategy::EquiWidth,
                ..CutConfig::default()
            },
            merge: MergeStrategy::Product,
            ..AtlasConfig::default()
        }
    }

    /// A configuration tuned for map quality: k-means cuts and composition
    /// merging (the default). Of the cut strategies, k-means explains the
    /// most variance of the sky survey's magnitudes and redshift (E2 in the
    /// committed `QUALITY.json`).
    pub fn quality() -> Self {
        AtlasConfig {
            cut: CutConfig {
                numeric: crate::cut::NumericCutStrategy::KMeans { max_iterations: 50 },
                ..CutConfig::default()
            },
            merge: MergeStrategy::Composition,
            ..AtlasConfig::default()
        }
    }
}

/// Options of one anytime exploration ([`crate::engine::Atlas::explore_iter`],
/// Section 5.1 of the paper): the pipeline runs on geometrically growing
/// samples of the working set until the budget is exhausted or the sample
/// covers everything.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreOptions {
    /// Wall-clock budget; the loop stops before starting an iteration once
    /// the budget is exceeded. `None` runs until the full working set has
    /// been explored (the result is then exact).
    pub budget: Option<Duration>,
    /// Size of the first sample (rows).
    pub initial_sample: usize,
    /// Multiplicative sample growth factor between iterations (must be > 1).
    pub growth_factor: f64,
    /// RNG seed for the sampling.
    pub seed: u64,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            budget: Some(Duration::from_millis(500)),
            initial_sample: 512,
            growth_factor: 2.0,
            seed: 42,
        }
    }
}

impl ExploreOptions {
    /// Options with no time budget: iterate until the result is exact.
    pub fn exhaustive() -> Self {
        ExploreOptions {
            budget: None,
            ..ExploreOptions::default()
        }
    }

    /// Validate the options.
    pub fn validate(&self) -> Result<()> {
        // NaN compares false both ways: reject anything not above 1.
        if self.growth_factor.is_nan() || self.growth_factor <= 1.0 {
            return Err(AtlasError::InvalidConfig(
                "growth_factor must be greater than 1".to_string(),
            ));
        }
        if self.initial_sample == 0 {
            return Err(AtlasError::InvalidConfig(
                "initial_sample must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_matches_paper_constraints() {
        let cfg = AtlasConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.cut.num_splits, 2);
        assert_eq!(cfg.max_regions_per_map, 8);
        assert_eq!(cfg.clustering.max_cluster_size, 3);
        assert!(cfg.max_maps <= 12);
        assert_eq!(cfg.merge, MergeStrategy::Composition);
    }

    #[test]
    fn presets_are_valid() {
        assert!(AtlasConfig::fast().validate().is_ok());
        assert!(AtlasConfig::quality().validate().is_ok());
        assert_eq!(AtlasConfig::fast().merge, MergeStrategy::Product);
    }

    #[test]
    fn inconsistent_configs_are_rejected() {
        let cfg = AtlasConfig {
            max_regions_per_map: 1,
            ..AtlasConfig::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = AtlasConfig {
            max_maps: 0,
            ..AtlasConfig::default()
        };
        assert!(cfg.validate().is_err());

        let mut cfg = AtlasConfig::default();
        cfg.clustering.max_cluster_size = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = AtlasConfig::default();
        cfg.cut.num_splits = 0;
        assert!(cfg.validate().is_err());

        let cfg = AtlasConfig {
            parallelism: 0,
            ..AtlasConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn parallelism_defaults_to_at_least_one_and_is_overridable() {
        assert!(AtlasConfig::default().parallelism >= 1);
        assert!(AtlasConfig::default_parallelism() >= 1);
        let cfg = AtlasConfig::default().with_parallelism(4);
        assert_eq!(cfg.parallelism, 4);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn explore_options_validate() {
        assert!(ExploreOptions::default().validate().is_ok());
        assert!(ExploreOptions::exhaustive().budget.is_none());
        for growth_factor in [1.0, f64::NAN] {
            let bad_growth = ExploreOptions {
                growth_factor,
                ..ExploreOptions::default()
            };
            assert!(bad_growth.validate().is_err(), "{growth_factor}");
        }
        let bad_sample = ExploreOptions {
            initial_sample: 0,
            ..ExploreOptions::default()
        };
        assert!(bad_sample.validate().is_err());
    }
}
