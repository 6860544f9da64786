//! # atlas-core
//!
//! The Atlas map-generation engine — the primary contribution of "Fast
//! Cartography for Data Explorers" (Sellam & Kersten, VLDB 2013).
//!
//! Atlas answers queries with queries: given a user query over a relational
//! table, it summarises the matching tuples with a handful of **data maps**.
//! A [`DataMap`] is a small set of conjunctive queries, each describing one
//! region of the working set. The framework has four steps (Section 3 of the
//! paper), each implemented by a module here:
//!
//! 1. **Candidate maps** ([`cut`], [`candidates`]) — every usable attribute is
//!    broken down with the `CUT` primitive into a simple one-attribute map
//!    (two regions by default, per the paper's performance-over-accuracy
//!    choice).
//! 2. **Clustering** ([`distance`], [`cluster`]) — candidate maps that are
//!    statistically dependent describe the same aspect of the data; they are
//!    grouped by agglomerative clustering under the Variation-of-Information
//!    distance.
//! 3. **Merging** ([`merge`]) — the maps of each cluster are combined into a
//!    single representative map with either the *product* or the *composition*
//!    operator.
//! 4. **Ranking** ([`rank`]) — result maps are ordered by decreasing entropy
//!    of their cover distribution, so balanced, multi-region maps come first
//!    and outlier-revealing maps come last.
//!
//! The [`engine::Atlas`] type drives the whole pipeline. It is assembled by
//! [`engine::AtlasBuilder`], and per-column statistics are computed **once**
//! at build time into a shared [`profile::TableProfile`]. Step 1 runs through
//! a [`pipeline::CutStrategy`] (the paper's `CUT` unless the builder is given
//! another); steps 1–4 over an evaluated working set are one function,
//! [`engine::explore_from_source`], whose merge is the one
//! [`config::AtlasConfig::merge`] names, over a [`pipeline::ExploreSource`] —
//! the engine's table, or the distributed coordinator's shards. The engine is
//! `Send + Sync`, so one `Arc<Atlas>` serves concurrent explorations — and
//! each exploration itself runs multicore: the hot phases (candidate cuts,
//! the pairwise distance matrix, per-cluster merging, profile building) split
//! across a scoped thread pool sized by [`config::AtlasConfig::parallelism`],
//! with results assembled in input order so the ranked maps are bit-for-bit
//! identical at every parallelism level.
//!
//! The sampling-based anytime refinement of Section 5.1 runs through the same
//! engine ([`engine::Atlas::explore_iter`] /
//! [`engine::Atlas::explore_anytime`], driven by [`config::ExploreOptions`]).
//! [`baselines`] provides the comparison systems used by the evaluation
//! (exhaustive product, random maps, single-attribute maps and a grid-density
//! subspace-clustering stand-in), each built from the stage traits and the
//! paper's own stages rather than as a separate pipeline.

#![warn(missing_docs)]

pub mod baselines;
pub mod candidates;
pub mod cluster;
pub mod config;
pub mod cut;
pub mod distance;
pub mod engine;
pub mod error;
#[cfg(test)]
mod gather_tests;
pub mod map;
pub mod merge;
pub mod pipeline;
pub mod precompute;
pub mod profile;
pub mod rank;
pub mod region;

pub use candidates::{generate_candidates, generate_candidates_in_context, CandidateSet};
pub use cluster::{cluster_maps, cluster_maps_with_pool, ClusteringConfig, Linkage};
pub use config::{AtlasConfig, ExploreOptions, MergeStrategy};
pub use cut::{
    cut_attribute, cut_counted_from_source, cut_from_source, cuts_from_source, CutConfig, CutPlan,
    CutSource, Extent, NumericCutStrategy, Partition, TableCutSource,
};
pub use distance::{
    contingency_within, distance_matrix, distance_matrix_from, distance_matrix_with_pool,
    metric_of, DistanceMatrix, MapDistanceMetric,
};
pub use engine::{
    enforce_region_cap, enforce_region_cap_within, explore_from_source, AnytimeIteration,
    AnytimeResult, Atlas, AtlasBuilder, ExploreIter, MapResult, PhaseTimings,
};
pub use error::{AtlasError, Result};
pub use map::DataMap;
pub use merge::{product_maps, product_of_counts};
pub use minirayon::ThreadPool;
pub use pipeline::{
    AttributeStats, CompositionMerge, CutStrategy, ExploreSource, MergePolicy, PaperCut,
    PipelineContext, ProductMerge,
};
pub use precompute::{CacheStats, CachedAtlas};
pub use profile::{ColumnProfile, ProfileStats, TableProfile};
pub use rank::{rank_maps, RankedMap};
pub use region::Region;
