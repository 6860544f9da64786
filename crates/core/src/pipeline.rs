//! The pluggable stage traits of the Atlas pipeline.
//!
//! The paper's framework (Section 3) is a fixed sequence of four steps —
//! **cut**, **cluster by distance**, **merge**, **rank** — but each step
//! admits alternative algorithms: the paper itself discusses several cutting
//! strategies, three dependency measures, two merge operators, and the
//! evaluation compares against baselines that are really just different
//! choices for one of the steps. This module makes the seams explicit: every
//! step is a trait, the paper's algorithms are the default implementations,
//! and [`crate::engine::AtlasBuilder`] assembles any combination into one
//! prepared engine.
//!
//! | step | trait | paper default | alternatives in-tree |
//! |------|-------|---------------|----------------------|
//! | 1. candidate cuts | [`CutStrategy`] | [`PaperCut`] | [`crate::baselines::RandomCut`], [`crate::baselines::GridCut`] |
//! | 2. map distance | [`MapDistance`] | [`ViDistance`] | any [`MapDistanceMetric`] |
//! | 3. merging | [`MergePolicy`] | [`CompositionMerge`] | [`ProductMerge`], [`crate::baselines::DenseProductMerge`] |
//! | 4. ranking | [`Ranker`] | [`EntropyRanker`] | — |
//!
//! All stage traits are `Send + Sync`, so a prepared engine can be shared
//! across threads behind an `Arc`.

use crate::cut::{cut_attribute_in_context, CutConfig};
use crate::distance::{distance_matrix_with_pool, DistanceMatrix, MapDistanceMetric};
use crate::error::Result;
use crate::map::DataMap;
use crate::merge::product_maps;
use crate::profile::TableProfile;
use crate::rank::{rank_maps, RankedMap};
use atlas_columnar::{Bitmap, Table};
use atlas_query::ConjunctiveQuery;
use minirayon::ThreadPool;
use std::fmt;

/// Everything a pipeline stage may need: the table, its pre-computed
/// statistics, the cut configuration, the engine's cut strategy (so merge
/// policies that re-cut locally — composition — route through the same
/// strategy the candidates came from), and the engine's thread pool.
pub struct PipelineContext<'a> {
    /// The table being explored.
    pub table: &'a Table,
    /// Per-column statistics computed once when the engine was built.
    pub profile: &'a TableProfile,
    /// Configuration of the `CUT` primitive.
    pub cut_config: &'a CutConfig,
    /// The engine's cut strategy.
    pub cut_strategy: &'a dyn CutStrategy,
    /// Whether result regions covering no tuples are dropped.
    pub drop_empty_regions: bool,
    /// The engine's thread pool, sized by
    /// [`crate::AtlasConfig::parallelism`]. Stages are free to split their
    /// work across it; one-shot contexts use [`ThreadPool::sequential`].
    pub pool: &'a ThreadPool,
}

impl fmt::Debug for PipelineContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineContext")
            .field("table", &self.table.name())
            .field("cut_config", self.cut_config)
            .field("cut_strategy", &self.cut_strategy)
            .field("drop_empty_regions", &self.drop_empty_regions)
            .finish()
    }
}

/// Step 1 — break one attribute of a working set into a one-attribute map.
///
/// Returning `Ok(None)` means the attribute cannot be usefully cut (constant,
/// identifier-like, too many categories); the engine skips it rather than
/// failing, as Section 5.2 of the paper recommends.
pub trait CutStrategy: fmt::Debug + Send + Sync {
    /// A short human-readable name (used in reports and benchmarks).
    fn name(&self) -> &str;

    /// Cut `attribute` over `working`, extending `parent_query` per region.
    fn cut(
        &self,
        ctx: &PipelineContext<'_>,
        working: &Bitmap,
        parent_query: &ConjunctiveQuery,
        attribute: &str,
    ) -> Result<Option<DataMap>>;
}

/// Step 2 — the dependency distance between candidate maps.
pub trait MapDistance: fmt::Debug + Send + Sync {
    /// A short human-readable name (used in reports and benchmarks).
    fn name(&self) -> &str;

    /// The pairwise distance matrix over a set of candidate maps.
    ///
    /// Implementations may parallelise across `ctx.pool`; the result must not
    /// depend on the pool's thread count.
    fn matrix(&self, ctx: &PipelineContext<'_>, maps: &[DataMap]) -> DistanceMatrix;
}

/// Step 3 — combine the maps of one cluster into a representative map.
///
/// The engine merges clusters as tasks of `ctx.pool`, and an implementation
/// may split its own work across the same pool (nested scopes are fine: a
/// waiting task helps drain the queue). Whatever it splits, it must assemble
/// in input order and report the first error in input order, so the merged
/// map does not depend on the pool's thread count.
pub trait MergePolicy: fmt::Debug + Send + Sync {
    /// A short human-readable name (used in reports and benchmarks).
    fn name(&self) -> &str;

    /// Merge `members` (the candidate maps of one cluster) into one map.
    ///
    /// `working` is the working set the members were cut from; policies that
    /// need absolute density thresholds use it for the total count. Returns
    /// `Ok(None)` when the cluster yields no usable map.
    fn merge(
        &self,
        ctx: &PipelineContext<'_>,
        members: &[DataMap],
        working: &Bitmap,
    ) -> Result<Option<DataMap>>;
}

/// Step 4 — order the merged maps for presentation.
pub trait Ranker: fmt::Debug + Send + Sync {
    /// A short human-readable name (used in reports and benchmarks).
    fn name(&self) -> &str;

    /// Score and order the maps, best first.
    fn rank(&self, maps: Vec<DataMap>) -> Vec<RankedMap>;
}

/// The paper's `CUT` primitive (Definition 1): median / k-means / sketch
/// splits for ordinal attributes, frequency-balanced grouping for categorical
/// ones, driven by [`CutConfig`]. Statistics come from the engine's
/// [`TableProfile`], so whole-table explorations never re-scan columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperCut;

impl CutStrategy for PaperCut {
    fn name(&self) -> &str {
        "paper-cut"
    }

    fn cut(
        &self,
        ctx: &PipelineContext<'_>,
        working: &Bitmap,
        parent_query: &ConjunctiveQuery,
        attribute: &str,
    ) -> Result<Option<DataMap>> {
        cut_attribute_in_context(ctx, working, parent_query, attribute)
    }
}

/// The paper's dependency measures (Definition 2): Variation of Information
/// and its normalised variants, selected by [`MapDistanceMetric`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ViDistance {
    /// The concrete metric.
    pub metric: MapDistanceMetric,
}

impl MapDistance for ViDistance {
    fn name(&self) -> &str {
        match self.metric {
            MapDistanceMetric::VariationOfInformation => "variation-of-information",
            MapDistanceMetric::NormalizedVI => "normalized-vi",
            MapDistanceMetric::OneMinusNmi => "one-minus-nmi",
        }
    }

    fn matrix(&self, ctx: &PipelineContext<'_>, maps: &[DataMap]) -> DistanceMatrix {
        distance_matrix_with_pool(maps, ctx.table.num_rows(), self.metric, ctx.pool)
    }
}

/// The product operator `M1 × M2` (Definition 3): intersect every region of
/// the first map with every region of the second. Fast, grid-like.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProductMerge;

impl MergePolicy for ProductMerge {
    fn name(&self) -> &str {
        "product"
    }

    fn merge(
        &self,
        ctx: &PipelineContext<'_>,
        members: &[DataMap],
        _working: &Bitmap,
    ) -> Result<Option<DataMap>> {
        Ok(product_maps(members, ctx.drop_empty_regions))
    }
}

/// The composition operator `M1 ∘ M2` (Definition 4): re-cut every region of
/// the first map on the attributes of the other maps, through the engine's
/// [`CutStrategy`], so split points adapt locally. Regions whose local cut
/// fails are kept whole, so composition never loses coverage.
///
/// For each further attribute the current regions are re-cut as one
/// `ctx.pool` task each — the regions are disjoint and every cut reads only
/// its own — and the sub-regions are assembled in region order, so the map is
/// the same at every thread count; a one-thread pool is a plain in-order loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompositionMerge;

impl MergePolicy for CompositionMerge {
    fn name(&self) -> &str {
        "composition"
    }

    fn merge(
        &self,
        ctx: &PipelineContext<'_>,
        members: &[DataMap],
        _working: &Bitmap,
    ) -> Result<Option<DataMap>> {
        if members.is_empty() {
            return Ok(None);
        }
        // Pool workers inherit the dispatching thread's span context, as in
        // candidate generation, so kernel events attach under `phase.merge`.
        let parent = atlas_obs::current();
        let mut result = members[0].clone();
        for other in &members[1..] {
            let Some(attribute) = other.source_attributes.first().cloned() else {
                continue;
            };
            let cuts = ctx.pool.par_map(&result.regions, |region| {
                let _trace = atlas_obs::with_context(parent);
                ctx.cut_strategy
                    .cut(ctx, &region.selection, &region.query, &attribute)
            });
            let mut regions = Vec::new();
            for (region, sub) in result.regions.into_iter().zip(cuts) {
                match sub? {
                    Some(sub) => regions.extend(sub.regions),
                    None => regions.push(region),
                }
            }
            if ctx.drop_empty_regions {
                regions.retain(|r| !r.is_empty());
            }
            let mut attributes = result.source_attributes;
            if !attributes.contains(&attribute) {
                attributes.push(attribute);
            }
            result = DataMap::new(regions, attributes);
        }
        Ok(Some(result))
    }
}

/// The paper's ranking (Section 3.4): decreasing entropy of the cover
/// distribution, with deterministic tie-breaking.
#[derive(Debug, Clone, Copy, Default)]
pub struct EntropyRanker;

impl Ranker for EntropyRanker {
    fn name(&self) -> &str {
        "entropy"
    }

    fn rank(&self, maps: Vec<DataMap>) -> Vec<RankedMap> {
        rank_maps(maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_columnar::{DataType, Field, Schema, TableBuilder, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("size", DataType::Float),
            Field::new("weight", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        // Four well-separated clusters whose weight gaps differ per size group
        // (the composition-beats-product construction from merge.rs).
        let centres = [(10.0, 10.0), (10.0, 40.0), (100.0, 60.0), (100.0, 90.0)];
        for (cx, cy) in centres {
            for i in 0..25 {
                b.push_row(&[
                    Value::Float(cx + (i % 5) as f64),
                    Value::Float(cy + (i / 5) as f64),
                ])
                .unwrap();
            }
        }
        b.build().unwrap()
    }

    fn with_context<T>(
        table: &Table,
        strategy: &dyn CutStrategy,
        f: impl FnOnce(&PipelineContext<'_>) -> T,
    ) -> T {
        let profile = TableProfile::build(table, None);
        let cut_config = CutConfig::default();
        let ctx = PipelineContext {
            table,
            profile: &profile,
            cut_config: &cut_config,
            cut_strategy: strategy,
            drop_empty_regions: true,
            pool: ThreadPool::sequential(),
        };
        f(&ctx)
    }

    #[test]
    fn paper_cut_matches_the_standalone_cut_primitive() {
        let t = table();
        let working = t.full_selection();
        let query = ConjunctiveQuery::all("t");
        let via_trait = with_context(&t, &PaperCut, |ctx| {
            PaperCut
                .cut(ctx, &working, &query, "size")
                .unwrap()
                .unwrap()
        });
        let direct = crate::cut::cut_attribute(&t, &working, &query, "size", &CutConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(via_trait.region_counts(), direct.region_counts());
        assert_eq!(via_trait.source_attributes, direct.source_attributes);
    }

    #[test]
    fn default_stages_have_names() {
        assert_eq!(PaperCut.name(), "paper-cut");
        assert_eq!(ViDistance::default().name(), "normalized-vi");
        assert_eq!(ProductMerge.name(), "product");
        assert_eq!(CompositionMerge.name(), "composition");
        assert_eq!(EntropyRanker.name(), "entropy");
    }

    #[test]
    fn composition_merge_recuts_through_the_context_strategy() {
        let t = table();
        let working = t.full_selection();
        let query = ConjunctiveQuery::all("t");
        let composed = with_context(&t, &PaperCut, |ctx| {
            let m_size = PaperCut
                .cut(ctx, &working, &query, "size")
                .unwrap()
                .unwrap();
            let m_weight = PaperCut
                .cut(ctx, &working, &query, "weight")
                .unwrap()
                .unwrap();
            CompositionMerge
                .merge(ctx, &[m_size, m_weight], &working)
                .unwrap()
                .unwrap()
        });
        // Local re-cutting isolates the four planted clusters of 25.
        let mut counts = composed.region_counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![25, 25, 25, 25]);
        assert!(composed.regions_are_disjoint());
    }

    #[test]
    fn product_merge_builds_the_global_grid() {
        let t = table();
        let working = t.full_selection();
        let query = ConjunctiveQuery::all("t");
        let product = with_context(&t, &PaperCut, |ctx| {
            let m_size = PaperCut
                .cut(ctx, &working, &query, "size")
                .unwrap()
                .unwrap();
            let m_weight = PaperCut
                .cut(ctx, &working, &query, "weight")
                .unwrap()
                .unwrap();
            ProductMerge
                .merge(ctx, &[m_size, m_weight], &working)
                .unwrap()
                .unwrap()
        });
        assert!(product.num_regions() >= 2);
        assert!(product.regions_are_disjoint());
        assert_eq!(product.covered_count(), 100);
    }

    #[test]
    fn merging_no_members_yields_no_map() {
        let t = table();
        let working = t.full_selection();
        with_context(&t, &PaperCut, |ctx| {
            assert!(ProductMerge.merge(ctx, &[], &working).unwrap().is_none());
            assert!(CompositionMerge
                .merge(ctx, &[], &working)
                .unwrap()
                .is_none());
        });
    }
}
