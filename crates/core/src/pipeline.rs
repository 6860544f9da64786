//! The stage traits of the Atlas pipeline: how a working set is cut, and how
//! the maps of one cluster are merged.
//!
//! The paper's framework (Section 3) is a fixed sequence of four steps —
//! **cut**, **cluster by distance**, **merge**, **rank**. Two of them have
//! more than one implementation in-tree, and those two are traits here: the
//! evaluation's random and grid baselines are other cuts, and the paper's two
//! merge operators (plus the grid baseline's dense product) are merges. The
//! other two steps have one body each, run by
//! [`crate::engine::explore_from_source`]: distances are
//! [`crate::distance_matrix_from`] under [`crate::AtlasConfig::distance`],
//! over the contingency tables its [`ExploreSource`] counts, and ranking is
//! [`crate::rank_maps`].
//!
//! | step | trait | the engine runs | other implementations in-tree |
//! |------|-------|-----------------|-------------------------------|
//! | 1. candidate cuts | [`CutStrategy`] | [`PaperCut`], or any set with [`crate::AtlasBuilder::cut_strategy`] | [`crate::baselines::RandomCut`], [`crate::baselines::GridCut`] |
//! | 3. merging | [`MergePolicy`] | [`ProductMerge`] or [`CompositionMerge`], as [`crate::AtlasConfig::merge`] says | [`crate::baselines::DenseProductMerge`] |
//!
//! Both traits are `Send + Sync`, so a prepared engine can be shared across
//! threads behind an `Arc`.

use crate::candidates::{cut_candidates, CandidateSet};
use crate::cut::{cut_attribute_in_context, CutConfig};
use crate::distance::contingency_within;
use crate::error::Result;
use crate::map::DataMap;
use crate::merge::product_maps;
use crate::profile::TableProfile;
use crate::region::Region;
use atlas_columnar::{Bitmap, ColumnStats, Table};
use atlas_query::ConjunctiveQuery;
use atlas_stats::ContingencyTable;
use minirayon::ThreadPool;
use std::borrow::Cow;
use std::cmp::Reverse;
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
    ///
    /// `stats` may hold the statistics of `attribute` over `working` —
    /// derived by a composition, or read by an earlier cut of the same
    /// working set. They are then exactly what a walk of `working` returns,
    /// and a strategy that reads statistics uses them instead of walking;
    /// when it is empty, such a strategy leaves the statistics it read there,
    /// for the caller to keep for the rest of the explore. A strategy that
    /// reads no statistics ignores it, and a caller that holds none passes
    /// `&mut None`.
    fn cut<'a>(
        &self,
        ctx: &PipelineContext<'a>,
        working: &Bitmap,
        parent_query: &ConjunctiveQuery,
        attribute: &str,
        stats: &mut Option<Cow<'a, ColumnStats>>,
    ) -> Result<Option<DataMap>>;

    /// [`CutStrategy::cut`] for a caller that reads only the regions'
    /// queries and counts — the last re-cut of a served composition
    /// ([`ExploreSource::recut`], `counted`): the same regions, in the same
    /// order, with the same counts, but any of them may be built without
    /// rows ([`Region::released`]). The default is [`CutStrategy::cut`].
    fn cut_released<'a>(
        &self,
        ctx: &PipelineContext<'a>,
        working: &Bitmap,
        parent_query: &ConjunctiveQuery,
        attribute: &str,
        stats: &mut Option<Cow<'a, ColumnStats>>,
    ) -> Result<Option<DataMap>> {
        self.cut(ctx, working, parent_query, attribute, stats)
    }
}

/// The statistics of one attribute over an explore's working set, beside the
/// attribute's name: what a candidate cut read and an explore holds until it
/// ends ([`ExploreSource::candidates`]).
pub type AttributeStats<'a> = (String, Cow<'a, ColumnStats>);

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

/// The paper's `CUT` primitive (Definition 1): median / equi-width / k-means
/// splits for ordinal attributes, frequency-balanced grouping for categorical
/// ones, driven by [`CutConfig`]. Statistics come from the caller when it
/// holds them, else from the engine's [`TableProfile`], so whole-table
/// explorations never re-scan columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperCut;

impl CutStrategy for PaperCut {
    fn name(&self) -> &str {
        "paper-cut"
    }

    fn cut<'a>(
        &self,
        ctx: &PipelineContext<'a>,
        working: &Bitmap,
        parent_query: &ConjunctiveQuery,
        attribute: &str,
        stats: &mut Option<Cow<'a, ColumnStats>>,
    ) -> Result<Option<DataMap>> {
        cut_attribute_in_context(ctx, working, parent_query, attribute, stats, false)
    }

    /// Counts each region off the statistics the cut was planned from,
    /// where they carry counts ([`crate::CutPlan::counts_from_stats`]).
    fn cut_released<'a>(
        &self,
        ctx: &PipelineContext<'a>,
        working: &Bitmap,
        parent_query: &ConjunctiveQuery,
        attribute: &str,
        stats: &mut Option<Cow<'a, ColumnStats>>,
    ) -> Result<Option<DataMap>> {
        cut_attribute_in_context(ctx, working, parent_query, attribute, stats, true)
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
/// The level loop — attribute order, keeping a region whole, dropping empty
/// regions, accumulating attributes — is the one body every composition
/// runs; how one level's regions are re-cut on one attribute is its
/// [`ExploreSource::recut`]. In-process, that is one `ctx.pool` task per
/// region — the regions are disjoint and every cut reads only its own — with
/// the sub-regions assembled in region order, so the map is the same at
/// every thread count; a one-thread pool is a plain in-order loop.
///
/// The first re-cut knows more than the cut of one region does. The regions of
/// the first map usually partition the working set (they miss only the rows
/// whose first attribute is NULL), and the caller usually holds the working
/// set's statistics of the attribute they are re-cut on: the profile's for a
/// whole-table working set, the candidate cut's otherwise
/// ([`ExploreSource::candidates`]). Then every region's statistics but
/// the largest one's are walked, and the largest region's are the working
/// set's minus the others' ([`ColumnStats::without`]) — the same statistics,
/// bit for bit, for one walk fewer; they reach the cut in its `stats`
/// ([`CutStrategy::cut`]). A later re-cut, a first map that does not
/// partition the working set, and a summary too large to subtract exactly
/// walk every region.
///
/// The last re-cut knows its sub-regions are final. When the caller keeps no
/// rows ([`crate::Atlas::explore_released`]), nothing intersects them:
/// ranking, the region cap and the answer read only their counts, and the
/// statistics each region's cut was planned from count them exactly. So that
/// re-cut goes through [`CutStrategy::cut_released`], which builds them
/// without rows. Every earlier re-cut is partitioned, because the next one
/// walks its sub-regions.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompositionMerge;

impl CompositionMerge {
    /// The composition over `source`, with `held(attribute)` the statistics
    /// of `attribute` over its working set the caller holds, if any, and
    /// `released` whether the caller keeps no rows of the last level.
    pub(crate) fn compose<'s, 'a>(
        source: &impl ExploreSource<'a>,
        members: &[DataMap],
        held: impl Fn(&str) -> Option<&'s ColumnStats>,
        drop_empty_regions: bool,
        released: bool,
    ) -> Result<Option<DataMap>> {
        let Some((first, others)) = members.split_first() else {
            return Ok(None);
        };
        // The first map's regions are borrowed; only those a re-cut keeps
        // whole are copied into the result.
        let mut regions: Vec<Cow<'_, Region>> = first.regions.iter().map(Cow::Borrowed).collect();
        let mut attributes = first.source_attributes.clone();
        let mut first_recut = true;
        for (level, other) in others.iter().enumerate() {
            let Some(attribute) = other.source_attributes.first().cloned() else {
                continue;
            };
            let counted = released && level + 1 == others.len();
            let whole = if first_recut { held(&attribute) } else { None };
            first_recut = false;
            let cuts = source.recut(&regions, &attribute, whole, counted)?;
            let mut next = Vec::new();
            for (region, sub) in regions.into_iter().zip(cuts) {
                match sub {
                    Some(sub) => next.extend(sub.regions.into_iter().map(Cow::Owned)),
                    None => next.push(region),
                }
            }
            if drop_empty_regions {
                next.retain(|r| !r.is_empty());
            }
            regions = next;
            if !attributes.contains(&attribute) {
                attributes.push(attribute);
            }
        }
        let regions = regions.into_iter().map(Cow::into_owned).collect();
        Ok(Some(DataMap::new(regions, attributes)))
    }
}

/// What an explore reads its rows through once its working set is known:
/// the candidate maps (step 1), the contingency table of a pair of them
/// (step 2), and the product or the re-cuts of a cluster's merge (step 3).
/// Like a [`crate::CutSource`], a source has its working set built in, and
/// everything else the body reads is a region's query or count.
/// [`crate::engine::explore_from_source`], the one explore body, runs over
/// it. The two implementations are the engine's — a [`PipelineContext`]
/// paired with a working set of its table, cut through the engine's
/// [`CutStrategy`] — and the serve crate's remote source, a working set at
/// shard servers holding disjoint segment subsets, which asks them for
/// counts and builds every region without rows. A source whose answers equal the in-process ones —
/// the same queries, counts and cells — makes the explore equal it bit for
/// bit, because the body around them is the same.
///
/// Statistics held in `'a` live as long as the explore.
pub trait ExploreSource<'a>: Sync {
    /// Step 1: one candidate map per attribute of `attributes` that can be
    /// cut (every column when `None`), in order, and the statistics over the
    /// working set the cuts read, by attribute, for the merge phase to
    /// re-read.
    fn candidates(
        &self,
        user_query: &ConjunctiveQuery,
        attributes: Option<&[String]>,
    ) -> Result<(CandidateSet, Vec<AttributeStats<'a>>)>;

    /// Step 2's input: the contingency table of two candidates `a` and `b`,
    /// cell `(i, j)` holding the rows in `a`'s region `i` and `b`'s region
    /// `j`.
    fn contingency(&self, a: &DataMap, b: &DataMap) -> Result<ContingencyTable>;

    /// Step 3 under the product merge: the product of one cluster's
    /// candidates `members`, in order (Definition 3, [`product_maps`]),
    /// regions that hold no row dropped when `drop_empty`.
    fn product(&self, members: &[DataMap], drop_empty: bool) -> Result<Option<DataMap>>;

    /// One level of a composition: each of `regions` — disjoint subsets of
    /// the working set — re-cut on `attribute`, extending the region's
    /// query, in region order: `None` for a region whose cut fails (it is
    /// kept whole), and the first error in region order. `whole` is the
    /// statistics of `attribute` over the working set when the caller holds
    /// them. With `counted`, the sub-regions are final and only their
    /// queries and counts are read, so a source may build them without rows
    /// ([`Region::released`]).
    fn recut(
        &self,
        regions: &[Cow<'_, Region>],
        attribute: &str,
        whole: Option<&ColumnStats>,
        counted: bool,
    ) -> Result<Vec<Option<DataMap>>>;
}

/// The in-process [`ExploreSource`]: the `working` rows of a
/// [`PipelineContext`]'s table, counted once.
pub(crate) struct TableExploreSource<'c, 'a> {
    ctx: &'c PipelineContext<'a>,
    working: &'c Bitmap,
    rows: usize,
}

impl<'c, 'a> TableExploreSource<'c, 'a> {
    /// A source over the `working` rows of `ctx.table`.
    pub(crate) fn new(ctx: &'c PipelineContext<'a>, working: &'c Bitmap) -> Self {
        let rows = working.count();
        TableExploreSource { ctx, working, rows }
    }

    /// The statistics of `attribute` over each of `regions`, given `whole`,
    /// its statistics over the working set: every region but the largest
    /// walked (one pool task each), the largest derived as `whole` minus the
    /// others — or walked too, should the subtraction decline. Empty unless
    /// the regions partition the working set, which their counts summing to
    /// its count and their union being it prove.
    fn partition_stats(
        &self,
        regions: &[Cow<'_, Region>],
        attribute: &str,
        whole: &ColumnStats,
    ) -> Result<Vec<Cow<'a, ColumnStats>>> {
        let (ctx, working) = (self.ctx, self.working);
        let total: usize = regions.iter().map(|r| r.count()).sum();
        let covered = || {
            let mut union = Bitmap::new_empty(working.len());
            regions.iter().for_each(|r| union.union_with(&r.selection));
            union == *working
        };
        let largest = (0..regions.len()).max_by_key(|&at| (regions[at].count(), Reverse(at)));
        let Some(largest) = largest.filter(|_| total == self.rows && covered()) else {
            return Ok(Vec::new());
        };
        let walk = |at: usize| {
            ctx.profile
                .stats_for(ctx.table, attribute, &regions[at].selection)
        };
        let parent = atlas_obs::current();
        let walked = ctx.pool.par_map_indexed(regions.len(), 1, |at| {
            let _trace = atlas_obs::with_context(parent);
            (at != largest).then(|| walk(at)).transpose()
        });
        let mut stats: Vec<Option<Cow<'a, ColumnStats>>> =
            walked.into_iter().collect::<Result<_>>()?;
        let derived = stats
            .iter()
            .flatten()
            .try_fold(whole.clone(), |left, part| left.without(part));
        stats[largest] = Some(match derived {
            Some(derived) => {
                ctx.profile.count_derived(attribute);
                Cow::Owned(derived)
            }
            None => walk(largest)?,
        });
        Ok(stats.into_iter().flatten().collect())
    }
}

impl<'a> ExploreSource<'a> for TableExploreSource<'_, 'a> {
    /// Every attribute is cut through `ctx.cut_strategy`, one pool task
    /// each ([`crate::generate_candidates_in_context`]).
    fn candidates(
        &self,
        user_query: &ConjunctiveQuery,
        attributes: Option<&[String]>,
    ) -> Result<(CandidateSet, Vec<AttributeStats<'a>>)> {
        cut_candidates(self.ctx, self.working, user_query, attributes)
    }

    /// Counted from the regions' rows ([`contingency_within`]).
    fn contingency(&self, a: &DataMap, b: &DataMap) -> Result<ContingencyTable> {
        Ok(contingency_within(a, b, self.rows))
    }

    /// Intersects the regions' rows ([`product_maps`]).
    fn product(&self, members: &[DataMap], drop_empty: bool) -> Result<Option<DataMap>> {
        Ok(product_maps(members, drop_empty))
    }

    /// Every region is re-cut through `ctx.cut_strategy`, one pool task
    /// each. When `whole` is held and the regions partition the working set,
    /// the largest region's statistics are derived from it instead of
    /// walked (see [`CompositionMerge`]); a counted level cuts through
    /// [`CutStrategy::cut_released`].
    fn recut(
        &self,
        regions: &[Cow<'_, Region>],
        attribute: &str,
        whole: Option<&ColumnStats>,
        counted: bool,
    ) -> Result<Vec<Option<DataMap>>> {
        let ctx = self.ctx;
        let stats = match whole {
            Some(whole) => self.partition_stats(regions, attribute, whole)?,
            None => Vec::new(),
        };
        // Pool workers inherit the dispatching thread's span context, as in
        // candidate generation, so kernel events attach under `phase.merge`.
        let parent = atlas_obs::current();
        let cuts = ctx.pool.par_map_indexed(regions.len(), 1, |at| {
            let _trace = atlas_obs::with_context(parent);
            let region = &regions[at];
            let mut held = stats.get(at).map(|stats| Cow::Borrowed(&**stats));
            let (selection, query) = (&region.selection, &region.query);
            let strategy = ctx.cut_strategy;
            if counted {
                strategy.cut_released(ctx, selection, query, attribute, &mut held)
            } else {
                strategy.cut(ctx, selection, query, attribute, &mut held)
            }
        });
        cuts.into_iter().collect()
    }
}

impl MergePolicy for CompositionMerge {
    fn name(&self) -> &str {
        "composition"
    }

    /// Outside an explore, the one holder of a working set's statistics is
    /// the profile, for a whole-table working set.
    fn merge(
        &self,
        ctx: &PipelineContext<'_>,
        members: &[DataMap],
        working: &Bitmap,
    ) -> Result<Option<DataMap>> {
        let whole_table = ctx.profile.covers(working);
        let held = |attribute: &str| {
            let profiled = ctx.profile.column(attribute).filter(|_| whole_table);
            profiled.map(|profile| &profile.stats)
        };
        let source = TableExploreSource::new(ctx, working);
        let drop_empty = ctx.drop_empty_regions;
        CompositionMerge::compose(&source, members, held, drop_empty, false)
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
        let profile = TableProfile::build(table);
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
                .cut(ctx, &working, &query, "size", &mut None)
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
        assert_eq!(ProductMerge.name(), "product");
        assert_eq!(CompositionMerge.name(), "composition");
    }

    #[test]
    fn composition_merge_recuts_through_the_context_strategy() {
        let t = table();
        let working = t.full_selection();
        let query = ConjunctiveQuery::all("t");
        let composed = with_context(&t, &PaperCut, |ctx| {
            let m_size = PaperCut
                .cut(ctx, &working, &query, "size", &mut None)
                .unwrap()
                .unwrap();
            let m_weight = PaperCut
                .cut(ctx, &working, &query, "weight", &mut None)
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
                .cut(ctx, &working, &query, "size", &mut None)
                .unwrap()
                .unwrap();
            let m_weight = PaperCut
                .cut(ctx, &working, &query, "weight", &mut None)
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
    fn a_released_composition_counts_its_last_level_where_the_statistics_count() {
        // Every row has its own `weight`, so every region of the `size` cut
        // holds more distinct weights than a summary counts: a re-cut on it
        // is partitioned even when released.
        let schema = Schema::new(vec![
            Field::new("size", DataType::Int),
            Field::new("weight", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..2_400 {
            b.push_row(&[Value::Int(i % 9), Value::Float(i as f64 / 7.0)])
                .unwrap();
        }
        let t = b.build().unwrap();
        let working = t.full_selection();
        let query = ConjunctiveQuery::all("t");
        with_context(&t, &PaperCut, |ctx| {
            let cut = |attribute| {
                let map = PaperCut.cut(ctx, &working, &query, attribute, &mut None);
                map.unwrap().unwrap()
            };
            let (size, weight) = (cut("size"), cut("weight"));
            for (members, counted) in [([&size, &weight], false), ([&weight, &size], true)] {
                let members = [members[0].clone(), members[1].clone()];
                let merge = |released: bool| {
                    let merged = CompositionMerge::compose(
                        &TableExploreSource::new(ctx, &working),
                        &members,
                        |_| None,
                        true,
                        released,
                    );
                    merged.unwrap().unwrap()
                };
                let (expanded, released) = (merge(false), merge(true));
                assert_eq!(expanded.region_counts(), released.region_counts());
                assert_eq!(expanded.source_attributes, released.source_attributes);
                for (e, r) in expanded.regions.iter().zip(&released.regions) {
                    assert_eq!(e.query, r.query);
                    assert!(e.holds_rows());
                    assert_eq!(r.holds_rows(), !counted, "{r}");
                }
            }
        });
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
