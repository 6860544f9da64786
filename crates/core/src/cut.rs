//! The `CUT` primitive (Definition 1 of the paper).
//!
//! `CUT_k(Q)` takes a query `Q` and splits the range covered by its `k`-th
//! attribute into disjoint sub-ranges, producing a one-attribute map. The
//! paper discusses several cutting strategies; they are implemented here and
//! selected through [`CutConfig`]:
//!
//! * ordinal attributes — equi-width binning, median / equi-depth splits, or
//!   1-D k-means (the "maximise intra-cluster homogeneity" option). Section
//!   5.1 proposes approximating the median with a one-pass quantile sketch;
//!   here every median is exact, read off counts or selected in place, so no
//!   split depends on the segment layout;
//! * categorical attributes — grouping values in decreasing frequency order
//!   (ties in first-appearance order), balanced by cover.
//!
//! Following the paper's performance-over-accuracy argument, the default
//! number of partitions is **two**.
//!
//! Every cut starts from the [`ColumnStats`] of the working set, and for the
//! median strategy those statistics are usually all it needs: a numeric
//! column with few enough distinct values is summarised as a counted value
//! set ([`ColumnStats::value_counts`]), and the order statistics are read off
//! the counts ([`quantiles_of_counts`]) — bit for bit what sorting the values
//! would give, without fetching them. Only a column with too many distinct
//! values to count (and the strategies that need the values in row order)
//! goes back to [`CutSource::numeric_values`]. A categorical cut reads the
//! same statistics first: the walk that counted the selected rows kept the
//! count of every category ([`ColumnStats::category_counts`]), so the
//! frequency ranking is read off it, and only a column with more values than
//! that counter holds asks the source for the same vector
//! ([`CutSource::category_counts`]). The rule lives in the one
//! cut body, [`cuts_from_source`], so local cuts, composition re-cuts and the
//! distributed coordinator's cuts all follow it.
//!
//! That body runs in three steps. Each attribute is **planned** from its
//! statistics into a [`CutPlan`]: the attribute and its [`Partition`] —
//! range bounds or value groups. The plans are **partitioned** in one
//! [`CutSource::partition`] call, one [`Extent`] per partition entry: the
//! region's rows for an in-process source, only how many there are for a
//! source that scatters to shards. Each map is **built** from its plan and
//! its extents. An in-process source runs one fused kernel pass per plan; a
//! source that scatters to shards asks every shard once for the counts of
//! all the cuts of an explore ([`cut_from_source`] is the same body for one
//! attribute).
//!
//! A caller that reads only the regions' queries and counts — the last
//! re-cut of a served composition ([`crate::CutStrategy::cut_released`]) —
//! may skip the partition: the statistics a plan was made from count its
//! regions exactly ([`CutPlan::counts_from_stats`]), and such a region is
//! built without rows ([`Region::released`]). A plan cut from statistics
//! without counts is partitioned all the same.

use crate::error::{AtlasError, Result};
use crate::map::DataMap;
use crate::pipeline::PipelineContext;
use crate::region::Region;
use atlas_columnar::{rank_categories_by_frequency, Bitmap, ColumnStats, DataType, Table};
use atlas_query::{ConjunctiveQuery, Predicate};
use atlas_stats::kmeans_1d;
use atlas_stats::quantile::{quantiles_in_place, quantiles_of_counts};
use std::borrow::Cow;

/// How to split an ordinal (numeric) attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NumericCutStrategy {
    /// Equal-width bins between the min and max of the working set.
    EquiWidth,
    /// Equal-population bins (median for two-way splits).
    Median,
    /// 1-D k-means: split points between cluster centroids.
    KMeans {
        /// Maximum Lloyd iterations.
        max_iterations: usize,
    },
}

/// Configuration of the `CUT` primitive.
#[derive(Debug, Clone, PartialEq)]
pub struct CutConfig {
    /// Number of partitions per attribute (the paper fixes this to 2).
    pub num_splits: usize,
    /// Strategy for ordinal attributes. Categorical attributes have one:
    /// values in decreasing frequency order, grouped greedily so the group
    /// covers are balanced.
    pub numeric: NumericCutStrategy,
    /// Categorical attributes with more distinct values than this are not cut
    /// (they are "codes, names, comments or keys" in the paper's terms).
    pub max_categories: usize,
    /// Skip attributes whose statistics look like identifiers.
    pub skip_identifiers: bool,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig {
            num_splits: 2,
            numeric: NumericCutStrategy::Median,
            max_categories: 40,
            skip_identifiers: true,
        }
    }
}

impl CutConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.num_splits < 2 {
            return Err(AtlasError::InvalidConfig(
                "num_splits must be at least 2".to_string(),
            ));
        }
        Ok(())
    }
}

/// How a planned cut splits its attribute: the argument of the one partition
/// kernel its regions come out of.
#[derive(Debug, Clone, PartialEq)]
pub enum Partition {
    /// First-matching inclusive `(lo, hi)` ranges, in region order (the
    /// [`atlas_columnar::ColumnView::select_ranges`] kernel).
    Ranges(Vec<(f64, f64)>),
    /// Disjoint value groups, in region order (the
    /// [`atlas_columnar::ColumnView::select_in_groups`] kernel).
    Groups(Vec<Vec<String>>),
}

impl Partition {
    /// How many regions the partition makes.
    pub fn region_count(&self) -> usize {
        match self {
            Partition::Ranges(bounds) => bounds.len(),
            Partition::Groups(groups) => groups.len(),
        }
    }
}

/// One attribute's cut as decided from the statistics, before any row is
/// touched: the attribute and the partition whose regions become the map's.
/// It is all the build needs to write the region queries, so every planned
/// cut of an explore can have its rows partitioned in one batch
/// ([`CutSource::partition`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CutPlan {
    /// The attribute being cut.
    pub attribute: String,
    /// How its rows are split.
    pub partition: Partition,
}

impl CutPlan {
    /// How many rows each region of the plan holds, read off `stats` — the
    /// attribute's statistics over the working set being cut — instead of
    /// partitioning it: the popcounts [`CutSource::partition`] would give,
    /// exactly. A range region counts the [`ColumnStats::value_counts`]
    /// whose value lies in its `[lo, hi]` — the kernels' `x as f64 ∈ [lo,
    /// hi]` test, first-matching, so NaN falls in no range — and a group
    /// counts its values' [`ColumnStats::category_counts`]. NULLs are in
    /// neither. `None` when the statistics carry no counts for the plan (a
    /// column with too many distinct values to count): it must be
    /// partitioned.
    pub fn counts_from_stats(&self, stats: &ColumnStats) -> Option<Vec<usize>> {
        let mut counts = vec![0; self.partition.region_count()];
        match &self.partition {
            Partition::Ranges(bounds) => {
                for &(x, n) in stats.value_counts.as_deref()? {
                    if let Some(at) = bounds.iter().position(|&(lo, hi)| x >= lo && x <= hi) {
                        counts[at] += n as usize;
                    }
                }
            }
            Partition::Groups(groups) => {
                for (value, n) in stats.category_counts.as_deref()? {
                    if let Some(at) = groups.iter().position(|group| group.contains(value)) {
                        counts[at] += n;
                    }
                }
            }
        }
        Some(counts)
    }
}

/// What [`CutSource::partition`] answers for one region of a plan: its rows
/// ([`Bitmap`]), or only how many rows it holds (`usize`).
pub trait Extent {
    /// The region of `query` this extent measures: [`Region::new`] over its
    /// rows, [`Region::released`] over a count.
    fn region(self, query: ConjunctiveQuery) -> Region;
}

impl Extent for Bitmap {
    fn region(self, query: ConjunctiveQuery) -> Region {
        Region::new(query, self)
    }
}

impl Extent for usize {
    fn region(self, query: ConjunctiveQuery) -> Region {
        Region::released(query, self)
    }
}

/// The data-access surface of the `CUT` primitive, with the working set
/// baked in.
///
/// Every row-touching kernel `CUT` needs goes through this trait; the split
/// selection, grouping, and region-assembly logic above it is pure, and reads
/// the caller's [`ColumnStats`] before it asks the source: a cut calls
/// [`CutSource::numeric_values`] and [`CutSource::category_counts`] only for
/// a column whose statistics carry no counts, so a counted column costs its
/// source nothing but its share of one [`CutSource::partition`] call. The two
/// implementations are [`TableCutSource`] (an in-process table — both
/// [`cut_attribute`] and the prepared engine route through it) and the serve
/// crate's remote source, which scatters each call to shard servers holding
/// disjoint segment subsets and folds their answers — a partition as region
/// counts. A source that reproduces the kernel outputs (or their counts)
/// reproduces the local cut's queries and counts **bit for bit**, because
/// [`cuts_from_source`] is the only cut body.
///
/// Returned bitmaps range over the table's **global** rows, and every method
/// may be called only with attributes of the table's schema (unknown
/// attributes error).
pub trait CutSource {
    /// What a partitioned region comes back as: rows, or a count, whose
    /// regions are then built without rows.
    type Extent: Extent;
    /// The data type of `attribute`.
    fn data_type(&self, attribute: &str) -> Result<DataType>;
    /// The non-NULL numeric values of the working set, in global row order.
    fn numeric_values(&self, attribute: &str) -> Result<Vec<f64>>;
    /// How many working-set rows hold each categorical value of the column:
    /// one pair per distinct value in global first-appearance order, zero
    /// counts included ([`atlas_columnar::ColumnView::category_counts`]) — the
    /// vector [`ColumnStats::category_counts`] holds, asked for only when the
    /// statistics do not.
    fn category_counts(&self, attribute: &str) -> Result<Vec<(String, usize)>>;
    /// Partition the working set once per plan, each in one fused pass over
    /// its column: one extent per entry of the plan's [`Partition`], in
    /// order, and one list per plan, in order.
    fn partition(&self, plans: &[CutPlan]) -> Result<Vec<Vec<Self::Extent>>>;
}

/// A [`CutSource`] reading straight from an in-process [`Table`].
pub struct TableCutSource<'a> {
    table: &'a Table,
    working: &'a Bitmap,
}

impl<'a> TableCutSource<'a> {
    /// A source over the `working` rows of `table`.
    pub fn new(table: &'a Table, working: &'a Bitmap) -> Self {
        TableCutSource { table, working }
    }
}

impl CutSource for TableCutSource<'_> {
    type Extent = Bitmap;

    fn data_type(&self, attribute: &str) -> Result<DataType> {
        Ok(self.table.column(attribute)?.data_type())
    }

    fn numeric_values(&self, attribute: &str) -> Result<Vec<f64>> {
        Ok(self
            .table
            .column(attribute)?
            .numeric_values_where(self.working))
    }

    fn category_counts(&self, attribute: &str) -> Result<Vec<(String, usize)>> {
        Ok(self.table.column(attribute)?.category_counts(self.working))
    }

    fn partition(&self, plans: &[CutPlan]) -> Result<Vec<Vec<Bitmap>>> {
        plans
            .iter()
            .map(|plan| {
                let column = self.table.column(&plan.attribute)?;
                Ok(match &plan.partition {
                    Partition::Ranges(bounds) => column.select_ranges(self.working, bounds),
                    Partition::Groups(groups) => column.select_in_groups(self.working, groups),
                })
            })
            .collect()
    }
}

/// Apply `CUT` to one attribute of the working set.
///
/// * `table` — the table the selection ranges over;
/// * `working` — the rows selected by the parent query (the working set);
/// * `parent_query` — the query being broken down; region queries extend it;
/// * `attribute` — the attribute to split.
///
/// Returns `Ok(None)` when the attribute cannot be usefully cut (constant
/// column, all NULL, identifier-like, too many categories); this mirrors the
/// paper's advice to skip such columns rather than fail.
pub fn cut_attribute(
    table: &Table,
    working: &Bitmap,
    parent_query: &ConjunctiveQuery,
    attribute: &str,
    config: &CutConfig,
) -> Result<Option<DataMap>> {
    let stats = table.column_stats(attribute, working)?;
    let source = TableCutSource::new(table, working);
    cut_from_source(&source, parent_query, attribute, config, &stats)
}

/// [`cut_attribute`] inside a prepared engine: statistics — value and
/// category counts included — come from the engine's
/// [`crate::profile::TableProfile`] instead of being recomputed, so
/// whole-table explorations never re-scan columns for metadata. Statistics
/// the caller already holds in `stats` are read instead of the profile's;
/// otherwise the ones read are left there ([`crate::pipeline::CutStrategy::cut`]).
/// With `count`, regions are counted off the statistics where they can be,
/// and built without rows ([`CutPlan::counts_from_stats`]).
pub(crate) fn cut_attribute_in_context<'a>(
    ctx: &PipelineContext<'a>,
    working: &Bitmap,
    parent_query: &ConjunctiveQuery,
    attribute: &str,
    stats: &mut Option<Cow<'a, ColumnStats>>,
    count: bool,
) -> Result<Option<DataMap>> {
    let stats: &ColumnStats = match stats {
        Some(held) => held,
        None => stats.insert(ctx.profile.stats_for(ctx.table, attribute, working)?),
    };
    let source = TableCutSource::new(ctx.table, working);
    let attributes = [(attribute, stats)];
    let mut maps = plan_and_cut(&source, parent_query, &attributes, ctx.cut_config, count)?;
    Ok(maps.pop().flatten())
}

/// [`cuts_from_source`] for one attribute: the body of the `CUT` primitive
/// over an abstract [`CutSource`], with the per-column statistics supplied
/// by the caller (fresh, from a profile, or folded from per-shard summaries).
pub fn cut_from_source<S: CutSource>(
    source: &S,
    parent_query: &ConjunctiveQuery,
    attribute: &str,
    config: &CutConfig,
    stats: &ColumnStats,
) -> Result<Option<DataMap>> {
    let mut maps = cuts_from_source(source, parent_query, &[(attribute, stats)], config)?;
    Ok(maps.pop().flatten())
}

/// [`cut_from_source`] for a caller that reads only the regions' queries and
/// counts: where `stats` count the plan's regions
/// ([`CutPlan::counts_from_stats`]) the source is not asked at all, and every
/// region read off them is built without rows ([`Region::released`]).
pub fn cut_counted_from_source<S: CutSource>(
    source: &S,
    parent_query: &ConjunctiveQuery,
    attribute: &str,
    config: &CutConfig,
    stats: &ColumnStats,
) -> Result<Option<DataMap>> {
    let mut maps = plan_and_cut(source, parent_query, &[(attribute, stats)], config, true)?;
    Ok(maps.pop().flatten())
}

/// The `CUT` primitive over several attributes at once, in three steps:
/// every attribute is **planned** from its statistics (asking the source for
/// values or category counts only where the statistics carry none), the
/// planned cuts are **partitioned** in one [`CutSource::partition`] call,
/// and each map is **built** from its plan and its region bitmaps. One entry
/// per attribute, in order: `None` for an attribute that cannot be usefully
/// cut. A source that scatters its calls makes one round for every counted
/// column of an explore, however many there are.
pub fn cuts_from_source<S: CutSource>(
    source: &S,
    parent_query: &ConjunctiveQuery,
    attributes: &[(&str, &ColumnStats)],
    config: &CutConfig,
) -> Result<Vec<Option<DataMap>>> {
    plan_and_cut(source, parent_query, attributes, config, false)
}

/// What became of one attribute in [`plan_and_cut`].
enum Planned {
    /// It cannot be usefully cut.
    Skipped,
    /// Its plan awaits its region bitmaps.
    Partitioned,
    /// Its regions were counted off its statistics.
    Counted(Option<DataMap>),
}

/// The body of [`cuts_from_source`]. With `count`, a plan whose statistics
/// carry counts is built from them, its regions without rows, and only the
/// other plans are partitioned.
fn plan_and_cut<S: CutSource>(
    source: &S,
    parent_query: &ConjunctiveQuery,
    attributes: &[(&str, &ColumnStats)],
    config: &CutConfig,
    count: bool,
) -> Result<Vec<Option<DataMap>>> {
    config.validate()?;
    let mut plans = Vec::new();
    let mut planned = Vec::with_capacity(attributes.len());
    for &(attribute, stats) in attributes {
        let Some(plan) = plan_cut(source, attribute, config, stats)? else {
            planned.push(Planned::Skipped);
            continue;
        };
        match count.then(|| plan.counts_from_stats(stats)).flatten() {
            Some(counts) => planned.push(Planned::Counted(build_cut(plan, parent_query, counts))),
            None => {
                plans.push(plan);
                planned.push(Planned::Partitioned);
            }
        }
    }
    let selections = if plans.is_empty() {
        Vec::new()
    } else {
        source.partition(&plans)?
    };
    let mut built = plans
        .into_iter()
        .zip(selections)
        .map(|(plan, regions)| build_cut(plan, parent_query, regions));
    Ok(planned
        .into_iter()
        .map(|cut| match cut {
            Planned::Skipped => None,
            Planned::Partitioned => built.next().flatten(),
            Planned::Counted(map) => map,
        })
        .collect())
}

/// Plan the cut of one attribute from its statistics: `None` when it cannot
/// be usefully cut (constant column, all NULL, identifier-like, too many
/// categories, no split inside its range).
fn plan_cut<S: CutSource>(
    source: &S,
    attribute: &str,
    config: &CutConfig,
    stats: &ColumnStats,
) -> Result<Option<CutPlan>> {
    let dtype = source.data_type(attribute)?;
    if stats.non_null_count == 0 || stats.distinct_count < 2 {
        return Ok(None);
    }
    if config.skip_identifiers && stats.looks_like_identifier() {
        return Ok(None);
    }
    let partition = match dtype {
        DataType::Int | DataType::Float => {
            let (min, max) = (stats.min.unwrap_or(0.0), stats.max.unwrap_or(0.0));
            let splits = numeric_splits(source, attribute, config, stats)?;
            if splits.is_empty() {
                return Ok(None);
            }
            Partition::Ranges(range_bounds(dtype, min, max, &splits))
        }
        DataType::Str | DataType::Bool => {
            if stats.distinct_count > config.max_categories {
                return Ok(None);
            }
            let groups = categorical_groups(source, attribute, config, stats)?;
            if groups.len() < 2 {
                return Ok(None);
            }
            Partition::Groups(groups)
        }
    };
    Ok(Some(CutPlan {
        attribute: attribute.to_string(),
        partition,
    }))
}

/// Build the map of a planned cut from its region extents (one per entry of
/// the partition, in order: bitmaps, or counts): each region's query extends
/// the parent query with the entry's range or value-set predicate. `None`
/// when fewer than two regions hold rows.
fn build_cut<E: Extent>(
    plan: CutPlan,
    parent_query: &ConjunctiveQuery,
    extents: Vec<E>,
) -> Option<DataMap> {
    let CutPlan {
        attribute,
        partition,
    } = plan;
    let predicates: Vec<Predicate> = match partition {
        Partition::Ranges(bounds) => bounds
            .into_iter()
            .map(|(lo, hi)| Predicate::range(attribute.as_str(), lo, hi))
            .collect(),
        Partition::Groups(groups) => groups
            .into_iter()
            .map(|group| Predicate::values(attribute.as_str(), group))
            .collect(),
    };
    let regions = predicates
        .into_iter()
        .zip(extents)
        .map(|(predicate, extent)| extent.region(parent_query.clone().and(predicate)))
        .collect();
    let mut map = DataMap::new(regions, vec![attribute]);
    map.drop_empty_regions();
    (map.num_regions() >= 2).then_some(map)
}

/// Compute the interior split points for a numeric attribute from the
/// caller's statistics of the working set (whose `min`/`max` are the bounds
/// [`range_bounds`] closes the outer regions with).
fn numeric_splits<S: CutSource>(
    source: &S,
    attribute: &str,
    config: &CutConfig,
    stats: &ColumnStats,
) -> Result<Vec<f64>> {
    let k = config.num_splits;
    let (min, max) = (stats.min.unwrap_or(0.0), stats.max.unwrap_or(0.0));
    // Each strategy fetches the values only if it reads them: equi-width
    // splits depend on min/max alone, and counted statistics already hold the
    // distribution the order statistics are read from. Splits are computed
    // over the values that are numbers: a NaN row falls in no range region
    // (the kernels test `x ∈ [lo, hi]`), so it must not move a split either
    // — and `min`/`max` already leave NaN out.
    let values = || {
        let mut values = source.numeric_values(attribute)?;
        values.retain(|x| !x.is_nan());
        Ok::<_, AtlasError>(values)
    };
    let splits: Vec<f64> = match config.numeric {
        NumericCutStrategy::EquiWidth => equi_width_splits(min, max, k),
        NumericCutStrategy::Median => {
            let ps: Vec<f64> = (1..k).map(|i| i as f64 / k as f64).collect();
            match &stats.value_counts {
                Some(counts) => quantiles_of_counts(numbers_of(counts), &ps),
                // Too many distinct values to have been counted. The buffer
                // is this call's own, so the k−1 order statistics are
                // selected in place: no sort, no second copy of the working
                // set.
                None => quantiles_in_place(&mut values()?, &ps),
            }
            .unwrap_or_default()
        }
        NumericCutStrategy::KMeans { max_iterations } => kmeans_1d(&values()?, k, max_iterations)
            .map(|r| r.splits)
            .unwrap_or_default(),
    };
    // Deduplicate and drop degenerate splits (outside the observed range).
    let mut cleaned: Vec<f64> = Vec::with_capacity(splits.len());
    for s in splits {
        if s >= min && s < max && cleaned.last().is_none_or(|&last| s > last) {
            cleaned.push(s);
        }
    }
    Ok(cleaned)
}

/// The counted values that are numbers. Under [`f64::total_cmp`] negative
/// NaNs sort before every number and positive ones after, so the NaNs of
/// ascending counts are a prefix and a suffix.
fn numbers_of(counts: &[(f64, u64)]) -> &[(f64, u64)] {
    let start = counts.iter().take_while(|(x, _)| x.is_nan()).count();
    let numbers = &counts[start..];
    &numbers[..numbers.len() - numbers.iter().rev().take_while(|(x, _)| x.is_nan()).count()]
}

/// Interior equi-width split points for the observed `[min, max]` range,
/// already cleaned (strictly increasing, inside the open range). This is the
/// split set an equi-width histogram over the values would produce, computed
/// from the summary statistics alone — the fused fast path of the `EquiWidth`
/// strategy needs no scan over the column values.
fn equi_width_splits(min: f64, max: f64, k: usize) -> Vec<f64> {
    if k < 2 || min.is_nan() || max.is_nan() || min >= max {
        return Vec::new();
    }
    let width = (max - min) / k as f64;
    let mut cleaned = Vec::with_capacity(k - 1);
    for i in 1..k {
        let s = min + width * i as f64;
        if s >= min && s < max && cleaned.last().is_none_or(|&last| s > last) {
            cleaned.push(s);
        }
    }
    cleaned
}

/// The inclusive `(lo, hi)` bounds of a numeric cut's regions between the
/// working set's `min` and `max`, split at `splits`. Adjacent regions stay
/// disjoint: each lower bound is the next admissible value above the
/// previous upper bound.
fn range_bounds(dtype: DataType, min: f64, max: f64, splits: &[f64]) -> Vec<(f64, f64)> {
    let mut bounds = Vec::with_capacity(splits.len() + 1);
    let mut lo = min;
    for (i, &split) in splits.iter().chain(std::iter::once(&max)).enumerate() {
        let hi = if i == splits.len() { max } else { split };
        if hi < lo {
            continue;
        }
        bounds.push((lo, hi));
        lo = next_lower_bound(dtype, hi);
    }
    bounds
}

/// The smallest admissible lower bound strictly above `hi`, respecting the
/// column type: the next integer for integer columns, the next representable
/// float otherwise (`f64::MIN` after `-inf`, the least positive float after
/// either zero). This keeps adjacent range regions disjoint while the queries
/// stay human-readable (`[17, 37]`, `[38, 90]` on integer data).
fn next_lower_bound(dtype: DataType, hi: f64) -> f64 {
    match dtype {
        DataType::Int => hi.floor() + 1.0,
        _ => hi.next_up(),
    }
}

/// Group the categorical values of the working set into `num_splits` groups:
/// in decreasing frequency order (ties in first-appearance order), each
/// group closed once its cover reaches an even share.
///
/// The frequency ranking is read off one vector of category counts: the
/// caller's statistics when they carry it (the way a median cut reads
/// [`ColumnStats::value_counts`]), the source's otherwise.
fn categorical_groups<S: CutSource>(
    source: &S,
    attribute: &str,
    config: &CutConfig,
    stats: &ColumnStats,
) -> Result<Vec<Vec<String>>> {
    let asked;
    let counts = match stats.category_counts.as_deref() {
        Some(counts) => counts,
        None => {
            asked = source.category_counts(attribute)?;
            &asked
        }
    };
    let freq = rank_categories_by_frequency(counts.to_vec());
    if freq.len() < 2 {
        return Ok(Vec::new());
    }
    let k = config.num_splits.min(freq.len());
    let total: usize = freq.iter().map(|(_, n)| n).sum();
    let target = (total as f64 / k as f64).ceil() as usize;

    // Greedy contiguous grouping: walk the ordered values, starting a new
    // group when the current one reaches the target cover, while keeping
    // enough values for the remaining groups.
    let mut groups: Vec<Vec<String>> = Vec::with_capacity(k);
    let mut current: Vec<String> = Vec::new();
    let mut current_count = 0usize;
    let mut remaining_values = freq.len();
    for (value, count) in freq {
        let remaining_groups = k - groups.len();
        let must_close = remaining_values == remaining_groups.saturating_sub(1) + 1
            && !current.is_empty()
            && groups.len() + 1 < k;
        current.push(value);
        current_count += count;
        remaining_values -= 1;
        if (current_count >= target || must_close) && groups.len() + 1 < k {
            groups.push(std::mem::take(&mut current));
            current_count = 0;
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_columnar::{Field, Schema, TableBuilder, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::new("height", DataType::Float),
            Field::new("sex", DataType::Str),
            Field::new("education", DataType::Str),
            Field::new("id", DataType::Int),
        ])
        .unwrap();
        let mut b = TableBuilder::new("survey", schema);
        for i in 0..200i64 {
            let age = 17 + (i * 7) % 74; // 17..90
            let height = 150.0 + (i % 50) as f64;
            let sex = if i % 2 == 0 { "M" } else { "F" };
            let education = match i % 10 {
                0..=4 => "HS",
                5..=7 => "BSc",
                8 => "MSc",
                _ => "PhD",
            };
            b.push_row(&[
                Value::Int(age),
                Value::Float(height),
                Value::Str(sex.into()),
                Value::Str(education.into()),
                Value::Int(i),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    fn base_query() -> ConjunctiveQuery {
        ConjunctiveQuery::all("survey")
    }

    #[test]
    fn default_config_is_valid_and_two_way() {
        let cfg = CutConfig::default();
        assert_eq!(cfg.num_splits, 2);
        assert!(cfg.validate().is_ok());
        let bad = CutConfig {
            num_splits: 1,
            ..CutConfig::default()
        };
        assert!(matches!(bad.validate(), Err(AtlasError::InvalidConfig(_))));
    }

    #[test]
    fn median_cut_on_integer_attribute_partitions_the_working_set() {
        let t = table();
        let working = t.full_selection();
        let map = cut_attribute(&t, &working, &base_query(), "age", &CutConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(map.num_regions(), 2);
        assert!(map.regions_are_disjoint());
        // Medians split roughly in half.
        let counts = map.region_counts();
        assert!((counts[0] as i64 - counts[1] as i64).abs() <= 20);
        // Regions keep the parent query's table and add one predicate each.
        assert_eq!(map.max_predicates(), 1);
        assert_eq!(map.source_attributes, vec!["age".to_string()]);
        // Every working row with a non-NULL age is covered.
        assert_eq!(map.covered_count(), 200);
    }

    #[test]
    fn all_numeric_strategies_produce_valid_partitions() {
        let t = table();
        let working = t.full_selection();
        let strategies = [
            NumericCutStrategy::EquiWidth,
            NumericCutStrategy::Median,
            NumericCutStrategy::KMeans { max_iterations: 30 },
        ];
        for strategy in strategies {
            let cfg = CutConfig {
                numeric: strategy,
                ..CutConfig::default()
            };
            let map = cut_attribute(&t, &working, &base_query(), "height", &cfg)
                .unwrap()
                .unwrap_or_else(|| panic!("strategy {strategy:?} produced no map"));
            assert!(map.num_regions() >= 2, "strategy {strategy:?}");
            assert!(map.regions_are_disjoint(), "strategy {strategy:?}");
            assert_eq!(map.covered_count(), 200, "strategy {strategy:?}");
        }
    }

    /// 60 `-inf` cells and 40 finite ones, cut at the median: the second
    /// region starts at `f64::MIN`, so its query selects its 40 rows, not
    /// the `-inf` ones too.
    #[test]
    fn a_region_after_a_negative_infinity_bound_is_its_query() {
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..100 {
            let x = if i < 60 {
                f64::NEG_INFINITY
            } else {
                f64::from(i)
            };
            b.push_row(&[Value::Float(x)]).unwrap();
        }
        let t = b.build().unwrap();
        let query = ConjunctiveQuery::all("t");
        let map = cut_attribute(&t, &t.full_selection(), &query, "x", &CutConfig::default())
            .unwrap()
            .unwrap();
        let bounds: Vec<_> = map
            .regions
            .iter()
            .map(|region| match &region.query.predicates[0].set {
                atlas_query::PredicateSet::Range { lo, hi } => (*lo, *hi, region.count()),
                other => panic!("a numeric cut made {other:?}"),
            })
            .collect();
        assert_eq!(
            bounds,
            [
                (f64::NEG_INFINITY, f64::NEG_INFINITY, 60),
                (f64::MIN, 99.0, 40)
            ]
        );
        for region in &map.regions {
            let selected = atlas_query::evaluate(&region.query, &t).unwrap();
            assert_eq!(selected.count(), region.count(), "{}", region.query);
        }
    }

    #[test]
    fn the_next_lower_bound_is_the_least_value_above() {
        assert_eq!(next_lower_bound(DataType::Int, 37.0), 38.0);
        assert_eq!(next_lower_bound(DataType::Float, 1.0), 1.0f64.next_up());
        assert_eq!(
            next_lower_bound(DataType::Float, f64::NEG_INFINITY),
            f64::MIN
        );
        // Above either zero is the least positive float: a negative one would
        // put the zeros in both regions.
        for zero in [0.0, -0.0] {
            assert_eq!(next_lower_bound(DataType::Float, zero).to_bits(), 1);
        }
    }

    #[test]
    fn k_way_cuts_produce_k_regions() {
        let t = table();
        let working = t.full_selection();
        let cfg = CutConfig {
            num_splits: 4,
            ..CutConfig::default()
        };
        let map = cut_attribute(&t, &working, &base_query(), "age", &cfg)
            .unwrap()
            .unwrap();
        assert_eq!(map.num_regions(), 4);
        assert!(map.regions_are_disjoint());
        assert_eq!(map.covered_count(), 200);
    }

    #[test]
    fn categorical_cut_groups_values_and_balances_cover() {
        let t = table();
        let working = t.full_selection();
        let map = cut_attribute(
            &t,
            &working,
            &base_query(),
            "education",
            &CutConfig::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(map.num_regions(), 2);
        assert!(map.regions_are_disjoint());
        assert_eq!(map.covered_count(), 200);
        // The majority value ("HS", 50%) should sit alone in one region under
        // the frequency strategy.
        let big = map
            .regions
            .iter()
            .find(|r| {
                r.query
                    .predicate_on("education")
                    .unwrap()
                    .set
                    .contains_value("HS")
            })
            .unwrap();
        assert_eq!(big.count(), 100);
    }

    #[test]
    fn binary_categorical_cut_is_one_value_per_region() {
        let t = table();
        let working = t.full_selection();
        let map = cut_attribute(&t, &working, &base_query(), "sex", &CutConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(map.num_regions(), 2);
        let sizes = map.region_counts();
        assert_eq!(sizes, vec![100, 100]);
    }

    #[test]
    fn identifier_columns_are_skipped() {
        let t = table();
        let working = t.full_selection();
        let map = cut_attribute(&t, &working, &base_query(), "id", &CutConfig::default()).unwrap();
        assert!(map.is_none());
        // but cutting is possible when identifier skipping is disabled
        let cfg = CutConfig {
            skip_identifiers: false,
            ..CutConfig::default()
        };
        assert!(cut_attribute(&t, &working, &base_query(), "id", &cfg)
            .unwrap()
            .is_some());
    }

    #[test]
    fn constant_and_unknown_attributes() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        for _ in 0..10 {
            b.push_row(&[Value::Int(5)]).unwrap();
        }
        let t = b.build().unwrap();
        let working = t.full_selection();
        let q = ConjunctiveQuery::all("t");
        assert!(cut_attribute(&t, &working, &q, "x", &CutConfig::default())
            .unwrap()
            .is_none());
        assert!(cut_attribute(&t, &working, &q, "zzz", &CutConfig::default()).is_err());
    }

    #[test]
    fn cut_respects_the_working_set() {
        let t = table();
        // Working set: only the first 40 rows. Within such a small subset the
        // age values happen to be all distinct, so identifier skipping must be
        // disabled to exercise the restriction logic itself.
        let working = Bitmap::from_indices(t.num_rows(), 0..40);
        let cfg = CutConfig {
            skip_identifiers: false,
            ..CutConfig::default()
        };
        let map = cut_attribute(&t, &working, &base_query(), "age", &cfg)
            .unwrap()
            .unwrap();
        assert_eq!(map.covered_count(), 40);
        for region in &map.regions {
            for row in region.selection.iter_ones() {
                assert!(row < 40);
            }
        }
    }

    #[test]
    fn region_queries_extend_the_parent_query() {
        let t = table();
        let parent = ConjunctiveQuery::all("survey").and(Predicate::values("sex", ["M"]));
        let working = atlas_query::evaluate(&parent, &t).unwrap();
        let map = cut_attribute(&t, &working, &parent, "age", &CutConfig::default())
            .unwrap()
            .unwrap();
        for region in &map.regions {
            assert!(region.query.predicate_on("sex").is_some());
            assert!(region.query.predicate_on("age").is_some());
            // Evaluating the region query from scratch gives exactly the
            // region's selection: queries and extents are consistent.
            let evaluated = atlas_query::evaluate(&region.query, &t).unwrap();
            assert_eq!(evaluated.to_indices(), region.selection.to_indices());
        }
    }

    #[test]
    fn integer_regions_have_readable_adjacent_bounds() {
        let t = table();
        let working = t.full_selection();
        let map = cut_attribute(&t, &working, &base_query(), "age", &CutConfig::default())
            .unwrap()
            .unwrap();
        // Second region's lower bound is an integer (floor(split) + 1).
        let second = &map.regions[1];
        match &second.query.predicate_on("age").unwrap().set {
            atlas_query::PredicateSet::Range { lo, .. } => {
                assert_eq!(lo.fract(), 0.0, "integer cut should use integer bounds");
            }
            _ => panic!("expected a range predicate"),
        }
    }

    #[test]
    fn max_categories_limit_is_enforced() {
        let t = table();
        let working = t.full_selection();
        let cfg = CutConfig {
            max_categories: 3,
            ..CutConfig::default()
        };
        // education has 4 distinct values, above the limit of 3.
        assert!(
            cut_attribute(&t, &working, &base_query(), "education", &cfg)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn nulls_fall_outside_all_regions() {
        let schema = Schema::new(vec![Field::nullable("x", DataType::Int)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..20 {
            let v = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Int(i % 7)
            };
            b.push_row(&[v]).unwrap();
        }
        let t = b.build().unwrap();
        let working = t.full_selection();
        let map = cut_attribute(
            &t,
            &working,
            &ConjunctiveQuery::all("t"),
            "x",
            &CutConfig::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(map.covered_count(), 16);
        assert!(map.regions_are_disjoint());
        let labels = map.region_labels(20);
        assert_eq!(labels[0], crate::map::NO_REGION);
        assert_eq!(labels[5], crate::map::NO_REGION);
    }

    /// 1 000 rows in a scrambled order: a heavily tied integer column and a
    /// near-unique float column.
    fn scrambled_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("tied", DataType::Int),
            Field::new("measure", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("scrambled", schema);
        for i in 0..1000u64 {
            let tied = (i * 7919 % 13) as i64;
            let measure = (i * 2_654_435_761 % 10_007) as f64 / 7.0;
            b.push_row(&[Value::Int(tied), Value::Float(measure)])
                .unwrap();
        }
        b.build().unwrap()
    }

    /// The interior split points of a numeric cut (every region's upper
    /// bound but the last) and the region sizes.
    fn splits_and_counts(map: &DataMap, attribute: &str) -> (Vec<f64>, Vec<u64>) {
        let mut his: Vec<f64> = map
            .regions
            .iter()
            .map(
                |r| match &r.query.predicate_on(attribute).expect("cut predicate").set {
                    atlas_query::PredicateSet::Range { hi, .. } => *hi,
                    _ => panic!("expected a range predicate"),
                },
            )
            .collect();
        his.pop();
        (his, map.region_counts())
    }

    #[test]
    fn median_cuts_match_a_sort_based_split() {
        let t = scrambled_table();
        let working = t.full_selection();
        let q = ConjunctiveQuery::all("scrambled");
        for attribute in ["tied", "measure"] {
            for k in [2usize, 4] {
                // The definition: sort the values, read the k−1 interpolated
                // order statistics, keep those strictly inside the range.
                let mut sorted = t.column(attribute).unwrap().numeric_values_where(&working);
                sorted.sort_by(f64::total_cmp);
                let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
                let mut expected: Vec<f64> = Vec::new();
                for i in 1..k {
                    let s = atlas_stats::quantile::quantile_sorted(&sorted, i as f64 / k as f64);
                    if s >= min && s < max && expected.last().is_none_or(|&last| s > last) {
                        expected.push(s);
                    }
                }
                let mut counts = vec![0u64; expected.len() + 1];
                for x in &sorted {
                    counts[expected.iter().filter(|&&s| *x > s).count()] += 1;
                }

                let cfg = CutConfig {
                    num_splits: k,
                    ..CutConfig::default()
                };
                let map = cut_attribute(&t, &working, &q, attribute, &cfg)
                    .unwrap()
                    .unwrap();
                let (splits, region_counts) = splits_and_counts(&map, attribute);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&splits), bits(&expected), "{attribute}, k = {k}");
                assert_eq!(region_counts, counts, "{attribute}, k = {k}");
            }
        }
    }

    #[test]
    fn order_dependent_strategies_see_the_values_in_row_order() {
        // Split points and region sizes pinned from the commit before the
        // median cut started selecting in place: every strategy that reads
        // the values fetches its own copy, so no permutation the `Median`
        // arm leaves in its buffer reaches another cut.
        let t = scrambled_table();
        let working = t.full_selection();
        let q = ConjunctiveQuery::all("scrambled");
        let cfg = CutConfig {
            numeric: NumericCutStrategy::KMeans { max_iterations: 30 },
            num_splits: 3,
            ..CutConfig::default()
        };
        let map = cut_attribute(&t, &working, &q, "measure", &cfg)
            .unwrap()
            .unwrap();
        let (splits, counts) = splits_and_counts(&map, "measure");
        assert_eq!(splits, [477.82579720077916, 954.399578210189]);
        assert_eq!(counts, [334, 332, 334]);
    }
}
