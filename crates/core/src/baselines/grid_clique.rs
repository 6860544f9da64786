//! A small grid-density subspace-clustering baseline (CLIQUE-style).
//!
//! Section 6 of the paper positions Atlas against subspace clustering, whose
//! canonical grid-based representative is CLIQUE (Agrawal et al.): discretise
//! every dimension into ξ equal-width intervals, call a cell *dense* when it
//! holds more than a τ fraction of the tuples, combine dense units
//! bottom-up (Apriori-style) into higher-dimensional dense units, and report
//! connected dense units as clusters.
//!
//! Since the pipeline redesign the baseline is built from stage traits rather
//! than a private pipeline: [`GridCut`] is a [`CutStrategy`] that emits the
//! dense 1-dimensional units of an attribute as a map, and
//! [`DenseProductMerge`] is a [`MergePolicy`] that intersects unit maps and
//! keeps only the intersections that stay dense (the Apriori step, restricted
//! to 2-d). [`GridCliqueBaseline::generate`] composes the two over all
//! numeric attributes, which is enough to act as the "exhaustive subspace
//! clusterer" comparator in experiment E8: it returns *all* dense regions of
//! *all* subspaces rather than a handful of readable maps.

use crate::error::{AtlasError, Result};
use crate::map::DataMap;
use crate::merge::product_maps;
use crate::pipeline::{CutStrategy, MergePolicy, PipelineContext};
use crate::profile::TableProfile;
use crate::region::Region;
use atlas_columnar::{Bitmap, ColumnStats, DataType, Table};
use atlas_query::{ConjunctiveQuery, Predicate};
use std::borrow::Cow;

/// Configuration of the grid-density baseline.
#[derive(Debug, Clone)]
pub struct GridCliqueConfig {
    /// Number of equal-width intervals per dimension (ξ).
    pub intervals: usize,
    /// Density threshold (τ): a unit is dense when it holds at least this
    /// fraction of the working set.
    pub density_threshold: f64,
    /// Whether to also mine 2-dimensional subspaces.
    pub two_dimensional: bool,
}

impl Default for GridCliqueConfig {
    fn default() -> Self {
        GridCliqueConfig {
            intervals: 8,
            density_threshold: 0.05,
            two_dimensional: true,
        }
    }
}

/// A [`CutStrategy`] that discretises a numeric attribute into equal-width
/// intervals and keeps only the *dense* ones (CLIQUE's 1-dimensional pass).
///
/// Unlike the paper's `CUT`, the result is not a partition: sparse rows fall
/// outside every region, and an attribute with a single dense unit still
/// yields a (one-region) map so higher-dimensional mining can intersect it.
/// Categorical attributes are not cut (`Ok(None)`), as in CLIQUE.
#[derive(Debug, Clone, Copy)]
pub struct GridCut {
    /// Number of equal-width intervals (ξ).
    pub intervals: usize,
    /// Density threshold (τ) as a fraction of the working set.
    pub density_threshold: f64,
}

impl CutStrategy for GridCut {
    fn name(&self) -> &str {
        "grid-dense-cut"
    }

    fn cut<'a>(
        &self,
        ctx: &PipelineContext<'a>,
        working: &Bitmap,
        parent_query: &ConjunctiveQuery,
        attribute: &str,
        _stats: &mut Option<Cow<'a, ColumnStats>>,
    ) -> Result<Option<DataMap>> {
        let column = ctx.table.column(attribute)?;
        if !matches!(column.data_type(), DataType::Int | DataType::Float) {
            return Ok(None);
        }
        let total = working.count();
        if total == 0 {
            return Ok(None);
        }
        let min_count = (self.density_threshold * total as f64).ceil() as usize;
        let Some((min, max)) = column.numeric_min_max(working) else {
            return Ok(None);
        };
        // One value — or, when the ends are NaN, nothing but NaNs.
        if max <= min || min.is_nan() {
            return Ok(None);
        }
        let width = (max - min) / self.intervals as f64;
        let mut regions = Vec::new();
        for i in 0..self.intervals {
            let lo = min + width * i as f64;
            // Upper-exclusive except for the last interval, approximated with
            // a closed range that stops just under the next boundary.
            let hi = if i + 1 == self.intervals {
                max
            } else {
                (min + width * (i + 1) as f64).next_down()
            };
            let query = parent_query
                .clone()
                .and(Predicate::range(attribute, lo, hi));
            let region = Region::new(query, column.select_range(working, lo, hi));
            if region.count() >= min_count {
                regions.push(region);
            }
        }
        if regions.is_empty() {
            return Ok(None);
        }
        Ok(Some(DataMap::new(regions, vec![attribute.to_string()])))
    }
}

/// A [`MergePolicy`] implementing CLIQUE's Apriori step: the product of the
/// member maps, keeping only intersections that are still dense. Returns
/// `Ok(None)` when fewer than two dense units survive (a subspace needs at
/// least two units to describe structure).
#[derive(Debug, Clone, Copy)]
pub struct DenseProductMerge {
    /// Density threshold (τ) as a fraction of the working set.
    pub density_threshold: f64,
}

impl MergePolicy for DenseProductMerge {
    fn name(&self) -> &str {
        "dense-product"
    }

    fn merge(
        &self,
        ctx: &PipelineContext<'_>,
        members: &[DataMap],
        working: &Bitmap,
    ) -> Result<Option<DataMap>> {
        let min_count = (self.density_threshold * working.count() as f64).ceil() as usize;
        let Some(product) = product_maps(members, ctx.drop_empty_regions) else {
            return Ok(None);
        };
        let regions: Vec<Region> = product
            .regions
            .into_iter()
            .filter(|r| r.count() >= min_count)
            .collect();
        if regions.len() < 2 {
            return Ok(None);
        }
        Ok(Some(DataMap::new(regions, product.source_attributes)))
    }
}

/// The grid-density subspace-clustering baseline.
#[derive(Debug, Clone, Default)]
pub struct GridCliqueBaseline {
    /// Configuration.
    pub config: GridCliqueConfig,
}

impl GridCliqueBaseline {
    /// Create a baseline with the given configuration.
    pub fn new(config: GridCliqueConfig) -> Self {
        GridCliqueBaseline { config }
    }

    /// Mine the dense subspace units of the working set and report each
    /// subspace with at least two dense units as one map whose regions are
    /// the dense units.
    ///
    /// The output intentionally ignores the readability constraints: it is the
    /// exhaustive answer a subspace clusterer would give.
    pub fn generate(
        &self,
        table: &Table,
        working: &Bitmap,
        user_query: &ConjunctiveQuery,
    ) -> Result<Vec<DataMap>> {
        if self.config.intervals < 2 {
            return Err(AtlasError::InvalidConfig(
                "intervals must be at least 2".to_string(),
            ));
        }
        if working.count() == 0 {
            return Err(AtlasError::EmptyWorkingSet);
        }
        let cutter = GridCut {
            intervals: self.config.intervals,
            density_threshold: self.config.density_threshold,
        };
        let merger = DenseProductMerge {
            density_threshold: self.config.density_threshold,
        };
        // The grid stages read only the raw columns, never the statistics
        // profile, so an empty one avoids a useless whole-table scan.
        let profile = TableProfile::empty(table.num_rows());
        let cut_config = crate::cut::CutConfig::default();
        let ctx = PipelineContext {
            table,
            profile: &profile,
            cut_config: &cut_config,
            cut_strategy: &cutter,
            drop_empty_regions: true,
            pool: minirayon::ThreadPool::sequential(),
        };

        // Numeric attributes only (as in CLIQUE).
        let numeric: Vec<String> = table
            .schema()
            .fields()
            .iter()
            .filter(|f| matches!(f.dtype, DataType::Int | DataType::Float))
            .map(|f| f.name.clone())
            .collect();
        if numeric.is_empty() {
            return Err(AtlasError::NoCuttableAttributes);
        }

        // 1-dimensional dense-unit maps per attribute.
        let mut one_dim: Vec<DataMap> = Vec::new();
        for attr in &numeric {
            if let Some(map) = cutter.cut(&ctx, working, user_query, attr, &mut None)? {
                one_dim.push(map);
            }
        }

        // Report every 1-d subspace with at least 2 dense units as a map.
        let mut maps: Vec<DataMap> = one_dim
            .iter()
            .filter(|m| m.num_regions() >= 2)
            .cloned()
            .collect();

        // 2-dimensional subspaces: the Apriori step over pairs of attributes.
        if self.config.two_dimensional {
            for i in 0..one_dim.len() {
                for j in (i + 1)..one_dim.len() {
                    let members = [one_dim[i].clone(), one_dim[j].clone()];
                    if let Some(map) = merger.merge(&ctx, &members, working)? {
                        maps.push(map);
                    }
                }
            }
        }
        if maps.is_empty() {
            return Err(AtlasError::NoCuttableAttributes);
        }
        Ok(maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_columnar::{Field, Schema, TableBuilder, Value};

    /// Two tight 2-d clusters plus sparse background noise.
    fn clustered_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..200 {
            let (x, y) = if i < 90 {
                (10.0 + (i % 10) as f64 * 0.1, 20.0 + (i % 9) as f64 * 0.1)
            } else if i < 180 {
                (80.0 + (i % 10) as f64 * 0.1, 90.0 + (i % 9) as f64 * 0.1)
            } else {
                ((i * 37 % 100) as f64, (i * 53 % 100) as f64)
            };
            b.push_row(&[Value::Float(x), Value::Float(y)]).unwrap();
        }
        b.build().unwrap()
    }

    /// A unit's query is its interval: evaluated over the table, every
    /// region's query — 1-d units and 2-d intersections, under a filtering
    /// user query — selects exactly the region's rows.
    #[test]
    fn every_grid_region_is_its_query() {
        let t = clustered_table();
        let user_query = ConjunctiveQuery::all("t").and(Predicate::range("y", 15.0, 95.0));
        let working = atlas_query::evaluate(&user_query, &t).unwrap();
        let maps = GridCliqueBaseline::default()
            .generate(&t, &working, &user_query)
            .unwrap();
        assert!(maps.iter().any(|m| m.source_attributes.len() == 2));
        for region in maps.iter().flat_map(|m| &m.regions) {
            let selected = atlas_query::evaluate(&region.query, &t).unwrap();
            assert_eq!(selected, region.selection, "{}", region.query);
        }
    }

    #[test]
    fn finds_dense_units_in_one_and_two_dimensions() {
        let t = clustered_table();
        let baseline = GridCliqueBaseline::default();
        let maps = baseline
            .generate(&t, &t.full_selection(), &ConjunctiveQuery::all("t"))
            .unwrap();
        // 1-d maps for x and y plus a 2-d map for (x, y).
        assert!(maps.len() >= 3, "got {} maps", maps.len());
        let two_d = maps
            .iter()
            .find(|m| m.source_attributes.len() == 2)
            .expect("a 2-d subspace map");
        // The two planted clusters each fill one dense 2-d unit.
        assert!(two_d.num_regions() >= 2);
        let mut counts = two_d.region_counts();
        counts.sort_unstable();
        counts.reverse();
        assert!(counts[0] >= 80 && counts[1] >= 80, "counts {counts:?}");
    }

    #[test]
    fn density_threshold_prunes_sparse_units() {
        let t = clustered_table();
        let strict = GridCliqueBaseline::new(GridCliqueConfig {
            density_threshold: 0.4,
            ..GridCliqueConfig::default()
        });
        let maps = strict.generate(&t, &t.full_selection(), &ConjunctiveQuery::all("t"));
        // At 40% density only the two big clusters' units survive, and since a
        // subspace needs >= 2 dense units to form a map, results shrink or
        // disappear entirely.
        if let Ok(maps) = maps {
            for map in maps {
                for region in &map.regions {
                    assert!(region.count() >= 80);
                }
            }
        }
    }

    #[test]
    fn one_dimensional_only_mode() {
        let t = clustered_table();
        let baseline = GridCliqueBaseline::new(GridCliqueConfig {
            two_dimensional: false,
            ..GridCliqueConfig::default()
        });
        let maps = baseline
            .generate(&t, &t.full_selection(), &ConjunctiveQuery::all("t"))
            .unwrap();
        for map in &maps {
            assert_eq!(map.source_attributes.len(), 1);
        }
    }

    #[test]
    fn rejects_empty_working_sets_and_bad_config() {
        let t = clustered_table();
        let baseline = GridCliqueBaseline::default();
        assert!(matches!(
            baseline.generate(
                &t,
                &Bitmap::new_empty(t.num_rows()),
                &ConjunctiveQuery::all("t")
            ),
            Err(AtlasError::EmptyWorkingSet)
        ));
        let bad = GridCliqueBaseline::new(GridCliqueConfig {
            intervals: 1,
            ..GridCliqueConfig::default()
        });
        assert!(bad
            .generate(&t, &t.full_selection(), &ConjunctiveQuery::all("t"))
            .is_err());
    }

    #[test]
    fn categorical_only_tables_are_not_supported() {
        let schema = Schema::new(vec![Field::new("c", DataType::Str)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..50 {
            b.push_row(&[Value::Str(["a", "b"][i % 2].into())]).unwrap();
        }
        let t = b.build().unwrap();
        let baseline = GridCliqueBaseline::default();
        assert!(matches!(
            baseline.generate(&t, &t.full_selection(), &ConjunctiveQuery::all("t")),
            Err(AtlasError::NoCuttableAttributes)
        ));
    }
}
