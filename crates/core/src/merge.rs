//! Merging the maps of a cluster (step 3 of the framework).
//!
//! Two operators are defined in Section 3.3 of the paper:
//!
//! * **product** (`M1 × M2`, Definition 3) — intersect every region of the
//!   first map with every region of the second. The split points stay the
//!   global ones, so the result is a regular grid over the involved
//!   attributes: "natural", but unlikely to expose clusters.
//! * **composition** (`M1 ∘ M2`, Definition 4) — take every region of the
//!   first map and re-apply `CUT` *inside it* on the attributes of the second
//!   map. Because the cut criteria (median, k-means, …) are re-evaluated on
//!   the region's own tuples, the split points adapt locally, which is what
//!   gives composition "a higher chance of revealing the clusters in the
//!   data".
//!
//! Both operators are associative enough for Atlas's purposes: clusters are
//! merged by folding the operator over the cluster's maps in order.

use crate::map::DataMap;
use crate::region::Region;
use atlas_query::ConjunctiveQuery;
use std::borrow::Cow;

/// The product `M1 × M2 × …` of the given maps (Definition 3).
///
/// Every region of the result is the conjunction of one region per input map;
/// regions whose intersection is empty are dropped when `drop_empty` is set.
/// The order of the inputs does not affect the set of non-empty regions.
pub fn product_maps(maps: &[DataMap], drop_empty: bool) -> Option<DataMap> {
    let (first, others) = maps.split_first()?;
    if others.is_empty() {
        return Some(first.clone());
    }
    let mut regions = Cow::Borrowed(first.regions.as_slice());
    for other in others {
        let mut next = Vec::with_capacity(regions.len() * other.regions.len());
        for left in regions.iter() {
            for right in &other.regions {
                let selection = left.selection.and(&right.selection);
                if drop_empty && selection.is_all_clear() {
                    continue;
                }
                next.push(Region::new(left.query.conjoin(&right.query), selection));
            }
        }
        regions = Cow::Owned(next);
    }
    Some(DataMap::new(regions.into_owned(), product_attributes(maps)))
}

/// [`product_maps`] for a caller that holds the maps' queries and the
/// product's cell counts but no rows — a distributed coordinator, whose
/// shards count the cells. `cells` holds, for every combination of one
/// region per map in row-major order (the first map's region index most
/// significant), how many rows the combination's conjunction selects. The
/// regions are those of [`product_maps`] — same queries, counts and order —
/// built without rows ([`Region::released`]): a combination is empty when
/// any of its partial products is, so dropping empty final cells drops what
/// [`product_maps`] drops step by step. `None` when there are no maps or
/// `cells` does not hold one count per combination.
pub fn product_of_counts(maps: &[DataMap], cells: &[u64], drop_empty: bool) -> Option<DataMap> {
    let (first, others) = maps.split_first()?;
    if others.is_empty() {
        return Some(first.clone());
    }
    let mut combinations: Vec<(ConjunctiveQuery, usize)> = first
        .regions
        .iter()
        .enumerate()
        .map(|(at, region)| (region.query.clone(), at))
        .collect();
    for other in others {
        let width = other.num_regions();
        combinations = combinations
            .iter()
            .flat_map(|(query, at)| {
                let right = other.regions.iter().enumerate();
                right.map(move |(j, region)| (query.conjoin(&region.query), at * width + j))
            })
            .collect();
    }
    if cells.len() != combinations.len() {
        return None;
    }
    let regions = combinations
        .into_iter()
        .zip(cells)
        .filter(|(_, &count)| !drop_empty || count > 0)
        .map(|((query, _), &count)| Region::released(query, count as usize))
        .collect();
    Some(DataMap::new(regions, product_attributes(maps)))
}

/// The source attributes of a product: the first map's, then each later
/// map's that are new, in order.
fn product_attributes(maps: &[DataMap]) -> Vec<String> {
    let mut attributes: Vec<String> = Vec::new();
    for attribute in maps.iter().flat_map(|map| &map.source_attributes) {
        if !attributes.contains(attribute) {
            attributes.push(attribute.clone());
        }
    }
    attributes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{cut_attribute, CutConfig, NumericCutStrategy};
    use crate::pipeline::{CompositionMerge, MergePolicy, PaperCut, PipelineContext};
    use crate::profile::TableProfile;
    use atlas_columnar::{Bitmap, DataType, Field, Schema, Table, TableBuilder, Value};
    use atlas_query::{ConjunctiveQuery, Predicate};

    /// The composition (Definition 4) of `maps` cut from the whole table, run
    /// by [`CompositionMerge`] with no profile and no pool: every region's
    /// statistics are walked.
    fn compose(maps: &[DataMap], table: &Table, config: &CutConfig) -> Option<DataMap> {
        let profile = TableProfile::empty(table.num_rows());
        let ctx = PipelineContext {
            table,
            profile: &profile,
            cut_config: config,
            cut_strategy: &PaperCut,
            drop_empty_regions: true,
            pool: minirayon::ThreadPool::sequential(),
        };
        CompositionMerge
            .merge(&ctx, maps, &table.full_selection())
            .unwrap()
    }

    /// A table with two numeric attributes holding 4 well-separated clusters
    /// arranged so that neither attribute alone separates them all, plus a
    /// categorical attribute.
    fn clustered_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("size", DataType::Float),
            Field::new("weight", DataType::Float),
            Field::new("label", DataType::Str),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        // Clusters at (size, weight) = (10,10), (10,40), (100,60), (100,90):
        // the weight gap of the small-size pair, (14, 40), and the weight gap
        // of the large-size pair, (64, 90), do not overlap, so *no single
        // global weight split* can separate both pairs — exactly the situation
        // where composition (local re-cutting) beats product (global grid).
        let centres = [(10.0, 10.0), (10.0, 40.0), (100.0, 60.0), (100.0, 90.0)];
        for (ci, (cx, cy)) in centres.iter().enumerate() {
            for i in 0..25 {
                let dx = (i % 5) as f64;
                let dy = (i / 5) as f64;
                b.push_row(&[
                    Value::Float(cx + dx),
                    Value::Float(cy + dy),
                    Value::Str(format!("c{ci}")),
                ])
                .unwrap();
            }
        }
        b.build().unwrap()
    }

    /// A table with two independent, uniform numeric attributes: every cell of
    /// a 2 × 2 product grid is populated.
    fn independent_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("size", DataType::Float),
            Field::new("weight", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..100 {
            b.push_row(&[
                Value::Float((i % 10) as f64),
                Value::Float(((i / 10) % 10) as f64),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    fn candidate(table: &Table, attr: &str, strategy: NumericCutStrategy) -> DataMap {
        let config = CutConfig {
            numeric: strategy,
            ..CutConfig::default()
        };
        cut_attribute(
            table,
            &table.full_selection(),
            &ConjunctiveQuery::all("t"),
            attr,
            &config,
        )
        .unwrap()
        .unwrap()
    }

    #[test]
    fn product_of_two_binary_maps_has_four_regions() {
        let t = independent_table();
        let m1 = candidate(&t, "size", NumericCutStrategy::Median);
        let m2 = candidate(&t, "weight", NumericCutStrategy::Median);
        let product = product_maps(&[m1, m2], true).unwrap();
        assert_eq!(product.num_regions(), 4);
        assert!(product.regions_are_disjoint());
        assert_eq!(product.covered_count(), 100);
        assert_eq!(product.source_attributes, vec!["size", "weight"]);
        assert_eq!(product.max_predicates(), 2);
    }

    #[test]
    fn product_is_commutative_up_to_region_order() {
        let t = independent_table();
        let m1 = candidate(&t, "size", NumericCutStrategy::Median);
        let m2 = candidate(&t, "weight", NumericCutStrategy::Median);
        let p12 = product_maps(&[m1.clone(), m2.clone()], true).unwrap();
        let p21 = product_maps(&[m2, m1], true).unwrap();
        let mut counts12 = p12.region_counts();
        let mut counts21 = p21.region_counts();
        counts12.sort_unstable();
        counts21.sort_unstable();
        assert_eq!(counts12, counts21);
        assert_eq!(p12.covered_count(), p21.covered_count());
    }

    #[test]
    fn product_drops_or_keeps_empty_regions() {
        let t = independent_table();
        // Two maps on the same attribute: the off-diagonal intersections are empty.
        let m1 = candidate(&t, "size", NumericCutStrategy::Median);
        let m2 = candidate(&t, "size", NumericCutStrategy::Median);
        let dropped = product_maps(&[m1.clone(), m2.clone()], true).unwrap();
        assert_eq!(dropped.num_regions(), 2);
        let kept = product_maps(&[m1, m2], false).unwrap();
        assert_eq!(kept.num_regions(), 4);
    }

    #[test]
    fn product_of_single_map_is_identity_and_empty_input_is_none() {
        let t = clustered_table();
        let m1 = candidate(&t, "size", NumericCutStrategy::Median);
        let p = product_maps(std::slice::from_ref(&m1), true).unwrap();
        assert_eq!(p.num_regions(), m1.num_regions());
        assert!(product_maps(&[], true).is_none());
        assert!(compose(&[], &t, &CutConfig::default()).is_none());
    }

    #[test]
    fn composition_recuts_locally() {
        let t = clustered_table();
        let cfg = CutConfig {
            numeric: NumericCutStrategy::KMeans { max_iterations: 50 },
            ..CutConfig::default()
        };
        let m_size = candidate(
            &t,
            "size",
            NumericCutStrategy::KMeans { max_iterations: 50 },
        );
        let m_weight = candidate(
            &t,
            "weight",
            NumericCutStrategy::KMeans { max_iterations: 50 },
        );
        let composed = compose(&[m_size, m_weight], &t, &cfg).unwrap();
        assert_eq!(composed.num_regions(), 4);
        assert!(composed.regions_are_disjoint());
        assert_eq!(composed.covered_count(), 100);
        // Each composed region should isolate exactly one planted cluster of 25.
        let mut counts = composed.region_counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![25, 25, 25, 25]);
    }

    #[test]
    fn composition_reveals_clusters_product_misses() {
        // The planted clusters sit at different weight levels depending on the
        // size group, so the *global* median weight split (product) cannot
        // separate them inside both size groups, while local re-cutting
        // (composition) can.
        let t = clustered_table();
        let labels: Vec<u32> = (0..100).map(|i| (i / 25) as u32).collect();
        let cfg = CutConfig {
            numeric: NumericCutStrategy::KMeans { max_iterations: 50 },
            ..CutConfig::default()
        };
        let m_size = candidate(
            &t,
            "size",
            NumericCutStrategy::KMeans { max_iterations: 50 },
        );
        let m_weight = candidate(
            &t,
            "weight",
            NumericCutStrategy::KMeans { max_iterations: 50 },
        );

        let composed = compose(&[m_size.clone(), m_weight.clone()], &t, &cfg).unwrap();
        let product = product_maps(&[m_size, m_weight], true).unwrap();

        let ari_composed = atlas_stats::adjusted_rand_index(&composed.region_labels(100), &labels);
        let ari_product = atlas_stats::adjusted_rand_index(&product.region_labels(100), &labels);
        assert!(
            ari_composed > ari_product,
            "composition ARI {ari_composed} should beat product ARI {ari_product}"
        );
        assert!(
            ari_composed > 0.95,
            "composition should recover the planted clusters"
        );
    }

    #[test]
    fn composition_keeps_uncuttable_regions_whole() {
        let t = clustered_table();
        let cfg = CutConfig::default();
        let m_label = cut_attribute(
            &t,
            &t.full_selection(),
            &ConjunctiveQuery::all("t"),
            "label",
            &cfg,
        )
        .unwrap()
        .unwrap();
        // Compose with a map on a constant attribute: build one artificially.
        let constant_region = Region::new(
            ConjunctiveQuery::all("t").and(Predicate::range("size", 0.0, 1000.0)),
            t.full_selection(),
        );
        let degenerate = DataMap::new(vec![constant_region], vec!["size".to_string()]);
        // Composing label-map with a map whose attribute cannot be cut further
        // inside tiny regions must not lose coverage.
        let composed = compose(&[m_label.clone(), degenerate], &t, &cfg).unwrap();
        assert_eq!(composed.covered_count(), 100);
        assert!(composed.num_regions() >= m_label.num_regions());
    }

    #[test]
    fn product_respects_working_subsets() {
        let t = clustered_table();
        let working = Bitmap::from_indices(100, 0..50);
        let cfg = CutConfig::default();
        let q = ConjunctiveQuery::all("t");
        let m1 = cut_attribute(&t, &working, &q, "weight", &cfg)
            .unwrap()
            .unwrap();
        let m2 = cut_attribute(&t, &working, &q, "label", &cfg)
            .unwrap()
            .unwrap();
        let product = product_maps(&[m1, m2], true).unwrap();
        assert_eq!(product.covered_count(), 50);
        for region in &product.regions {
            for row in region.selection.iter_ones() {
                assert!(row < 50);
            }
        }
    }
}
