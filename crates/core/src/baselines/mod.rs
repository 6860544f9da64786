//! Baseline map generators used by the evaluation (experiment E8).
//!
//! The paper positions Atlas against two families of alternatives
//! (Section 6): exhaustive cluster/subspace analysis, which returns one
//! complete but unreadable answer, and naive suggestions that ignore the data
//! distribution. The baselines here make that comparison concrete:
//!
//! * [`full_product`] — the exhaustive enumeration: cut *every* attribute and
//!   take the product of all candidate maps. Complete, but violates every
//!   convenience constraint (region count explodes, queries carry one
//!   predicate per attribute).
//! * [`single_attribute`] — no clustering, no merging: just the ranked
//!   one-attribute candidate maps. Readable but blind to multi-attribute
//!   structure.
//! * [`random_map`] — uninformed suggestions: random attribute subsets with
//!   random split points. The floor any data-aware method must beat.
//! * [`grid_clique`] — a small grid-density subspace-clustering system in the
//!   spirit of CLIQUE, standing in for the "exhaustive subspace clustering"
//!   comparison of Section 6.
//!
//! None of the baselines owns a private pipeline: each one builds a
//! [`crate::pipeline::PipelineContext`] and calls the stage traits of
//! [`crate::pipeline`] — the random and grid cutters are
//! [`crate::pipeline::CutStrategy`] implementations ([`RandomCut`],
//! [`GridCut`]), the density-filtered Apriori step is a
//! [`crate::pipeline::MergePolicy`] ([`DenseProductMerge`]), and the
//! exhaustive/single-attribute baselines reuse the paper's own cut and
//! merge with steps omitted. A cutter also plugs into a prepared engine
//! through [`crate::engine::AtlasBuilder::cut_strategy`].

pub mod full_product;
pub mod grid_clique;
pub mod random_map;
pub mod single_attribute;

pub use full_product::FullProductBaseline;
pub use grid_clique::{DenseProductMerge, GridCliqueBaseline, GridCliqueConfig, GridCut};
pub use random_map::{RandomCut, RandomMapBaseline, RandomMapConfig};
pub use single_attribute::SingleAttributeBaseline;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CutStrategy, PipelineContext};
    use atlas_columnar::{Bitmap, DataType, Field, Schema, TableBuilder, Value};
    use atlas_query::ConjunctiveQuery;

    #[test]
    fn a_nan_only_working_set_is_not_cut() {
        // `numeric_min_max` reports NaN ends there, and neither a split point
        // nor a grid can be drawn between those (`gen_range` would panic).
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        for x in [f64::NAN, 1.0, f64::NAN, 2.0] {
            b.push_row(&[Value::Float(x)]).unwrap();
        }
        let table = b.build().unwrap();
        let random = RandomCut::new(1);
        let grid = GridCut {
            intervals: 4,
            density_threshold: 0.1,
        };
        let ctx = PipelineContext {
            table: &table,
            profile: &crate::TableProfile::empty(4),
            cut_config: &crate::CutConfig::default(),
            cut_strategy: &random,
            drop_empty_regions: true,
            pool: crate::ThreadPool::sequential(),
        };
        let query = ConjunctiveQuery::all("t");
        let nans = Bitmap::from_indices(4, [0, 2]);
        assert!(random
            .cut(&ctx, &nans, &query, "x", &mut None)
            .unwrap()
            .is_none());
        assert!(grid
            .cut(&ctx, &nans, &query, "x", &mut None)
            .unwrap()
            .is_none());
        // With a number in reach the NaNs are ignored and the cut goes ahead.
        let mixed = Bitmap::from_indices(4, [0, 1, 3]);
        assert!(random
            .cut(&ctx, &mixed, &query, "x", &mut None)
            .unwrap()
            .is_some());
    }
}
