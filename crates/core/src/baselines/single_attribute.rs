//! Single-attribute baseline: the candidate maps, ranked, nothing more.
//!
//! Built from the shared stages — [`PaperCut`] for the candidates,
//! [`rank_maps`] for the ordering — with the clustering and merging steps
//! simply omitted.

use crate::candidates::generate_candidates_in_context;
use crate::cut::CutConfig;
use crate::error::{AtlasError, Result};
use crate::pipeline::{PaperCut, PipelineContext};
use crate::profile::TableProfile;
use crate::rank::{rank_maps, RankedMap};
use atlas_columnar::{Bitmap, Table};
use atlas_query::ConjunctiveQuery;

/// The no-clustering, no-merging baseline.
///
/// It simply returns the one-attribute candidate maps ranked by entropy. Its
/// maps are maximally readable (one predicate each) but can never express
/// multi-attribute structure, which is exactly what Figure 2 of the paper is
/// about.
#[derive(Debug, Clone, Default)]
pub struct SingleAttributeBaseline {
    /// The cut configuration used for every attribute.
    pub cut: CutConfig,
}

impl SingleAttributeBaseline {
    /// Generate the ranked single-attribute maps for a working set.
    pub fn generate(
        &self,
        table: &Table,
        working: &Bitmap,
        user_query: &ConjunctiveQuery,
    ) -> Result<Vec<RankedMap>> {
        let profile = TableProfile::empty(table.num_rows());
        let strategy = PaperCut;
        let ctx = PipelineContext {
            table,
            profile: &profile,
            cut_config: &self.cut,
            cut_strategy: &strategy,
            drop_empty_regions: true,
            pool: minirayon::ThreadPool::sequential(),
        };
        let candidates = generate_candidates_in_context(&ctx, working, user_query, None)?;
        if candidates.is_empty() {
            return Err(AtlasError::NoCuttableAttributes);
        }
        Ok(rank_maps(candidates.maps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_columnar::{DataType, Field, Schema, TableBuilder, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("balanced", DataType::Int),
            Field::new("skewed", DataType::Str),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..100i64 {
            b.push_row(&[
                Value::Int(i % 10),
                Value::Str(if i < 95 { "common" } else { "rare" }.into()),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn produces_one_map_per_attribute_each_with_one_predicate() {
        let t = table();
        let baseline = SingleAttributeBaseline::default();
        let maps = baseline
            .generate(&t, &t.full_selection(), &ConjunctiveQuery::all("t"))
            .unwrap();
        assert_eq!(maps.len(), 2);
        for ranked in &maps {
            assert_eq!(ranked.map.max_predicates(), 1);
            assert_eq!(ranked.map.source_attributes.len(), 1);
        }
        // The balanced attribute ranks above the skewed one.
        assert_eq!(maps[0].map.source_attributes, vec!["balanced"]);
        assert!(maps[0].score > maps[1].score);
    }
}
