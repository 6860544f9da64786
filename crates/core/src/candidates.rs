//! Candidate map generation (step 1 of the framework).
//!
//! Every usable attribute of the working set is broken down with the `CUT`
//! primitive into a simple one-attribute map. Attributes that cannot be cut —
//! constants, identifiers, very-high-cardinality categoricals — are skipped,
//! as Section 5.2 of the paper recommends.

use crate::cut::CutConfig;
use crate::map::DataMap;
use crate::pipeline::{AttributeStats, PaperCut, PipelineContext};
use crate::profile::TableProfile;
use crate::Result;
use atlas_columnar::{Bitmap, Table};
use atlas_query::ConjunctiveQuery;

/// The set of candidate maps generated from a working set.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    /// One single-attribute map per cuttable attribute.
    pub maps: Vec<DataMap>,
    /// Attributes that were considered but could not be cut, with no map
    /// produced (constant, identifier-like, too many categories, all NULL).
    pub skipped: Vec<String>,
}

impl CandidateSet {
    /// The attribute behind each candidate map, in order.
    pub fn attributes(&self) -> Vec<&str> {
        self.maps
            .iter()
            .map(|m| m.source_attributes[0].as_str())
            .collect()
    }

    /// Number of candidate maps.
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// True if no candidate map could be generated.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }
}

/// Generate the candidate maps for a working set through a pipeline context:
/// one [`crate::pipeline::CutStrategy::cut`] call per considered attribute.
///
/// `attributes` restricts the candidate generation to a subset of columns; if
/// `None`, every column of the table is considered.
///
/// Attributes are cut **in parallel** across `ctx.pool` (one task per
/// attribute) and the results are assembled in schema order, so the candidate
/// set — including the order of `maps` and `skipped`, and which error is
/// reported on failure — is identical at every parallelism level for pure
/// cut strategies.
pub fn generate_candidates_in_context(
    ctx: &PipelineContext<'_>,
    working: &Bitmap,
    parent_query: &ConjunctiveQuery,
    attributes: Option<&[String]>,
) -> Result<CandidateSet> {
    cut_candidates(ctx, working, parent_query, attributes).map(|(candidates, _)| candidates)
}

/// [`generate_candidates_in_context`], also returning the statistics over
/// `working` the cuts read ([`crate::pipeline::CutStrategy::cut`] leaves
/// them in its `stats`), by attribute, in schema order —
/// what an explore hands its merge phase
/// ([`crate::pipeline::ExploreSource::candidates`]). A strategy that
/// reads none returns none.
pub(crate) fn cut_candidates<'a>(
    ctx: &PipelineContext<'a>,
    working: &Bitmap,
    parent_query: &ConjunctiveQuery,
    attributes: Option<&[String]>,
) -> Result<(CandidateSet, Vec<AttributeStats<'a>>)> {
    let names: Vec<String> = match attributes {
        Some(list) => list.to_vec(),
        None => ctx
            .table
            .schema()
            .names()
            .into_iter()
            .map(|s| s.to_string())
            .collect(),
    };
    // Pool workers inherit the dispatching thread's span context so kernel
    // events raised inside `cut` attach to the surrounding phase span.
    let parent = atlas_obs::current();
    let cuts = ctx.pool.par_map(&names, |name| {
        let _trace = atlas_obs::with_context(parent);
        let mut stats = None;
        let cut = ctx
            .cut_strategy
            .cut(ctx, working, parent_query, name, &mut stats);
        (cut, stats)
    });
    let mut maps = Vec::with_capacity(names.len());
    let mut skipped = Vec::new();
    let mut held = Vec::new();
    for (name, (cut, stats)) in names.into_iter().zip(cuts) {
        let cut = cut?;
        if let Some(stats) = stats {
            held.push((name.clone(), stats));
        }
        match cut {
            Some(map) => maps.push(map),
            None => skipped.push(name),
        }
    }
    Ok((CandidateSet { maps, skipped }, held))
}

/// Standalone candidate generation with the paper's `CUT` strategy: profiles
/// the table on the spot and delegates to [`generate_candidates_in_context`].
/// Prefer a prepared [`crate::engine::Atlas`] (and its
/// [`crate::engine::Atlas::candidates`]) when generating candidates more than
/// once for the same table.
pub fn generate_candidates(
    table: &Table,
    working: &Bitmap,
    parent_query: &ConjunctiveQuery,
    attributes: Option<&[String]>,
    config: &CutConfig,
) -> Result<CandidateSet> {
    // An empty profile: one-shot callers compute working-set statistics on
    // the fly (as before the redesign) instead of profiling the whole table.
    let profile = TableProfile::empty(table.num_rows());
    let strategy = PaperCut;
    let ctx = PipelineContext {
        table,
        profile: &profile,
        cut_config: config,
        cut_strategy: &strategy,
        drop_empty_regions: true,
        pool: minirayon::ThreadPool::sequential(),
    };
    generate_candidates_in_context(&ctx, working, parent_query, attributes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_columnar::{DataType, Field, Schema, TableBuilder, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::new("sex", DataType::Str),
            Field::new("constant", DataType::Int),
            Field::new("user_id", DataType::Int),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..100i64 {
            b.push_row(&[
                Value::Int(20 + i % 50),
                Value::Str(if i % 3 == 0 { "F" } else { "M" }.into()),
                Value::Int(7),
                Value::Int(i),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn generates_one_map_per_cuttable_attribute() {
        let t = table();
        let working = t.full_selection();
        let q = ConjunctiveQuery::all("t");
        let candidates =
            generate_candidates(&t, &working, &q, None, &CutConfig::default()).unwrap();
        assert_eq!(candidates.len(), 2);
        assert_eq!(candidates.attributes(), vec!["age", "sex"]);
        assert_eq!(
            candidates.skipped,
            vec!["constant".to_string(), "user_id".to_string()]
        );
        assert!(!candidates.is_empty());
        for map in &candidates.maps {
            assert!(map.num_regions() >= 2);
            assert!(map.regions_are_disjoint());
        }
    }

    #[test]
    fn attribute_restriction_is_honoured() {
        let t = table();
        let working = t.full_selection();
        let q = ConjunctiveQuery::all("t");
        let only_age = vec!["age".to_string()];
        let candidates =
            generate_candidates(&t, &working, &q, Some(&only_age), &CutConfig::default()).unwrap();
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates.attributes(), vec!["age"]);
    }

    #[test]
    fn unknown_attribute_in_restriction_is_an_error() {
        let t = table();
        let working = t.full_selection();
        let q = ConjunctiveQuery::all("t");
        let bad = vec!["nope".to_string()];
        assert!(generate_candidates(&t, &working, &q, Some(&bad), &CutConfig::default()).is_err());
    }

    #[test]
    fn empty_working_set_produces_no_candidates() {
        let t = table();
        let working = Bitmap::new_empty(t.num_rows());
        let q = ConjunctiveQuery::all("t");
        let candidates =
            generate_candidates(&t, &working, &q, None, &CutConfig::default()).unwrap();
        assert!(candidates.is_empty());
        assert_eq!(candidates.skipped.len(), 4);
    }
}
