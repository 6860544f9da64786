//! Random-map baseline: uninformed query suggestions.
//!
//! Since the pipeline redesign the baseline is no longer a separate code
//! path: the random splitting lives in [`RandomCut`], an alternative
//! [`CutStrategy`] implementation, and maps are assembled by composing those
//! cuts through the shared [`CompositionMerge`] policy — the same machinery
//! the real engine uses, just with data-blind split points.

use crate::cut::CutConfig;
use crate::error::{AtlasError, Result};
use crate::map::DataMap;
use crate::pipeline::{CompositionMerge, CutStrategy, MergePolicy, PipelineContext};
use crate::profile::TableProfile;
use crate::region::Region;
use atlas_columnar::{Bitmap, ColumnStats, DataType, Table};
use atlas_query::{ConjunctiveQuery, Predicate};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::sync::Mutex;

/// Configuration of the random baseline.
#[derive(Debug, Clone)]
pub struct RandomMapConfig {
    /// Number of maps to generate.
    pub num_maps: usize,
    /// Maximum number of attributes per map.
    pub max_attributes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomMapConfig {
    fn default() -> Self {
        RandomMapConfig {
            num_maps: 10,
            max_attributes: 3,
            seed: 7,
        }
    }
}

/// A [`CutStrategy`] that splits attributes at *uniformly random* points
/// (instead of data-driven ones): numeric attributes at a random point of
/// their observed range, categorical attributes into random halves of their
/// value list. Any data-aware strategy should produce better-balanced, more
/// informative maps.
///
/// The RNG state is interior (behind a mutex), so the strategy satisfies the
/// `Send + Sync` stage contract while each call advances one deterministic,
/// seeded stream.
#[derive(Debug)]
pub struct RandomCut {
    rng: Mutex<StdRng>,
}

impl RandomCut {
    /// A random cutter with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomCut {
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }
}

impl CutStrategy for RandomCut {
    fn name(&self) -> &str {
        "random-cut"
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
        let mut rng = self.rng.lock().expect("rng lock is never poisoned");
        let regions = match column.data_type() {
            DataType::Int | DataType::Float => {
                let Some((min, max)) = column.numeric_min_max(working) else {
                    return Ok(None);
                };
                // One value — or, when the ends are NaN, nothing but NaNs.
                if max <= min || min.is_nan() {
                    return Ok(None);
                }
                let split = rng.gen_range(min..max);
                let low = column.select_range(working, min, split);
                let high = column.select_range(working, split.next_up(), max);
                vec![
                    Region::new(
                        parent_query
                            .clone()
                            .and(Predicate::range(attribute, min, split)),
                        low,
                    ),
                    Region::new(
                        parent_query
                            .clone()
                            .and(Predicate::range(attribute, split.next_up(), max)),
                        high,
                    ),
                ]
            }
            DataType::Str | DataType::Bool => {
                let mut categories: Vec<String> = column
                    .categories_by_frequency(working)
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect();
                if categories.len() < 2 {
                    return Ok(None);
                }
                categories.shuffle(&mut *rng);
                let cut_point = rng.gen_range(1..categories.len());
                let (left, right) = categories.split_at(cut_point);
                [left, right]
                    .into_iter()
                    .map(|group| {
                        Region::new(
                            parent_query
                                .clone()
                                .and(Predicate::values(attribute, group.iter().cloned())),
                            column.select_in(working, group),
                        )
                    })
                    .collect()
            }
        };
        Ok(Some(DataMap::new(regions, vec![attribute.to_string()])))
    }
}

/// The uninformed baseline: random attribute subsets, random split points.
#[derive(Debug, Clone, Default)]
pub struct RandomMapBaseline {
    /// Configuration.
    pub config: RandomMapConfig,
}

impl RandomMapBaseline {
    /// Create a baseline with the given configuration.
    pub fn new(config: RandomMapConfig) -> Self {
        RandomMapBaseline { config }
    }

    /// Generate random maps over the working set by composing [`RandomCut`]
    /// splits through the shared [`CompositionMerge`] policy.
    pub fn generate(
        &self,
        table: &Table,
        working: &Bitmap,
        user_query: &ConjunctiveQuery,
    ) -> Result<Vec<DataMap>> {
        let profile = TableProfile::empty(table.num_rows());
        let strategy = RandomCut::new(self.config.seed);
        let cut_config = CutConfig::default();
        let ctx = PipelineContext {
            table,
            profile: &profile,
            cut_config: &cut_config,
            cut_strategy: &strategy,
            drop_empty_regions: true,
            pool: minirayon::ThreadPool::sequential(),
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        // Usability is judged on the *working set* (a column constant within
        // a drill-down subset is not usable there, whatever the full table
        // looks like).
        let usable: Vec<String> = table
            .schema()
            .fields()
            .iter()
            .filter(|f| {
                let stats = profile
                    .stats_for(table, &f.name, working)
                    .expect("schema-listed column exists");
                stats.distinct_count >= 2 && !stats.looks_like_identifier()
            })
            .map(|f| f.name.clone())
            .collect();
        if usable.is_empty() {
            return Err(AtlasError::NoCuttableAttributes);
        }
        let mut maps = Vec::with_capacity(self.config.num_maps);
        for _ in 0..self.config.num_maps {
            let how_many = rng.gen_range(1..=self.config.max_attributes.min(usable.len()));
            let mut attrs = usable.clone();
            attrs.shuffle(&mut rng);
            attrs.truncate(how_many);
            // Composition only reads the *attribute* of members after the
            // first, so the whole working set as a single base region plus
            // one region-less stub per attribute reproduces the recursive
            // random splitting exactly: each region is re-cut locally (its
            // own min/max) by [`RandomCut`], and regions an attribute cannot
            // split are kept whole.
            let mut members = Vec::with_capacity(attrs.len() + 1);
            members.push(DataMap::new(
                vec![Region::new(user_query.clone(), working.clone())],
                Vec::new(),
            ));
            for attr in &attrs {
                members.push(DataMap::new(Vec::new(), vec![attr.clone()]));
            }
            let map = CompositionMerge
                .merge(&ctx, &members, working)?
                .expect("composing a non-empty member list yields a map");
            maps.push(map);
        }
        Ok(maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_columnar::{Field, Schema, TableBuilder, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("group", DataType::Str),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..300 {
            b.push_row(&[
                Value::Float((i % 100) as f64),
                Value::Str(["a", "b", "c"][i % 3].into()),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn generates_requested_number_of_valid_maps() {
        let t = table();
        let baseline = RandomMapBaseline::new(RandomMapConfig {
            num_maps: 8,
            max_attributes: 2,
            seed: 3,
        });
        let maps = baseline
            .generate(&t, &t.full_selection(), &ConjunctiveQuery::all("t"))
            .unwrap();
        assert_eq!(maps.len(), 8);
        for map in &maps {
            assert!(map.num_regions() >= 1);
            assert!(map.regions_are_disjoint());
            assert!(map.source_attributes.len() <= 2);
            // Random maps never lose tuples other than through empty regions.
            assert!(map.covered_count() <= 300);
        }
    }

    #[test]
    fn is_deterministic_per_seed() {
        let t = table();
        let make = |seed| {
            RandomMapBaseline::new(RandomMapConfig {
                num_maps: 5,
                max_attributes: 2,
                seed,
            })
            .generate(&t, &t.full_selection(), &ConjunctiveQuery::all("t"))
            .unwrap()
        };
        let a = make(11);
        let b = make(11);
        assert_eq!(a.len(), b.len());
        for (ma, mb) in a.iter().zip(b.iter()) {
            assert_eq!(ma.source_attributes, mb.source_attributes);
            assert_eq!(ma.region_counts(), mb.region_counts());
        }
    }

    #[test]
    fn random_maps_are_usually_less_balanced_than_median_cuts() {
        // The entropy of a median cut is maximal (1 bit for a two-way split);
        // random splits on a uniform attribute average well below that.
        let t = table();
        let baseline = RandomMapBaseline::new(RandomMapConfig {
            num_maps: 20,
            max_attributes: 1,
            seed: 5,
        });
        let maps = baseline
            .generate(&t, &t.full_selection(), &ConjunctiveQuery::all("t"))
            .unwrap();
        let mean_entropy: f64 = maps.iter().map(|m| m.entropy()).sum::<f64>() / maps.len() as f64;
        assert!(mean_entropy < 0.99, "mean random entropy {mean_entropy}");
    }

    #[test]
    fn all_identifier_table_is_an_error() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        for i in 0..100 {
            b.push_row(&[Value::Int(i)]).unwrap();
        }
        let t = b.build().unwrap();
        let baseline = RandomMapBaseline::default();
        assert!(matches!(
            baseline.generate(&t, &t.full_selection(), &ConjunctiveQuery::all("t")),
            Err(AtlasError::NoCuttableAttributes)
        ));
    }

    #[test]
    fn random_cut_is_a_usable_cut_strategy() {
        // RandomCut plugs into the pipeline traits like any other strategy.
        let t = table();
        let profile = TableProfile::build(&t);
        let strategy = RandomCut::new(99);
        let cut_config = CutConfig::default();
        let ctx = PipelineContext {
            table: &t,
            profile: &profile,
            cut_config: &cut_config,
            cut_strategy: &strategy,
            drop_empty_regions: true,
            pool: minirayon::ThreadPool::sequential(),
        };
        let working = t.full_selection();
        let query = ConjunctiveQuery::all("t");
        let numeric = strategy
            .cut(&ctx, &working, &query, "x", &mut None)
            .unwrap()
            .unwrap();
        assert_eq!(numeric.num_regions(), 2);
        assert!(numeric.regions_are_disjoint());
        let categorical = strategy
            .cut(&ctx, &working, &query, "group", &mut None)
            .unwrap()
            .unwrap();
        assert_eq!(categorical.num_regions(), 2);
        assert_eq!(categorical.covered_count(), 300);
    }
}
