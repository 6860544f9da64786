//! What a distributed explore asks the shards and how it folds their
//! replies: the working set, the paper's CUT, cluster, merge and rank over a
//! remote source.
//!
//! 1. **working set and summaries** — one `/shard/working` round: the user
//!    query is evaluated per shard segment, which keeps the rows for its
//!    later rounds and answers how many it selected — the coordinator holds
//!    those counts, never a row — and the per-column statistics as
//!    mergeable [`ColumnSummary`] parts. A shard folds them over each run of
//!    consecutive segments it answers for (one run under the default
//!    contiguous assignment) and the coordinator folds the runs, both in
//!    ascending segment order;
//! 2. **candidates** — the single shared `CUT` body ([`cuts_from_source`])
//!    runs locally over a [`CutSource`] whose kernels scatter to the shards.
//!    The folded summaries hold the value counts a median cut reads and the
//!    category counts a categorical cut reads, so every counted column's cut
//!    is planned from them alone, and **all** the planned cuts are one
//!    `/shard/select` round: an explore of counted columns makes 2 round
//!    trips (1 when nothing is cut), and a column too wide to count adds its
//!    `/shard/values` or `/shard/categories` round. That round ships counts,
//!    not rows: each shard partitions its segments with the engine's kernels
//!    and answers each cut's region counts and each pair of cuts' contingency
//!    cells, summed over its segments;
//! 3. **distances, clustering, merging, ranking** — the engine's own body,
//!    [`explore_from_source`], runs over a remote source that answers from
//!    those counts: a pair's distance from its cells, a product merge of two
//!    maps from the same cells (each cell a region, its query the
//!    conjunction), and the ranking, the region cap and the answer from
//!    region counts. A cluster of three or more maps asks one more
//!    `/shard/select` round for its own cells. A composition (Definition 4,
//!    the paper's configuration) re-cuts each region of a level from the
//!    region's query, which costs one `/shard/working` round on the region's
//!    SQL: its folded summaries are the region's statistics, and they count
//!    the sub-regions ([`CutPlan::counts_from_stats`]) — only a column too
//!    wide to count adds a `/shard/select` round. The next level re-cuts
//!    from the sub-regions' SQL, so every level is counted.
//!
//! ## Replies are decoded where they land
//!
//! The fold starts at the shards: a `/shard/working` partial answers a run
//! of consecutive segments with one summary per column, folded there in
//! ascending segment order, so a whole-table round moves one summary of
//! each column per run, not per segment. Only adjacent segments share a
//! run — an interleaved assignment such as `[0, 2, 4]` answers three runs —
//! because only then is folding the runs in order the fold of their
//! segments. Each scatter round runs one thread per shard, and that thread
//! does more than wait. Every reply is read whole, checked to cover exactly
//! the shard's segments and decoded there — a working partial's counts held
//! to their segments' rows and its summaries into [`ColumnSummary`]s, each
//! counting as many rows as the counts sum to; a count reply held to every
//! invariant the coordinator can check (each product's arity, no cut
//! counting more rows than the shard's working rows, a pair's sums within
//! its cuts' counts) — so decoding runs in parallel across shards and
//! overlaps the slower shard's wire wait, and what is left after the
//! barrier is the fold: `merge_from` of the runs' summaries in ascending
//! global segment order, and integer sums of the counts, whose order cannot
//! matter. A retried or hedged request's reply is whichever arrives first;
//! a count reply is a deterministic function of (generation, SQL, segments,
//! cuts), so either is the same.
//!
//! A reply that fails to decode or breaks an invariant is that shard's
//! failure — it counts against the shard's circuit breaker, names the shard
//! and endpoint, is not retried, and in degraded mode drops the shard like
//! any other failure. The frames themselves (`crate::wire::frames`) ship no
//! rows at all: no working bitmap and no region's rows.

use super::transport::{CallFail, ShardSlot};
use super::{dist_err, Coordinator, ExploreCtx, ExploreFail, ShardIndex};
use crate::resilience::Deadline;
use crate::wire::frames::{
    count_reply_from_json, get_items, get_str, parse_hex_f64s, partition_to_json, products_to_json,
    run_segments, working_run_from_json, CountAsk,
};
use crate::wire::Json;
use atlas_columnar::{merge_category_counts, Bitmap, ColumnStats, ColumnSummary, DataType};
use atlas_core::{
    cut_counted_from_source, cuts_from_source, explore_from_source, product_of_counts, AtlasError,
    AttributeStats, CandidateSet, CutPlan, CutSource, DataMap, ExploreSource, MapResult,
    PhaseTimings, Region,
};
use atlas_query::{to_sql, ConjunctiveQuery};
use atlas_stats::ContingencyTable;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock, PoisonError};

impl Coordinator {
    /// Scatter one endpoint whose reply is read whole, decode each of a
    /// shard's partials — one per run of consecutive segments — with
    /// `decode`, which answers the run's segments beside what it decoded, on
    /// the thread that received the reply, and gather the decoded runs in
    /// ascending global segment order: together exactly `ctx.live`. A
    /// partial that does not decode fails its shard, as a failed call does.
    fn scatter<T: Send>(
        &self,
        ctx: &ExploreCtx,
        path: &str,
        body_of: impl Fn(&[usize]) -> Json + Sync,
        decode: impl Fn(&Json) -> Result<(Vec<usize>, T), String> + Sync,
    ) -> Result<Vec<T>, AtlasError> {
        let answers = self.fan_out(ctx, path, |slot| {
            let body = body_of(&slot.segments);
            self.call_with(slot, path, &body, ctx.deadline, |reply| {
                Self::shard_partials(slot, path, reply, &decode)
            })
        })?;
        let mut gathered: Vec<(Vec<usize>, T)> = answers.into_iter().flatten().collect();
        gathered.sort_by_key(|(segments, _)| segments.first().copied());
        if !gathered.iter().flat_map(|(run, _)| run).eq(&ctx.live) {
            let segments: Vec<&usize> = gathered.iter().flat_map(|(run, _)| run).collect();
            let fail = ExploreFail::Fatal(dist_err(format!(
                "scatter on {path} gathered segments {segments:?}, expected {:?}",
                ctx.live
            )));
            return Err(ctx.stash(fail));
        }
        Ok(gathered.into_iter().map(|(_, partial)| partial).collect())
    }

    /// Validate and decode one shard's reply: each of its `partials` must
    /// decode, and their runs, in the order answered, must be exactly the
    /// segments assigned to it. Either failure is the shard's, names it and
    /// the endpoint, and counts against its circuit breaker.
    fn shard_partials<T>(
        slot: &ShardSlot,
        path: &str,
        reply: Json,
        decode: impl Fn(&Json) -> Result<(Vec<usize>, T), String>,
    ) -> Result<Vec<(Vec<usize>, T)>, CallFail> {
        let semantic = |message: String| slot.misbehaved(path, message);
        let items = get_items(&reply, "partials").map_err(semantic)?;
        let runs = items
            .iter()
            .map(&decode)
            .collect::<Result<Vec<_>, String>>()
            .map_err(semantic)?;
        if !runs.iter().flat_map(|(run, _)| run).eq(&slot.segments) {
            let answered: Vec<&usize> = runs.iter().flat_map(|(run, _)| run).collect();
            return Err(semantic(format!(
                "answered for segments {answered:?}, assigned {:?}",
                slot.segments
            )));
        }
        Ok(runs)
    }

    /// The request body shared by the per-working-set endpoints.
    fn data_body(&self, sql: &str, segments: &[usize], rest: Vec<(&str, Json)>) -> Json {
        let mut members = vec![
            ("dataset", Json::from(self.dataset.as_str())),
            ("sql", Json::from(sql)),
            (
                "segments",
                Json::array(segments.iter().map(|&s| Json::from(s)).collect()),
            ),
        ];
        members.extend(rest);
        Json::object(members)
    }

    /// The working set `sql` selects at the shards: one `/shard/working`
    /// round, whose partials — one per run of consecutive segments, folded
    /// at the shard — carry how many rows each segment holds and the run's
    /// column summaries. Keeps the counts of the live segments — the working
    /// set's size, and what a shard's count reply is held to — and merges
    /// the runs' summaries in ascending segment order — the order a local
    /// scan walks the segments in, so the collapsed [`ColumnStats`] (value
    /// counts and category counts included, which is what lets a median cut
    /// skip the `/shard/values` round and a categorical cut the
    /// `/shard/categories` one) match what
    /// [`atlas_columnar::ColumnView::summary`] and the engine's table
    /// profile compute locally bit for bit.
    fn remote<'a>(
        &'a self,
        ctx: &'a ExploreCtx<'a>,
        sql: String,
    ) -> Result<RemoteSource<'a>, AtlasError> {
        let runs = self.scatter(
            ctx,
            "/shard/working",
            |segments| self.data_body(&sql, segments, Vec::new()),
            |partial| {
                let run = working_run_from_json(partial, &self.segment_rows, &self.fields)?;
                let columns: Vec<ColumnSummary> = run
                    .columns
                    .into_iter()
                    .map(ColumnSummary::from_parts)
                    .collect();
                Ok((run.segments, (run.counts, columns)))
            },
        )?;
        let mut summaries: Vec<ColumnSummary> = self
            .fields
            .iter()
            .map(|(_, dtype)| ColumnSummary::empty(*dtype))
            .collect();
        let mut counts = Vec::with_capacity(ctx.live.len());
        for (run_counts, columns) in runs {
            for (acc, summary) in summaries.iter_mut().zip(&columns) {
                acc.merge_from(summary);
            }
            counts.extend(run_counts.into_iter().map(|count| count as u64));
        }
        Ok(RemoteSource {
            coordinator: self,
            ctx,
            sql,
            counts,
            summaries,
            counted: OnceLock::new(),
        })
    }

    /// One explore pass over the live shards, classifying any failure as
    /// shard-attributable (degraded mode may drop the shard and re-run) or
    /// fatal.
    pub(super) fn explore_once(
        &self,
        query: &ConjunctiveQuery,
        dead: &BTreeSet<ShardIndex>,
        deadline: Option<&Deadline>,
    ) -> Result<MapResult, ExploreFail> {
        let live = self.live_segments(dead);
        if live.is_empty() {
            return Err(ExploreFail::Fatal(dist_err(
                "no live shard holds any segment (every shard failed or is refusing)",
            )));
        }
        let ctx = ExploreCtx {
            dead,
            live,
            deadline,
            failed: Mutex::new(None),
        };
        self.explore_live(query, &ctx).map_err(|error| {
            let stashed = ctx.failed.into_inner();
            let stashed = stashed.unwrap_or_else(PoisonError::into_inner);
            stashed.unwrap_or(ExploreFail::Fatal(error))
        })
    }

    /// The explore over the context's live segments: one `/shard/working`
    /// round evaluates the working set, and the engine's own body,
    /// [`explore_from_source`], runs over it at the shards.
    fn explore_live(
        &self,
        query: &ConjunctiveQuery,
        ctx: &ExploreCtx,
    ) -> Result<MapResult, AtlasError> {
        let mut total_span = atlas_obs::span("explore");
        total_span.attr("dataset", self.dataset.as_str());
        total_span.attr("distributed", true);
        let mut query = query.clone();
        if query.table.is_empty() {
            query.table = self.dataset.clone();
        }
        let query_span = atlas_obs::span("phase.query");
        let source = self.remote(ctx, to_sql(&query))?;
        let mut timings = PhaseTimings {
            query_ms: query_span.finish_ms(),
            ..PhaseTimings::default()
        };
        let working_set_size = source.counts.iter().sum::<u64>() as usize;
        if working_set_size == 0 {
            return Err(AtlasError::EmptyWorkingSet);
        }
        let (config, pool) = (&self.config, &self.pool);
        let (maps, skipped_attributes) =
            explore_from_source(config, pool, &source, &query, true, &mut timings)?;
        timings.total_ms = total_span.finish_ms();
        Ok(MapResult {
            maps,
            working_set_size,
            working_set: Bitmap::new_empty(0),
            skipped_attributes,
            timings,
        })
    }
}

/// A working set at the shards, addressed by its SQL: the explore's, or a
/// region's that a composition re-cuts. As a [`CutSource`], every kernel of
/// the shared `CUT` body ([`atlas_core::cuts_from_source`]) becomes one
/// scatter round whose per-run answers fold into exactly what the
/// in-process [`atlas_core::TableCutSource`] computes — except that a
/// partition comes back as counts, not rows: the cuts of a working set are
/// one `/shard/select` round that counts each cut's regions and each pair of
/// cuts' cells. As an [`ExploreSource`], it cuts the candidates from the
/// folded summaries, answers their distances and their products from those
/// cells, and re-cuts each region of a composition level through a source
/// of its own. Every region it makes is built without rows.
struct RemoteSource<'a> {
    coordinator: &'a Coordinator,
    /// The live-set and failure context of the running explore pass.
    ctx: &'a ExploreCtx<'a>,
    /// The working-set SQL, printed once: every round carries these very
    /// bytes, which is what lets a shard evaluate them on the first round
    /// and recognise them on the others.
    sql: String,
    /// How many working rows each live segment holds, in `ExploreCtx::live`
    /// order …
    counts: Vec<u64>,
    /// … the working set's column summaries, one per schema column …
    summaries: Vec<ColumnSummary>,
    /// … and what the count round of its cuts answered, once it has run.
    counted: OnceLock<Counted>,
}

/// What the count round of a working set's cuts answered, summed over the
/// shards: the plans, in request order, and the cells of each product the
/// round asked for — each plan alone, then every pair.
struct Counted {
    plans: Vec<CutPlan>,
    products: Vec<Vec<usize>>,
    cells: Vec<Vec<u64>>,
}

impl Counted {
    /// The counted cells of the product of `plans`, in that order.
    fn cells(&self, plans: &[usize]) -> Option<&[u64]> {
        let at = self.products.iter().position(|p| p == plans)?;
        self.cells.get(at).map(Vec::as_slice)
    }

    /// How many regions plan `plan` makes.
    fn width(&self, plan: usize) -> usize {
        self.plans
            .get(plan)
            .map_or(0, |plan| plan.partition.region_count())
    }
}

impl RemoteSource<'_> {
    /// Scatter one per-attribute round over the working set and decode each
    /// run's partial on arrival.
    fn scatter<T: Send>(
        &self,
        path: &str,
        attribute: &str,
        decode: impl Fn(&Json) -> Result<T, String> + Sync,
    ) -> Result<Vec<T>, AtlasError> {
        let body_of = |segments: &[usize]| {
            let attribute = vec![("attribute", Json::from(attribute))];
            self.coordinator.data_body(&self.sql, segments, attribute)
        };
        let decode = |partial: &Json| {
            let segments = run_segments(partial)?;
            let decoded = decode(partial).map_err(|e| format!("segments {segments:?}: {e}"))?;
            Ok((segments, decoded))
        };
        self.coordinator.scatter(self.ctx, path, body_of, decode)
    }

    /// The folded [`ColumnStats`] of one attribute over the working set
    /// (errors on attributes the schema does not know, like the local path
    /// does).
    fn stats_of(&self, attribute: &str) -> Result<ColumnStats, AtlasError> {
        let fields = &self.coordinator.fields;
        fields
            .iter()
            .zip(&self.summaries)
            .find(|((name, _), _)| name == attribute)
            .map(|(_, summary)| summary.to_stats())
            .ok_or_else(|| dist_err(format!("unknown attribute '{attribute}'")))
    }

    /// How many working rows `segments` — one shard's, all live — hold.
    fn working_rows(&self, segments: &[usize]) -> u64 {
        let live = &self.ctx.live;
        let at = |segment: &usize| live.binary_search(segment).ok();
        let count = |at: usize| self.counts.get(at).copied().unwrap_or(0);
        segments.iter().filter_map(at).map(count).sum()
    }

    /// One `/shard/select` round: each shard partitions its segments'
    /// working rows by `plans` and counts the cells of each of `products`
    /// over them. Each reply is decoded and held to its invariants on the
    /// thread that received it — a reply that breaks one is that shard's
    /// failure — and the cells are summed over the shards, which is exact.
    fn count(
        &self,
        plans: &[CutPlan],
        products: &[Vec<usize>],
    ) -> Result<Vec<Vec<u64>>, AtlasError> {
        let coordinator = self.coordinator;
        let regions: Vec<usize> = plans.iter().map(|p| p.partition.region_count()).collect();
        let members = vec![
            (
                "partitions",
                Json::array(plans.iter().map(partition_to_json).collect()),
            ),
            ("products", products_to_json(products)),
        ];
        let path = "/shard/select";
        let replies = coordinator.fan_out(self.ctx, path, |slot| {
            let body = coordinator.data_body(&self.sql, &slot.segments, members.clone());
            coordinator.call_with(slot, path, &body, self.ctx.deadline, |reply| {
                let ask = CountAsk {
                    segments: &slot.segments,
                    regions: &regions,
                    products,
                    working_rows: self.working_rows(&slot.segments),
                };
                count_reply_from_json(&reply, &ask).map_err(|e| slot.misbehaved(path, e))
            })
        })?;
        let mut sums: Vec<Vec<u64>> = products
            .iter()
            .map(|plans| vec![0; plans.iter().filter_map(|&p| regions.get(p)).product()])
            .collect();
        for reply in replies {
            for (sum, cells) in sums.iter_mut().zip(reply) {
                sum.iter_mut().zip(cells).for_each(|(sum, n)| *sum += n);
            }
        }
        Ok(sums)
    }

    /// The cells of the product of `maps` — candidates cut from this working
    /// set, in order — row-major over their regions. A map is its cut's
    /// plan with the regions no row fell in left out, so its cells are the
    /// plan's cells at the regions it kept: read from the candidates' round
    /// for one map or two (a pair asked the other way round is transposed),
    /// counted by one more round for three or more.
    fn map_cells(&self, maps: &[&DataMap]) -> Result<Vec<u64>, AtlasError> {
        let counted = self
            .counted
            .get()
            .ok_or_else(|| dist_err("the candidates' cells were never counted"))?;
        let plans = maps
            .iter()
            .map(|map| {
                let attribute = map.source_attributes.first();
                let plan = counted
                    .plans
                    .iter()
                    .position(|p| Some(&p.attribute) == attribute);
                plan.ok_or_else(|| dist_err(format!("no cut counted {attribute:?}")))
            })
            .collect::<Result<Vec<usize>, AtlasError>>()?;
        let cells = match (counted.cells(&plans), plans.as_slice()) {
            (Some(cells), _) => cells.to_vec(),
            (None, &[p, q]) => {
                let cells = counted.cells(&[q, p]).unwrap_or_default();
                transposed(cells, counted.width(q))
            }
            (None, _) => {
                let cluster: Vec<CutPlan> = plans
                    .iter()
                    .filter_map(|&p| counted.plans.get(p).cloned())
                    .collect();
                let product = vec![(0..cluster.len()).collect()];
                self.count(&cluster, &product)?.pop().unwrap_or_default()
            }
        };
        let mut kept = vec![0usize];
        for (map, &plan) in maps.iter().zip(&plans) {
            let counts = counted.cells(&[plan]).unwrap_or_default();
            let held = counts.iter().enumerate().filter(|&(_, &count)| count > 0);
            let regions: Vec<usize> = held.map(|(region, _)| region).collect();
            if regions.len() != map.num_regions() {
                return Err(dist_err(format!(
                    "the cut of {:?} counted {} regions with rows, its map has {}",
                    map.source_attributes,
                    regions.len(),
                    map.num_regions()
                )));
            }
            let width = counted.width(plan);
            kept = kept
                .iter()
                .flat_map(|&at| regions.iter().map(move |&r| at * width + r))
                .collect();
        }
        kept.iter()
            .map(|&at| cells.get(at).copied())
            .collect::<Option<Vec<u64>>>()
            .ok_or_else(|| dist_err("a product's cells do not cover its plans' regions"))
    }
}

/// The `cols × rows` table, row-major, of the `rows`-row table `cells`,
/// row-major: cell `(i, j)` of one is cell `(j, i)` of the other.
fn transposed(cells: &[u64], rows: usize) -> Vec<u64> {
    let rows = rows.max(1);
    let cols = cells.len() / rows;
    let at = |cell: usize| cells.get(cell % rows * cols + cell / rows);
    (0..cells.len()).filter_map(at).copied().collect()
}

impl<'s> ExploreSource<'s> for RemoteSource<'_> {
    /// Every attribute's cut is planned from the folded summaries, and all
    /// of them are counted in one `/shard/select` round, pairs included. The
    /// deadline is checked once more before the distances. No statistics are
    /// held: a re-cut reads each region's from its own round.
    fn candidates(
        &self,
        user_query: &ConjunctiveQuery,
        attributes: Option<&[String]>,
    ) -> Result<(CandidateSet, Vec<AttributeStats<'s>>), AtlasError> {
        let coordinator = self.coordinator;
        let names: Vec<String> = match attributes {
            Some(list) => list.to_vec(),
            None => coordinator
                .fields
                .iter()
                .map(|(name, _)| name.clone())
                .collect(),
        };
        let stats = names
            .iter()
            .map(|name| self.stats_of(name))
            .collect::<Result<Vec<_>, AtlasError>>()?;
        let attributes: Vec<(&str, &ColumnStats)> =
            names.iter().map(String::as_str).zip(&stats).collect();
        let cuts = cuts_from_source(self, user_query, &attributes, &coordinator.config.cut)?;
        let mut candidates = CandidateSet::default();
        for (name, cut) in names.into_iter().zip(cuts) {
            match cut {
                Some(map) => candidates.maps.push(map),
                None => candidates.skipped.push(name),
            }
        }
        self.ctx.check_deadline("distances")?;
        Ok((candidates, Vec::new()))
    }

    /// The pair's cells from the candidates' round.
    fn contingency(&self, a: &DataMap, b: &DataMap) -> Result<ContingencyTable, AtlasError> {
        let cells = self.map_cells(&[a, b])?;
        Ok(ContingencyTable::from_counts(
            a.num_regions(),
            b.num_regions(),
            cells,
        ))
    }

    /// The cluster's cells — from the candidates' round for two maps, from
    /// one more round for three or more — with each cell's conjunction.
    fn product(
        &self,
        members: &[DataMap],
        drop_empty: bool,
    ) -> Result<Option<DataMap>, AtlasError> {
        let cells = self.map_cells(&members.iter().collect::<Vec<_>>())?;
        match product_of_counts(members, &cells, drop_empty) {
            Some(map) => Ok(Some(map)),
            None => Err(dist_err("a product's cells do not match its maps")),
        }
    }

    /// Each region is one `/shard/working` round on its query, whose folded
    /// summaries are its statistics; its cut's regions are counted off them
    /// ([`cut_counted_from_source`]), or — for a column with more values than
    /// a summary counts — by one `/shard/select` round. One coordinator pool
    /// task per region. Every level is counted: the next re-cuts from SQL.
    fn recut(
        &self,
        regions: &[Cow<'_, Region>],
        attribute: &str,
        _whole: Option<&ColumnStats>,
        _counted: bool,
    ) -> Result<Vec<Option<DataMap>>, AtlasError> {
        let coordinator = self.coordinator;
        let parent = atlas_obs::current();
        let cuts = coordinator.pool.par_map(regions, |region| {
            let _trace = atlas_obs::with_context(parent);
            let query = &region.query;
            let region = coordinator.remote(self.ctx, to_sql(query))?;
            let stats = region.stats_of(attribute)?;
            let config = &coordinator.config.cut;
            cut_counted_from_source(&region, query, attribute, config, &stats)
        });
        cuts.into_iter().collect()
    }
}

impl CutSource for RemoteSource<'_> {
    type Extent = usize;

    fn data_type(&self, attribute: &str) -> Result<DataType, AtlasError> {
        let fields = &self.coordinator.fields;
        let field = fields.iter().find(|(name, _)| name == attribute);
        field
            .map(|(_, dtype)| *dtype)
            .ok_or_else(|| dist_err(format!("unknown attribute '{attribute}'")))
    }

    fn numeric_values(&self, attribute: &str) -> Result<Vec<f64>, AtlasError> {
        let partials = self.scatter("/shard/values", attribute, |partial| {
            parse_hex_f64s(get_str(partial, "values")?)
        })?;
        Ok(partials.concat())
    }

    /// Scatter `/shard/categories` and fold the per-run zero-inclusive
    /// counts in segment order, which is global first-appearance order. Only
    /// a column with more values than a summary counts is asked about here;
    /// for every other the folded summaries already hold the vector.
    fn category_counts(&self, attribute: &str) -> Result<Vec<(String, usize)>, AtlasError> {
        let partials = self.scatter("/shard/categories", attribute, |partial| {
            get_items(partial, "counts")?
                .iter()
                .map(|pair| {
                    let Some([value, count]) = pair.items() else {
                        return Err("category count is not a pair".to_string());
                    };
                    let value = value
                        .str()
                        .ok_or_else(|| "category value is not a string".to_string())?;
                    let count = count
                        .index()
                        .ok_or_else(|| "category count is not integral".to_string())?;
                    Ok((value.to_string(), count))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let mut folded: Vec<(String, usize)> = Vec::new();
        for counts in &partials {
            merge_category_counts(&mut folded, counts);
        }
        Ok(folded)
    }

    /// One count round for every plan: each plan's region counts and — for
    /// the distances of the candidates — every pair's cells, which the
    /// source keeps ([`Counted`]).
    fn partition(&self, plans: &[CutPlan]) -> Result<Vec<Vec<usize>>, AtlasError> {
        let n = plans.len();
        let singles = (0..n).map(|p| vec![p]);
        let pairs = (0..n).flat_map(|p| (p + 1..n).map(move |q| vec![p, q]));
        let products: Vec<Vec<usize>> = singles.chain(pairs).collect();
        let cells = self.count(plans, &products)?;
        let counts = cells
            .iter()
            .take(n)
            .map(|cells| cells.iter().map(|&count| count as usize).collect())
            .collect();
        let counted = Counted {
            plans: plans.to_vec(),
            products,
            cells,
        };
        self.counted
            .set(counted)
            .map_err(|_| dist_err("a working set's cuts are counted once"))?;
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair's cells counted the other way round: the 2 × 3 table of rows
    /// (0, 1) and columns (0, 1, 2) read as the 3 × 2 one.
    #[test]
    fn a_pair_counted_the_other_way_round_is_transposed() {
        assert_eq!(transposed(&[1, 2, 3, 4, 5, 6], 2), vec![1, 4, 2, 5, 3, 6]);
        assert_eq!(transposed(&[1, 4, 2, 5, 3, 6], 3), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(transposed(&[], 2), Vec::<u64>::new());
    }
}
