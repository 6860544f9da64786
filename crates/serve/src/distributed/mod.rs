//! Distributed scatter-gather exploration: a merging coordinator over shard
//! servers.
//!
//! A [`Coordinator`] partitions a dataset's segments across N shard servers
//! (ordinary `atlas-serve` processes answering the `POST /shard/*` endpoints)
//! and runs the Atlas pipeline with every row-touching kernel pushed down.
//! Two decisions live apart, one module each, and neither names the other's
//! vocabulary:
//!
//! * `source.rs` — *what an explore asks and folds*: one `/shard/working`
//!   round for the working set and its column summaries, then the engine's
//!   own body ([`atlas_core::explore_from_source`]) over a remote source
//!   whose cuts are counted at the shards in one `/shard/select` round; every
//!   reply is decoded and checked on the thread that received it;
//! * `transport.rs` — *how a shard is called*: one exchange body on the
//!   slot's keep-alive connection, retries with seeded jitter, hedges,
//!   per-shard circuit breakers, the request deadline, and the spans of each
//!   call ([`CoordinatorOptions`] is the one home of that policy).
//!
//! Every fold is deterministic and every pushed-down kernel reproduces its
//! local counterpart exactly, so the ranked maps are **bit-identical** —
//! score bits, region SQL, region counts, working-set size — to a
//! single-process [`atlas_core::Atlas::explore_released`] over the same
//! table and configuration, for *any* assignment of segments to shards. The
//! `tests/distributed.rs` property suite pins this. Like that answer, the
//! coordinator's holds no rows: every region is built from its count
//! ([`atlas_core::Region::holds_rows`] is false).
//!
//! In [`ExploreMode::Strict`] (the default and the historical contract) any
//! shard failing past its retries fails the whole explore with a typed
//! [`AtlasError::Distributed`] naming the shard and endpoint — never a hang,
//! never a silent partial answer. [`ExploreMode::Degraded`] instead drops up
//! to `max_failed_shards` failed shards, folds the surviving segments, and
//! tags the answer with exact [`Coverage`] metadata; the surviving-segment
//! answer is bit-identical to a local explore over just those segments.

mod source;
mod transport;

pub use transport::CoordinatorOptions;

use crate::metrics::CoordinatorMetrics;
use crate::resilience::{CircuitState, Coverage, Deadline, ExploreMode};
use crate::wire::frames::{meta_from_json, MetaView};
use crate::wire::Json;
use atlas_columnar::DataType;
use atlas_core::{AtlasConfig, AtlasError, MapResult, ThreadPool};
use atlas_query::ConjunctiveQuery;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;
use transport::{ShardSlot, JITTER_SEED};

/// A distributed answer: the ranked maps plus exactly what they cover.
#[derive(Debug, Clone)]
pub struct DistributedResult {
    /// The ranked maps, holding no rows. Complete coverage means
    /// bit-identical to the local engine's released answer over the whole
    /// table; degraded coverage means bit-identical to it over the
    /// surviving segments.
    pub result: MapResult,
    /// Exactly which segments and rows the answer covers.
    pub coverage: Coverage,
}

/// The position of one shard in its coordinator's list. Only
/// [`ShardIndex::all`] makes them — the coordinator, once per shard at
/// connect, and the per-shard metrics, which are laid out the same way — so
/// an index is always in range of both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ShardIndex(usize);

impl ShardIndex {
    /// The indices of a list of `count` shards, in order.
    pub(crate) fn all(count: usize) -> impl Iterator<Item = ShardIndex> {
        (0..count).map(ShardIndex)
    }

    /// The position this index stands for.
    pub(crate) fn get(self) -> usize {
        self.0
    }
}

/// Why one explore pass failed — shard-attributable failures carry the
/// shard index so degraded mode can drop it and re-run.
enum ExploreFail {
    /// One shard failed past its retries, or sent a frame that does not
    /// decode.
    Shard {
        shard: ShardIndex,
        error: AtlasError,
    },
    /// A failure no shard-drop can fix (deadline, merge validation, local
    /// pipeline error).
    Fatal(AtlasError),
}

/// Per-explore scatter context: the dropped shards, the live segment list
/// (ascending global indices), and the first shard-attributable failure
/// (stashed here because [`atlas_core::CutSource`] signatures only carry
/// `AtlasError`).
struct ExploreCtx<'a> {
    dead: &'a BTreeSet<ShardIndex>,
    live: Vec<usize>,
    deadline: Option<&'a Deadline>,
    failed: Mutex<Option<ExploreFail>>,
}

impl ExploreCtx<'_> {
    /// Stash the first shard-attributable failure of this explore pass and
    /// return its rendered error (the [`atlas_core::CutSource`] signatures
    /// only carry `AtlasError`, so attribution travels through the context).
    fn stash(&self, fail: ExploreFail) -> AtlasError {
        let error = match &fail {
            ExploreFail::Shard { error, .. } | ExploreFail::Fatal(error) => error.clone(),
        };
        let mut stashed = self.failed.lock().unwrap_or_else(PoisonError::into_inner);
        if stashed.is_none() {
            *stashed = Some(fail);
        }
        error
    }

    /// Fail fast when the request deadline has passed between phases.
    fn check_deadline(&self, phase: &str) -> Result<(), AtlasError> {
        match self.deadline {
            Some(d) if d.expired() => Err(self.stash(ExploreFail::Fatal(d.error(phase)))),
            _ => Ok(()),
        }
    }
}

/// The merging coordinator of a distributed exploration (see the module
/// docs for the protocol, the determinism guarantee, and the fault model).
#[derive(Debug)]
pub struct Coordinator {
    dataset: String,
    config: AtlasConfig,
    options: CoordinatorOptions,
    shards: Vec<ShardSlot>,
    generation: usize,
    segment_rows: Vec<usize>,
    fields: Vec<(String, DataType)>,
    pool: ThreadPool,
    metrics: CoordinatorMetrics,
    jitter: Mutex<StdRng>,
}

fn dist_err(message: impl Into<String>) -> AtlasError {
    AtlasError::Distributed(message.into())
}

impl Coordinator {
    /// Connect to the shard servers, fetch and cross-check their view of
    /// `dataset`, and assign segments contiguously (balanced within one
    /// segment) across the shards. `timeout` becomes the per-attempt shard
    /// budget; everything else uses [`CoordinatorOptions::default`].
    ///
    /// Fails with [`AtlasError::InvalidConfig`] when the configuration does
    /// not validate, and with [`AtlasError::Distributed`] when a shard is
    /// unreachable or the shards disagree about the dataset (row count,
    /// segmentation, schema, or generation).
    pub fn connect(
        addrs: &[String],
        dataset: &str,
        config: AtlasConfig,
        timeout: Duration,
    ) -> Result<Coordinator, AtlasError> {
        let options = CoordinatorOptions {
            shard_timeout: timeout,
            connect_timeout: timeout.min(Duration::from_secs(2)),
            ..CoordinatorOptions::default()
        };
        Coordinator::connect_with(addrs, dataset, config, options)
    }

    /// [`Coordinator::connect`] with explicit fault-policy knobs.
    pub fn connect_with(
        addrs: &[String],
        dataset: &str,
        config: AtlasConfig,
        options: CoordinatorOptions,
    ) -> Result<Coordinator, AtlasError> {
        config.validate()?;
        if addrs.is_empty() {
            return Err(dist_err("no shard addresses"));
        }
        let shards: Vec<ShardSlot> = addrs
            .iter()
            .zip(ShardIndex::all(addrs.len()))
            .map(|(addr, index)| ShardSlot::new(index, addr, &options))
            .collect::<Result<_, AtlasError>>()?;
        let mut coordinator = Coordinator {
            dataset: dataset.to_string(),
            pool: ThreadPool::new(config.parallelism),
            config,
            options,
            shards,
            generation: 0,
            segment_rows: Vec::new(),
            fields: Vec::new(),
            metrics: CoordinatorMetrics::new(addrs),
            jitter: Mutex::new(StdRng::seed_from_u64(JITTER_SEED)),
        };
        coordinator.fetch_meta()?;
        let num_segments = coordinator.segment_rows.len();
        let num_shards = coordinator.shards.len();
        // Contiguous balanced default: shard i takes ⌈n/N⌉ or ⌊n/N⌋ segments.
        let base = num_segments / num_shards;
        let extra = num_segments % num_shards;
        let mut next = 0usize;
        for (i, slot) in coordinator.shards.iter_mut().enumerate() {
            let take = base + usize::from(i < extra);
            slot.segments = (next..next + take).collect();
            next += take;
        }
        Ok(coordinator)
    }

    /// Replace the segment assignment. `assignment[i]` lists the global
    /// segment indices shard `i` answers for; the lists must form an exact
    /// partition of `0..num_segments` (empty lists are fine — those shards
    /// simply idle).
    pub fn with_assignment(
        mut self,
        assignment: Vec<Vec<usize>>,
    ) -> Result<Coordinator, AtlasError> {
        if assignment.len() != self.shards.len() {
            return Err(dist_err(format!(
                "assignment covers {} shards, the coordinator has {}",
                assignment.len(),
                self.shards.len()
            )));
        }
        let mut all: Vec<usize> = assignment.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..self.segment_rows.len()).collect();
        if all != expected {
            return Err(dist_err(format!(
                "assignment is not a partition of the {} segments",
                self.segment_rows.len()
            )));
        }
        for (slot, mut segments) in self.shards.iter_mut().zip(assignment) {
            segments.sort_unstable();
            slot.segments = segments;
        }
        Ok(self)
    }

    /// The dataset this coordinator explores.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The dataset generation the shards agreed on at connect time.
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Number of segments of the distributed table.
    pub fn num_segments(&self) -> usize {
        self.segment_rows.len()
    }

    /// Total rows of the distributed table.
    pub fn num_rows(&self) -> usize {
        self.segment_rows.iter().sum()
    }

    /// The current segment assignment, one list of global segment indices
    /// per shard.
    pub fn assignment(&self) -> Vec<Vec<usize>> {
        self.shards.iter().map(|s| s.segments.clone()).collect()
    }

    /// The scatter counters.
    pub fn metrics(&self) -> &CoordinatorMetrics {
        &self.metrics
    }

    /// Every shard's `(addr, circuit state, times opened)` — what `/metrics`
    /// and `/healthz` report circuits from.
    pub fn circuit_states(&self) -> Vec<(String, CircuitState, u64)> {
        self.shards
            .iter()
            .map(|slot| {
                (
                    slot.addr.clone(),
                    slot.breaker.state(),
                    slot.breaker.opened_total(),
                )
            })
            .collect()
    }

    /// Fetch `/shard/meta` from every shard and adopt their (unanimous) view
    /// of the dataset. A reply that does not decode — its `num_rows` not the
    /// sum of its segments' rows included — fails the connect, naming the
    /// shard.
    fn fetch_meta(&mut self) -> Result<(), AtlasError> {
        let body = Json::object(vec![("dataset", Json::from(self.dataset.as_str()))]);
        let mut agreed: Option<MetaView> = None;
        for slot in &self.shards {
            let reply = self
                .call_with(slot, "/shard/meta", &body, None, Ok)
                .map_err(|fail| dist_err(slot.render_fail("/shard/meta", fail)))?;
            let view = meta_from_json(&reply).map_err(|e| {
                dist_err(format!(
                    "shard {} misbehaved on /shard/meta: {e}",
                    slot.addr
                ))
            })?;
            match &agreed {
                None => agreed = Some(view),
                Some(first) if *first == view => {}
                Some(_) => {
                    return Err(dist_err(format!(
                        "shard {} disagrees about dataset '{}' (generation, rows, \
                         segmentation or schema)",
                        slot.addr, self.dataset
                    )));
                }
            }
        }
        let (generation, segment_rows, fields) = agreed
            .ok_or_else(|| dist_err("no shard answered the metadata probe; none are connected"))?;
        self.generation = generation;
        self.segment_rows = segment_rows;
        self.fields = fields;
        Ok(())
    }

    /// The live segment list (ascending global indices) once `dead` shards
    /// are dropped.
    fn live_segments(&self, dead: &BTreeSet<ShardIndex>) -> Vec<usize> {
        let mut live: Vec<usize> = self
            .shards
            .iter()
            .filter(|slot| !dead.contains(&slot.index))
            .flat_map(|slot| slot.segments.iter().copied())
            .collect();
        live.sort_unstable();
        live
    }

    /// Exact coverage of an answer that dropped the `dead` shards.
    fn coverage(&self, dead: &BTreeSet<ShardIndex>) -> Coverage {
        let dead_slots = || self.shards.iter().filter(|slot| dead.contains(&slot.index));
        let mut missing: Vec<usize> = dead_slots()
            .flat_map(|slot| slot.segments.iter().copied())
            .collect();
        missing.sort_unstable();
        let missing_rows: usize = missing
            .iter()
            .filter_map(|&s| self.segment_rows.get(s))
            .sum();
        let rows_total = self.num_rows();
        let rows_answered = rows_total.saturating_sub(missing_rows);
        let segments_answered = self.segment_rows.len().saturating_sub(missing.len());
        Coverage {
            segments_total: self.segment_rows.len(),
            segments_answered,
            missing_segments: missing,
            rows_total,
            rows_answered,
            failed_shards: dead_slots().map(|slot| slot.addr.clone()).collect(),
            columns: self
                .fields
                .iter()
                .map(|(name, _)| (name.clone(), rows_answered))
                .collect(),
        }
    }

    /// Run one distributed exploration step under the strict contract.
    ///
    /// Bit-identical to [`atlas_core::Atlas::explore_released`] with the
    /// same table and configuration — the same queries, counts and scores,
    /// no rows (see the module docs); errors exactly like it on an
    /// empty working set ([`AtlasError::EmptyWorkingSet`]) or when nothing
    /// can be cut ([`AtlasError::NoCuttableAttributes`]), and with
    /// [`AtlasError::Distributed`] when a shard misbehaves.
    pub fn explore(&self, query: &ConjunctiveQuery) -> Result<MapResult, AtlasError> {
        self.explore_resilient(query, ExploreMode::Strict, None)
            .map(|distributed| distributed.result)
    }

    /// Run one distributed exploration step under an explicit failure mode
    /// and optional request deadline.
    ///
    /// [`ExploreMode::Strict`] keeps the bit-identity-or-typed-error
    /// contract of [`Coordinator::explore`]. [`ExploreMode::Degraded`]
    /// drops up to `max_failed_shards` shards that fail past their retries
    /// (restarting the pass without them), folds the surviving segments,
    /// and reports exact [`Coverage`]; shards whose circuit is already open
    /// are dropped up front without waiting for them to fail again.
    pub fn explore_resilient(
        &self,
        query: &ConjunctiveQuery,
        mode: ExploreMode,
        deadline: Option<Deadline>,
    ) -> Result<DistributedResult, AtlasError> {
        let max_failed = match mode {
            ExploreMode::Strict => 0,
            ExploreMode::Degraded { max_failed_shards } => {
                max_failed_shards.min(self.shards.len().saturating_sub(1))
            }
        };
        let mut dead: BTreeSet<ShardIndex> = BTreeSet::new();
        if max_failed > 0 {
            for slot in &self.shards {
                if dead.len() >= max_failed {
                    break;
                }
                if !slot.segments.is_empty() && slot.breaker.is_refusing() {
                    dead.insert(slot.index);
                }
            }
        }
        let outcome = loop {
            match self.explore_once(query, &dead, deadline.as_ref()) {
                Ok(result) => break Ok(result),
                Err(ExploreFail::Shard { shard, error }) => {
                    if dead.len() < max_failed && !dead.contains(&shard) {
                        dead.insert(shard);
                        continue;
                    }
                    break Err(error);
                }
                Err(ExploreFail::Fatal(error)) => break Err(error),
            }
        };
        match outcome {
            Ok(result) => {
                if !dead.is_empty() {
                    self.metrics
                        .degraded_explores
                        .fetch_add(1, Ordering::Relaxed);
                }
                Ok(DistributedResult {
                    coverage: self.coverage(&dead),
                    result,
                })
            }
            Err(error) => {
                if matches!(error, AtlasError::Deadline { .. }) {
                    self.metrics
                        .deadline_exceeded
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(error)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_request, write_response, Response};
    use std::io::BufReader;
    use std::net::TcpListener;

    /// A shard whose `/shard/meta` reply claims 100 rows over segments of 60
    /// and 60: connecting to it fails, naming the shard, instead of adopting
    /// a row count no fold agrees with.
    #[test]
    fn a_meta_reply_whose_rows_are_not_its_segments_sum_is_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shard = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let request = read_request(&mut reader, 1 << 16, None).unwrap();
            assert_eq!(request.path, "/shard/meta");
            let reply = crate::wire::parse(
                r#"{"dataset": "t", "generation": 0, "num_rows": 100,
                    "segments": [60, 60], "fields": [{"name": "x", "dtype": "int"}]}"#,
            )
            .unwrap();
            write_response(&mut &stream, &Response::json(200, &reply), false).unwrap();
        });
        let error = Coordinator::connect(
            std::slice::from_ref(&addr),
            "t",
            AtlasConfig::default(),
            Duration::from_secs(5),
        )
        .unwrap_err();
        shard.join().unwrap();
        let AtlasError::Distributed(message) = error else {
            panic!("expected a Distributed error, got {error:?}");
        };
        assert!(message.contains(&addr), "{message}");
        assert!(message.contains("num_rows 100"), "{message}");
    }

    /// A shard whose `/shard/working` reply is a valid run of other segments
    /// than it was assigned — `[1]` of its `[0, 1]` — fails the explore,
    /// naming the shard, instead of folding a working set that lacks a
    /// segment.
    #[test]
    fn a_reply_for_other_segments_than_assigned_is_refused() {
        use crate::wire::frames::working_run_to_json;
        use atlas_columnar::{DistinctValues, SummaryParts};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shard = std::thread::spawn(move || {
            let meta = crate::wire::parse(
                r#"{"dataset": "t", "generation": 0, "num_rows": 100,
                    "segments": [50, 50], "fields": [{"name": "x", "dtype": "int"}]}"#,
            )
            .unwrap();
            let summary = SummaryParts {
                dtype: DataType::Int,
                non_null: 50,
                nulls: 0,
                distinct: DistinctValues::Numbers(vec![7]),
                counts: Some(vec![50]),
            };
            let run = working_run_to_json(&[1], &[50], &[summary]);
            let working = Json::object(vec![("partials", Json::array(vec![run]))]);
            for reply in [meta, working] {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                read_request(&mut reader, 1 << 16, None).unwrap();
                write_response(&mut &stream, &Response::json(200, &reply), false).unwrap();
            }
        });
        let coordinator = Coordinator::connect(
            std::slice::from_ref(&addr),
            "t",
            AtlasConfig::fast(),
            Duration::from_secs(5),
        )
        .unwrap();
        let error = coordinator
            .explore(&ConjunctiveQuery::all("t"))
            .unwrap_err();
        shard.join().unwrap();
        let AtlasError::Distributed(message) = error else {
            panic!("expected a Distributed error, got {error:?}");
        };
        assert!(message.contains(&addr), "{message}");
        let refusal = "misbehaved on /shard/working: answered for segments [1], assigned [0, 1]";
        assert!(message.contains(refusal), "{message}");
    }
}
