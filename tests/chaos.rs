//! The deterministic chaos suite: seeded fault plans injected between the
//! resilient coordinator and live shard servers.
//!
//! Every plan is generated from a seed (vendored `rand`, so a failing seed
//! replays exactly), armed on the [`FaultProxy`] in front of each shard, and
//! the outcome is pinned to the resilience contract:
//!
//! * **Strict** mode answers bit-identically to the in-process engine or
//!   fails with a typed [`AtlasError::Distributed`] naming a shard — never a
//!   hang, never a silent partial.
//! * **Degraded** mode answers bit-identically to an in-process explore over
//!   exactly the segments its [`Coverage`] says survived, with coverage
//!   arithmetic matching the pinned segment→shard assignment.
//! * Retry, hedge, circuit-breaker, and deadline counters match the
//!   injected plan exactly in the deterministic scenarios.
//!
//! Set `ATLAS_CHAOS_SEED=n` to replay one extra seed, and
//! `ATLAS_CHAOS_PLAN_OUT=dir` to dump every seed's fault plan and verdict
//! as a JSON artifact (the CI chaos job uploads it).

use atlas::core::{AtlasError, MapResult};
use atlas::datagen::CensusConfig;
use atlas::prelude::*;
use atlas::serve::wire::Json;
use atlas::serve::{
    CircuitConfig, CircuitState, Coordinator, CoordinatorOptions, Coverage, Deadline, ExploreMode,
    HedgePolicy, RetryPolicy,
};
use atlas::serve::{DatasetOptions, Registry, ServeConfig, Server, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{Fault, FaultProxy};

/// Shard servers per rig.
const SHARDS: usize = 3;
/// Hard wall-clock bound on any single faulted explore: far above every
/// legitimate schedule, so tripping it means a hang.
const WALL_CLOCK_BOUND: Duration = Duration::from_secs(30);

/// Draw one fault. Delays dominate (they exercise timeouts and hedges),
/// kills are rarest (they take the shard down for the rest of the seed).
fn gen_fault(rng: &mut StdRng) -> Fault {
    match (rng.gen::<f64>() * 10.0) as u32 {
        0..=2 => Fault::Delay(40 + (rng.gen::<f64>() * 360.0) as u64),
        3 => Fault::Refuse,
        4 | 5 => {
            let statuses = [500u16, 502, 503, 504];
            Fault::Error(statuses[(rng.gen::<f64>() * 4.0) as usize % 4])
        }
        6 | 7 => Fault::Truncate((rng.gen::<f64>() * 1000.0) as u16),
        8 => Fault::Garbage,
        _ => Fault::Kill,
    }
}

/// A fault plan: per shard, the faults its next requests consume in order.
/// Roughly half the shards stay healthy in any given seed.
fn gen_plan(rng: &mut StdRng) -> Vec<Vec<Fault>> {
    (0..SHARDS)
        .map(|_| {
            if rng.gen::<f64>() < 0.45 {
                return Vec::new();
            }
            let count = 1 + (rng.gen::<f64>() * 3.0) as usize;
            (0..count).map(|_| gen_fault(rng)).collect()
        })
        .collect()
}

/// A multi-segment census table with a pinned layout (10 segments).
fn census_table(rows: usize, segment_rows: usize) -> Arc<Table> {
    Arc::new(
        CensusGenerator::new(CensusConfig {
            rows,
            seed: 42,
            segment_rows: Some(segment_rows),
            ..CensusConfig::default()
        })
        .generate(),
    )
}

fn product_config() -> AtlasConfig {
    AtlasConfig {
        merge: MergeStrategy::Product,
        ..AtlasConfig::default()
    }
    .with_parallelism(2)
}

/// Aggressive-but-deterministic fault policy for the seeded sweeps: short
/// per-attempt timeouts, one retry with seeded jitter, breakers off so every
/// seed starts from the same coordinator state.
fn chaos_options() -> CoordinatorOptions {
    CoordinatorOptions {
        shard_timeout: Duration::from_millis(250),
        connect_timeout: Duration::from_millis(250),
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(5),
            multiplier: 2.0,
            jitter: 0.5,
        },
        hedge: HedgePolicy::Off,
        circuit: CircuitConfig {
            failure_threshold: 0,
            cool_down: Duration::ZERO,
        },
    }
}

/// Three live shard servers over one census table, a fault proxy in front of
/// each (`addrs` are the proxies'), a pinned segment assignment, and the
/// in-process reference engine.
struct Chaos {
    table: Arc<Table>,
    config: AtlasConfig,
    reference: Atlas,
    handles: Vec<ServerHandle>,
    proxies: Vec<FaultProxy>,
    addrs: Vec<String>,
    assignment: Vec<Vec<usize>>,
}

fn chaos_rig() -> Chaos {
    let table = census_table(3_000, 300);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let mut handles = Vec::new();
    for _ in 0..SHARDS {
        let mut registry = Registry::new();
        registry
            .add_table(
                "census",
                Arc::clone(&table),
                DatasetOptions {
                    config: config.clone(),
                    cache_capacity: 0,
                },
            )
            .unwrap();
        handles.push(Server::start(registry, ServeConfig::default().with_threads(2)).unwrap());
    }
    let (proxies, addrs) = common::proxies(&handles);
    // An uneven partition of the 10 segments, so shard loss is visible in
    // the coverage arithmetic.
    let assignment = vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]];
    Chaos {
        table,
        config,
        reference,
        handles,
        proxies,
        addrs,
        assignment,
    }
}

impl Chaos {
    fn coordinator(&self, options: CoordinatorOptions) -> Coordinator {
        Coordinator::connect_with(&self.addrs, "census", self.config.clone(), options)
            .unwrap()
            .with_assignment(self.assignment.clone())
            .unwrap()
    }

    /// Arm one fault plan across the shards' proxies (replacing whatever
    /// was left).
    fn arm(&self, plan: &[Vec<Fault>]) {
        for (proxy, faults) in self.proxies.iter().zip(plan) {
            proxy.arm(faults.clone());
        }
    }

    /// Clear every injected fault and revive killed shards.
    fn disarm(&self) {
        let empty = vec![Vec::new(); SHARDS];
        self.arm(&empty);
    }

    /// The degraded contract: the answer is bit-identical to an in-process
    /// explore over exactly the segments `coverage` says survived, and the
    /// coverage arithmetic is consistent with the pinned assignment.
    fn assert_covers(&self, result: &MapResult, coverage: &Coverage) {
        let mut expected_missing: Vec<usize> = coverage
            .failed_shards
            .iter()
            .map(|addr| {
                self.addrs
                    .iter()
                    .position(|a| a == addr)
                    .expect("failed shard address is one of the rig's")
            })
            .flat_map(|shard| self.assignment[shard].iter().copied())
            .collect();
        expected_missing.sort_unstable();
        assert_eq!(
            coverage.missing_segments, expected_missing,
            "missing segments must be exactly the failed shards' segments"
        );
        assert_eq!(coverage.segments_total, self.table.num_segments());
        assert_eq!(
            coverage.segments_answered,
            coverage.segments_total - coverage.missing_segments.len()
        );
        let missing_rows: usize = coverage
            .missing_segments
            .iter()
            .map(|&s| self.table.segments()[s].num_rows())
            .sum();
        assert_eq!(coverage.rows_total, self.table.num_rows());
        assert_eq!(coverage.rows_answered, self.table.num_rows() - missing_rows);
        assert_eq!(coverage.columns.len(), self.table.num_columns());
        for (name, rows) in &coverage.columns {
            assert_eq!(*rows, coverage.rows_answered, "column {name}");
        }
        assert_eq!(
            coverage.complete(),
            coverage.missing_segments.is_empty(),
            "complete() must mirror the missing list"
        );

        let kept: Vec<_> = (0..self.table.num_segments())
            .filter(|s| !coverage.missing_segments.contains(s))
            .map(|s| Arc::clone(&self.table.segments()[s]))
            .collect();
        let survivors = Table::from_segments("census", self.table.schema().clone(), kept).unwrap();
        let local = Atlas::new(Arc::new(survivors), self.config.clone())
            .unwrap()
            .explore_released(&ConjunctiveQuery::all("census"))
            .unwrap();
        assert_identical(&local, result);
    }
}

/// Assert two explorations are bit-for-bit identical: same map order, same
/// attribute groups, same region queries, extents and counts, same score
/// bits.
fn assert_identical(a: &MapResult, b: &MapResult) {
    assert_eq!(a.num_maps(), b.num_maps());
    assert_eq!(a.working_set_size, b.working_set_size);
    assert_eq!(a.skipped_attributes, b.skipped_attributes);
    for (ra, rb) in a.maps.iter().zip(b.maps.iter()) {
        assert_eq!(ra.map.source_attributes, rb.map.source_attributes);
        assert_eq!(
            ra.score.to_bits(),
            rb.score.to_bits(),
            "scores must be bit-identical"
        );
        assert_eq!(ra.map.num_regions(), rb.map.num_regions());
        for (qa, qb) in ra.map.regions.iter().zip(rb.map.regions.iter()) {
            assert_eq!(to_sql(&qa.query), to_sql(&qb.query));
            assert_eq!(qa.selection, qb.selection);
            assert_eq!(qa.count(), qb.count());
        }
    }
}

fn journal_entry(seed: u64, plan: &[Vec<Fault>], verdict: Json) -> Json {
    Json::object(vec![
        ("seed", Json::from(seed)),
        (
            "plan",
            Json::array(
                plan.iter()
                    .map(|faults| Json::array(faults.iter().map(Fault::to_json).collect()))
                    .collect(),
            ),
        ),
        ("verdict", verdict),
    ])
}

/// Dump one suite's plans + verdicts when `ATLAS_CHAOS_PLAN_OUT` names a
/// directory (the CI chaos job uploads the result as an artifact).
fn write_journal(suite: &str, entries: Vec<Json>) {
    let Ok(dir) = std::env::var("ATLAS_CHAOS_PLAN_OUT") else {
        return;
    };
    let path = std::path::Path::new(&dir).join(format!("chaos-{suite}.json"));
    let body = Json::object(vec![("runs", Json::array(entries))]).encode();
    let _ = std::fs::create_dir_all(&dir);
    std::fs::write(&path, body).expect("writing the chaos plan artifact");
}

/// Run a range of strict-mode seeds: every one must answer bit-identically
/// or fail with a typed `Distributed` error naming a shard, inside the
/// wall-clock bound.
fn run_strict_seeds(seeds: Range<u64>, suite: &str) {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    let expected = rig.reference.explore_released(&query).unwrap();
    let mut journal = Vec::new();
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = gen_plan(&mut rng);
        let coordinator = rig.coordinator(chaos_options());
        rig.arm(&plan);
        let started = Instant::now();
        let outcome = coordinator.explore(&query);
        let elapsed = started.elapsed();
        assert!(
            elapsed < WALL_CLOCK_BOUND,
            "seed {seed}: strict explore took {elapsed:?} under plan {plan:?}"
        );
        let verdict = match outcome {
            Ok(result) => {
                assert_identical(&expected, &result);
                Json::from("identical")
            }
            Err(AtlasError::Distributed(message)) => {
                assert!(
                    message.contains("shard"),
                    "seed {seed}: error names no shard: {message}"
                );
                Json::from("typed_error")
            }
            Err(other) => {
                panic!("seed {seed}: expected a Distributed error, got {other:?} under {plan:?}")
            }
        };
        journal.push(journal_entry(seed, &plan, verdict));
        rig.disarm();
    }
    write_journal(suite, journal);
    for handle in rig.handles {
        handle.shutdown();
    }
}

/// Run a range of degraded-mode seeds (`max_failed_shards = 2` of 3): every
/// one must either satisfy the coverage contract or fail typed.
fn run_degraded_seeds(seeds: Range<u64>, suite: &str) {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    let mut journal = Vec::new();
    for seed in seeds {
        // A different stream than the strict sweep over the same seed.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let plan = gen_plan(&mut rng);
        let coordinator = rig.coordinator(chaos_options());
        rig.arm(&plan);
        let started = Instant::now();
        let outcome = coordinator.explore_resilient(
            &query,
            ExploreMode::Degraded {
                max_failed_shards: 2,
            },
            None,
        );
        let elapsed = started.elapsed();
        assert!(
            elapsed < WALL_CLOCK_BOUND,
            "seed {seed}: degraded explore took {elapsed:?} under plan {plan:?}"
        );
        let verdict = match outcome {
            Ok(answer) => {
                rig.assert_covers(&answer.result, &answer.coverage);
                Json::object(vec![
                    ("kind", Json::from("answered")),
                    (
                        "missing_segments",
                        Json::array(
                            answer
                                .coverage
                                .missing_segments
                                .iter()
                                .map(|&s| Json::from(s))
                                .collect(),
                        ),
                    ),
                ])
            }
            Err(AtlasError::Distributed(message)) => {
                assert!(
                    message.contains("shard"),
                    "seed {seed}: error names no shard: {message}"
                );
                Json::object(vec![("kind", Json::from("typed_error"))])
            }
            Err(other) => {
                panic!("seed {seed}: expected a Distributed error, got {other:?} under {plan:?}")
            }
        };
        journal.push(journal_entry(seed, &plan, verdict));
        rig.disarm();
    }
    write_journal(suite, journal);
    for handle in rig.handles {
        handle.shutdown();
    }
}

// The 100-seed strict sweep, split four ways so the test harness runs the
// quarters in parallel.

#[test]
fn strict_chaos_seeds_00_24() {
    run_strict_seeds(0..25, "strict-00-24");
}

#[test]
fn strict_chaos_seeds_25_49() {
    run_strict_seeds(25..50, "strict-25-49");
}

#[test]
fn strict_chaos_seeds_50_74() {
    run_strict_seeds(50..75, "strict-50-74");
}

#[test]
fn strict_chaos_seeds_75_99() {
    run_strict_seeds(75..100, "strict-75-99");
}

// The 30-seed degraded sweep, split in two.

#[test]
fn degraded_chaos_seeds_00_14() {
    run_degraded_seeds(0..15, "degraded-00-14");
}

#[test]
fn degraded_chaos_seeds_15_29() {
    run_degraded_seeds(15..30, "degraded-15-29");
}

/// One extra operator-chosen seed: `ATLAS_CHAOS_SEED=n cargo test --test
/// chaos extra_seed`. A failing seed from CI replays exactly this way.
#[test]
fn extra_seed_from_the_environment() {
    let Ok(seed) = std::env::var("ATLAS_CHAOS_SEED") else {
        return;
    };
    let seed: u64 = seed.parse().expect("ATLAS_CHAOS_SEED must be an integer");
    run_strict_seeds(seed..seed + 1, "strict-env");
    run_degraded_seeds(seed..seed + 1, "degraded-env");
}

/// Two transient `5xx` answers are retried (with seeded backoff) and the
/// retry counter records exactly two; the answer is still bit-identical.
#[test]
fn transient_errors_are_retried_and_counted_exactly() {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    let expected = rig.reference.explore_released(&query).unwrap();
    let mut options = chaos_options();
    options.shard_timeout = Duration::from_secs(5);
    options.retry = options.retry.with_max_attempts(3);
    let coordinator = rig.coordinator(options);
    rig.arm(&[
        Vec::new(),
        vec![Fault::Error(500), Fault::Error(503)],
        Vec::new(),
    ]);
    let result = coordinator.explore(&query).unwrap();
    assert_identical(&expected, &result);
    assert_eq!(coordinator.metrics().retries(), 2);
    assert_eq!(coordinator.metrics().hedges_launched(), 0);
    assert_eq!(coordinator.metrics().skipped_open_circuit(), 0);
    for handle in rig.handles {
        handle.shutdown();
    }
}

/// A `501` is not retryable: the explore fails typed with zero retries.
#[test]
fn a_non_retryable_status_fails_without_retrying() {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    let mut options = chaos_options();
    options.shard_timeout = Duration::from_secs(5);
    let coordinator = rig.coordinator(options);
    rig.arm(&[vec![Fault::Error(501)], Vec::new(), Vec::new()]);
    let error = coordinator.explore(&query).unwrap_err();
    match error {
        AtlasError::Distributed(message) => {
            assert!(message.contains("answered 501"), "{message}")
        }
        other => panic!("expected a Distributed error, got {other:?}"),
    }
    assert_eq!(coordinator.metrics().retries(), 0);
    for handle in rig.handles {
        handle.shutdown();
    }
}

/// One injected straggler, hedging after 400 ms: exactly one hedge is
/// launched, it wins, nothing is retried, and the answer arrives long
/// before the straggler would have.
#[test]
fn a_straggler_is_hedged_and_the_hedge_wins() {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    let expected = rig.reference.explore_released(&query).unwrap();
    let mut options = chaos_options();
    options.shard_timeout = Duration::from_secs(10);
    options.hedge = HedgePolicy::After(Duration::from_millis(400));
    let coordinator = rig.coordinator(options);
    rig.arm(&[Vec::new(), vec![Fault::Delay(5_000)], Vec::new()]);
    let started = Instant::now();
    let result = coordinator.explore(&query).unwrap();
    let elapsed = started.elapsed();
    assert_identical(&expected, &result);
    assert!(
        elapsed < Duration::from_secs(4),
        "the hedge must beat the 5 s straggler, took {elapsed:?}"
    );
    assert_eq!(coordinator.metrics().hedges_launched(), 1);
    assert_eq!(coordinator.metrics().hedges_won(), 1);
    assert_eq!(coordinator.metrics().retries(), 0);
    for handle in rig.handles {
        handle.shutdown();
    }
}

/// The circuit-breaker lifecycle, end to end: a killed shard opens its
/// circuit on the first failure (threshold 1); while open the shard is
/// skipped without a socket touch; after the cool-down a half-open probe
/// closes it again and the explore is bit-identical.
#[test]
fn a_circuit_opens_refuses_and_recovers() {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    let expected = rig.reference.explore_released(&query).unwrap();
    let mut options = chaos_options();
    options.retry = options.retry.with_max_attempts(1);
    options.circuit = CircuitConfig {
        failure_threshold: 1,
        cool_down: Duration::from_millis(700),
    };
    let coordinator = rig.coordinator(options);

    rig.arm(&[Vec::new(), Vec::new(), vec![Fault::Kill]]);
    let error = coordinator.explore(&query).unwrap_err();
    assert!(matches!(error, AtlasError::Distributed(_)), "{error}");
    let states = coordinator.circuit_states();
    assert_eq!(states[2].1, CircuitState::Open);
    assert_eq!(states[2].2, 1, "opened exactly once");

    // While the circuit is open, the shard is refused up front.
    let error = coordinator.explore(&query).unwrap_err();
    assert!(error.to_string().contains("circuit open"), "{error}");
    assert!(coordinator.metrics().skipped_open_circuit() >= 1);

    // Revive the shard; after the cool-down one probe closes the circuit.
    rig.disarm();
    std::thread::sleep(Duration::from_millis(900));
    let result = coordinator.explore(&query).unwrap();
    assert_identical(&expected, &result);
    assert_eq!(coordinator.circuit_states()[2].1, CircuitState::Closed);
    assert_eq!(coordinator.circuit_states()[2].2, 1, "no re-open");
    for handle in rig.handles {
        handle.shutdown();
    }
}

/// Degraded mode drops a shard whose circuit is already open without
/// waiting for it to fail again, and the coverage names it.
#[test]
fn degraded_mode_skips_an_open_circuit_up_front() {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    let mut options = chaos_options();
    options.retry = options.retry.with_max_attempts(1);
    options.circuit = CircuitConfig {
        failure_threshold: 1,
        cool_down: Duration::from_secs(60),
    };
    let coordinator = rig.coordinator(options);

    rig.arm(&[vec![Fault::Kill], Vec::new(), Vec::new()]);
    let error = coordinator.explore(&query).unwrap_err();
    assert!(matches!(error, AtlasError::Distributed(_)), "{error}");
    assert_eq!(coordinator.circuit_states()[0].1, CircuitState::Open);

    let answer = coordinator
        .explore_resilient(
            &query,
            ExploreMode::Degraded {
                max_failed_shards: 2,
            },
            None,
        )
        .unwrap();
    assert_eq!(
        answer.coverage.failed_shards,
        vec![rig.addrs[0].clone()],
        "the open-circuit shard is the one dropped"
    );
    rig.assert_covers(&answer.result, &answer.coverage);
    assert_eq!(coordinator.metrics().degraded_explores(), 1);
    for handle in rig.handles {
        handle.shutdown();
    }
}

/// A deadline far below the injected stalls surfaces as a typed
/// [`AtlasError::Deadline`] — promptly, with the counter bumped, never a
/// hang waiting out the stalls.
#[test]
fn an_expired_deadline_is_a_typed_error_not_a_hang() {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    let coordinator = rig.coordinator(chaos_options());
    let stall = vec![Fault::Delay(800); 4];
    rig.arm(&[stall.clone(), stall.clone(), stall]);
    let started = Instant::now();
    let error = coordinator
        .explore_resilient(
            &query,
            ExploreMode::Strict,
            Some(Deadline::after(Duration::from_millis(120))),
        )
        .unwrap_err();
    let elapsed = started.elapsed();
    assert!(matches!(error, AtlasError::Deadline { .. }), "{error}");
    assert!(
        elapsed < Duration::from_secs(3),
        "the deadline must cut the stalls short, took {elapsed:?}"
    );
    assert_eq!(coordinator.metrics().deadline_exceeded(), 1);
    for handle in rig.handles {
        handle.shutdown();
    }
}

/// A generous deadline changes nothing: the answer is bit-identical and no
/// deadline trip is recorded.
#[test]
fn a_generous_deadline_is_invisible_in_the_answer() {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    let expected = rig.reference.explore_released(&query).unwrap();
    let coordinator = rig.coordinator(chaos_options());
    let answer = coordinator
        .explore_resilient(
            &query,
            ExploreMode::Strict,
            Some(Deadline::after(Duration::from_secs(60))),
        )
        .unwrap();
    assert_identical(&expected, &answer.result);
    assert!(answer.coverage.complete());
    assert_eq!(coordinator.metrics().deadline_exceeded(), 0);
    for handle in rig.handles {
        handle.shutdown();
    }
}

/// A shard that answers `200` with a reply that breaks an invariant — the
/// first cut of its `/shard/select` count reply counting 901 rows of its
/// three segments' 900 — is blamed like a shard whose call fails: in strict
/// mode the typed error names the shard and the endpoint and the shard's
/// breaker counts it (threshold 1: it opens), and in degraded mode the shard
/// is dropped, the coverage names it, and the answer is the engine's over
/// the surviving segments.
#[test]
fn a_corrupt_frame_is_blamed_on_the_shard_that_sent_it() {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    // `/shard/working` passes; the first `/shard/select` is corrupted.
    let plan = [
        Vec::new(),
        vec![Fault::Delay(0), Fault::Corrupt],
        Vec::new(),
    ];

    let mut options = chaos_options();
    options.circuit = CircuitConfig {
        failure_threshold: 1,
        cool_down: Duration::from_secs(60),
    };
    let coordinator = rig.coordinator(options);
    rig.arm(&plan);
    match coordinator.explore(&query).unwrap_err() {
        AtlasError::Distributed(message) => {
            assert!(message.contains(&rig.addrs[1]), "{message}");
            assert!(message.contains("/shard/select"), "{message}");
            assert!(message.contains("901 rows"), "{message}");
        }
        other => panic!("expected a Distributed error, got {other:?}"),
    }
    assert_eq!(coordinator.circuit_states()[1].1, CircuitState::Open);
    assert_eq!(coordinator.metrics().retries(), 0);

    let coordinator = rig.coordinator(chaos_options());
    rig.arm(&plan);
    let answer = coordinator
        .explore_resilient(
            &query,
            ExploreMode::Degraded {
                max_failed_shards: 1,
            },
            None,
        )
        .unwrap();
    assert_eq!(answer.coverage.failed_shards, vec![rig.addrs[1].clone()]);
    assert_eq!(answer.coverage.missing_segments, vec![4, 5, 6]);
    rig.assert_covers(&answer.result, &answer.coverage);
    assert_eq!(coordinator.metrics().degraded_explores(), 1);
    for handle in rig.handles {
        handle.shutdown();
    }
}

/// The plan that truncates shard 1's `/shard/select` answer — its second
/// call, after `/shard/working` — to half its bytes: the head and part of
/// the count reply, which is one JSON document, so the read fails on a body
/// shorter than its length.
fn truncated_select_plan() -> [Vec<Fault>; SHARDS] {
    [
        Vec::new(),
        vec![Fault::Delay(0), Fault::Truncate(500)],
        Vec::new(),
    ]
}

/// A count reply cut in half, and retried: the retry's reply is the one
/// the round sums, so the answer is the engine's bit for bit.
#[test]
fn a_truncated_select_reply_is_retried_bit_identically() {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    let expected = rig.reference.explore_released(&query).unwrap();
    let mut options = chaos_options();
    options.shard_timeout = Duration::from_secs(5);
    let coordinator = rig.coordinator(options);
    rig.arm(&truncated_select_plan());
    let result = coordinator.explore(&query).unwrap();
    assert_identical(&expected, &result);
    assert_eq!(coordinator.metrics().retries(), 1);
    for handle in rig.handles {
        handle.shutdown();
    }
}

/// The same cut reply with no retry, in degraded mode: shard 1 is dropped
/// and the pass re-runs over the survivors, summing only their counts, so
/// nothing of the failed pass reaches the answer, which is the engine's
/// over the surviving segments.
#[test]
fn a_truncated_select_reply_in_degraded_mode_sums_only_the_survivors() {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    let mut options = chaos_options();
    options.shard_timeout = Duration::from_secs(5);
    options.retry = options.retry.with_max_attempts(1);
    let coordinator = rig.coordinator(options);
    rig.arm(&truncated_select_plan());
    let answer = coordinator
        .explore_resilient(
            &query,
            ExploreMode::Degraded {
                max_failed_shards: 1,
            },
            None,
        )
        .unwrap();
    assert_eq!(answer.coverage.failed_shards, vec![rig.addrs[1].clone()]);
    assert_eq!(answer.coverage.missing_segments, vec![4, 5, 6]);
    rig.assert_covers(&answer.result, &answer.coverage);
    assert_eq!(coordinator.metrics().retries(), 0);
    for handle in rig.handles {
        handle.shutdown();
    }
}

/// A straggling `/shard/select` is hedged: the hedge's count reply arrives
/// first and wins, and the answer is the engine's bit for bit. The
/// straggler's reply, read on its detached thread after the round, reaches
/// nothing; the next explore is unaffected.
#[test]
fn a_hedged_select_round_is_bit_identical() {
    let rig = chaos_rig();
    let query = ConjunctiveQuery::all("census");
    let expected = rig.reference.explore_released(&query).unwrap();
    let mut options = chaos_options();
    options.shard_timeout = Duration::from_secs(5);
    options.hedge = HedgePolicy::After(Duration::from_millis(300));
    let coordinator = rig.coordinator(options);
    let straggle = Duration::from_millis(2_000);
    rig.arm(&[
        Vec::new(),
        vec![Fault::Delay(0), Fault::Delay(straggle.as_millis() as u64)],
        Vec::new(),
    ]);
    let started = Instant::now();
    let result = coordinator.explore(&query).unwrap();
    assert!(
        started.elapsed() < straggle,
        "the hedge must beat the straggler, took {:?}",
        started.elapsed()
    );
    assert_identical(&expected, &result);
    assert_eq!(coordinator.metrics().hedges_launched(), 1);
    assert_eq!(coordinator.metrics().hedges_won(), 1);
    assert_eq!(coordinator.metrics().retries(), 0);

    std::thread::sleep(straggle);
    assert_identical(&expected, &coordinator.explore(&query).unwrap());
    for handle in rig.handles {
        handle.shutdown();
    }
}
