//! The distributed scatter-gather acceptance suite: shard servers holding
//! subsets of a table's segments, a [`Coordinator`] that pushes candidate
//! generation down to them (each shard counts the candidates' regions and
//! every pair's contingency cells; the coordinator scores the distances and
//! builds every region from its count), and the property the whole design
//! hangs on — **the shard layout is invisible in the answer**, which is the
//! in-process engine's released answer (`Atlas::explore_released`): the same
//! queries, counts and score bits, no rows.
//!
//! * Random tables under random segment→shard assignments (empty shards and
//!   a single mega-shard included) explore bit-for-bit identically to the
//!   in-process engine.
//! * The 100k census is bit-identical at N ∈ {1, 2, 4} shards — the
//!   acceptance bar of the distributed refactor.
//! * The composition presets (`default`, `quality`) are bit-identical at
//!   1–3 shards too: the coordinator re-cuts every region of a composition
//!   level at the shards, from the region's SQL, and counts the sub-regions
//!   off the region's summaries.
//! * A cluster of three maps costs one more round, for its own cells.
//! * A shard killed mid-explore surfaces a typed [`AtlasError::Distributed`]
//!   promptly — never a hang, never a partial map.
//! * A slow shard trips the per-request timeout and is retried exactly once.
//! * Shard calls reuse one keep-alive connection per shard (`keep_alive_*`):
//!   ten explores open one connection a shard, a connection the shard
//!   closed while idle is replaced without a retry, a one-worker shard held
//!   by a coordinator still serves another client, and a timed-out attempt's
//!   late reply is never read as the next request's.
//! * Real `atlas-serve` processes (one per shard) agree with the in-process
//!   engine too, and their death is detected.

use atlas::core::AtlasError;
use atlas::datagen::CensusConfig;
use atlas::prelude::*;
use atlas::serve::wire::{frames, Json};
use atlas::serve::{
    Client, Coordinator, DatasetOptions, ExploreMode, Registry, ServeConfig, Server, ServerHandle,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::Fault;

/// Build a survey-shaped table, sealing a segment after every row index
/// listed in `seals` (plus wherever `segment_rows` forces one).
fn build_table(
    numeric: &[f64],
    categories: &[u8],
    seals: &[usize],
    segment_rows: usize,
) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("x", DataType::Float),
        Field::new("y", DataType::Float),
        Field::new("c", DataType::Str),
        Field::new("d", DataType::Str),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("t", schema).with_segment_rows(segment_rows);
    for (i, &x) in numeric.iter().enumerate() {
        let c = categories[i % categories.len()] % 4;
        let y = f64::from(c) * 100.0 + x / 10.0;
        let d = if x >= 0.0 { "pos" } else { "neg" };
        builder
            .push_row(&[
                Value::Float(x),
                Value::Float(y),
                Value::Str(format!("cat{c}")),
                Value::Str(d.to_string()),
            ])
            .unwrap();
        if seals.contains(&i) {
            builder.seal_segment().unwrap();
        }
    }
    Arc::new(builder.build().unwrap())
}

/// A multi-segment census table matching what `atlas-serve --dataset
/// census:ROWS` generates (seed 42), with a pinned segment layout.
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

/// The engine configuration most tests in this suite run: the product merge,
/// which makes no round of its own after the cuts. The composition presets
/// have tests of their own.
fn product_config() -> AtlasConfig {
    AtlasConfig {
        merge: MergeStrategy::Product,
        ..AtlasConfig::default()
    }
    .with_parallelism(2)
}

/// Boot one shard server serving `table` under `name` on an ephemeral port.
fn boot_shard(
    name: &str,
    table: &Arc<Table>,
    config: &AtlasConfig,
    serve_config: ServeConfig,
) -> ServerHandle {
    let mut registry = Registry::new();
    let options = DatasetOptions {
        config: config.clone(),
        cache_capacity: 0,
    };
    registry
        .add_table(name, Arc::clone(table), options)
        .unwrap();
    Server::start(registry, serve_config).unwrap()
}

/// Boot `n` in-process shard servers, each serving the same `Arc<Table>`
/// under `name` on an ephemeral port.
fn boot_shards(
    name: &str,
    table: &Arc<Table>,
    config: &AtlasConfig,
    n: usize,
) -> (Vec<ServerHandle>, Vec<String>) {
    let handles: Vec<ServerHandle> = (0..n)
        .map(|_| boot_shard(name, table, config, ServeConfig::default().with_threads(2)))
        .collect();
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    (handles, addrs)
}

/// Assert that the coordinator's answer `b` is the in-process released
/// answer `a` bit for bit: same map order, same attribute groups, same
/// region queries and counts, same score bits, and neither holds a row.
fn assert_identical(a: &atlas::core::MapResult, b: &atlas::core::MapResult) {
    assert_eq!(a.num_maps(), b.num_maps());
    assert_eq!(a.working_set_size, b.working_set_size);
    assert_eq!((a.working_set.len(), b.working_set.len()), (0, 0));
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
            assert_eq!(qa.count(), qb.count());
            assert!(!qa.holds_rows() && !qb.holds_rows());
        }
    }
}

/// Compare the in-process released and the distributed explorations of
/// `query`: both succeed with identical output, or both fail with the same
/// error message.
fn assert_agree(reference: &Atlas, coordinator: &Coordinator, query: &ConjunctiveQuery) {
    let local = reference.explore_released(query);
    let distributed = coordinator.explore(query);
    match (local, distributed) {
        (Ok(a), Ok(b)) => assert_identical(&a, &b),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!("local {a:?} and distributed {b:?} disagree on success"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole property: random data, random segment boundaries, and a
    /// random segment→shard assignment across three shard servers (often
    /// leaving some shard empty, sometimes a single mega-shard) explore
    /// bit-for-bit like the in-process engine — covering and drill-down
    /// working sets both.
    #[test]
    fn any_shard_assignment_is_bit_identical(
        numeric in proptest::collection::vec(-1000.0..1000.0f64, 16..160),
        categories in proptest::collection::vec(0u8..4, 4..16),
        seals in proptest::collection::vec(0usize..160, 0..5),
        segment_rows in 8usize..80,
        shard_of in proptest::collection::vec(0usize..3, 1..12),
    ) {
        let table = build_table(&numeric, &categories, &seals, segment_rows);
        let config = product_config();
        let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
        let (handles, addrs) = boot_shards("t", &table, &config, 3);
        let connected =
            Coordinator::connect(&addrs, "t", config.clone(), Duration::from_secs(10)).unwrap();
        prop_assert_eq!(connected.num_rows(), table.num_rows());

        let mut assignment = vec![Vec::new(); 3];
        for segment in 0..connected.num_segments() {
            assignment[shard_of[segment % shard_of.len()]].push(segment);
        }
        let coordinator = connected.with_assignment(assignment).unwrap();

        assert_agree(&reference, &coordinator, &ConjunctiveQuery::all("t"));
        let drill = ConjunctiveQuery::all("t").and(Predicate::range("x", -500.0, 500.0));
        assert_agree(&reference, &coordinator, &drill);

        for handle in handles {
            handle.shutdown();
        }
    }
}

/// Deterministic corner layouts: all segments on one shard of three (two
/// idle), and a rejected non-partition assignment.
#[test]
fn mega_shard_and_empty_shards_agree() {
    let table = census_table(6_000, 1_000);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let (handles, addrs) = boot_shards("census", &table, &config, 3);

    let connected =
        Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(10)).unwrap();
    assert_eq!(connected.num_segments(), 6);
    let all: Vec<usize> = (0..6).collect();
    let coordinator = connected
        .with_assignment(vec![Vec::new(), all.clone(), Vec::new()])
        .unwrap();
    assert_agree(&reference, &coordinator, &ConjunctiveQuery::all("census"));

    // Not a partition: segment 0 assigned twice.
    let connected =
        Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(10)).unwrap();
    let error = connected
        .with_assignment(vec![vec![0, 1, 2], vec![0, 3, 4], vec![5]])
        .unwrap_err();
    assert!(matches!(error, AtlasError::Distributed(_)), "{error}");

    for handle in handles {
        handle.shutdown();
    }
}

/// The acceptance bar from the issue: the 100k census explored through
/// N ∈ {1, 2, 4} shard servers is bit-identical — scores, region SQL,
/// counts — to single-process `Atlas::explore`.
#[test]
fn census_100k_is_bit_identical_at_1_2_4_shards() {
    let table = census_table(100_000, 12_500);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let queries = [
        "SELECT * FROM census",
        "SELECT * FROM census WHERE age BETWEEN 25 AND 60",
    ];
    for shards in [1usize, 2, 4] {
        let (handles, addrs) = boot_shards("census", &table, &config, shards);
        let coordinator =
            Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(30))
                .unwrap();
        assert_eq!(coordinator.num_segments(), 8);
        for sql in queries {
            assert_agree(&reference, &coordinator, &parse_query(sql).unwrap());
        }
        assert!(coordinator.metrics().fan_out() > 0);
        assert_eq!(coordinator.metrics().retries(), 0);
        for handle in handles {
            handle.shutdown();
        }
    }
}

/// A filtered product explore the region cap folds — four-way cuts, at most
/// six regions a map — is bit-identical at 1–3 shards, the remainder region
/// included: its query is the user's, locally and at the coordinator.
#[test]
fn a_capped_filtered_explore_is_bit_identical_at_1_2_3_shards() {
    let table = Arc::new(
        CensusGenerator::new(CensusConfig {
            rows: 20_000,
            seed: 7,
            segment_rows: Some(2_500),
            ..CensusConfig::default()
        })
        .generate(),
    );
    let config = AtlasConfig {
        cut: CutConfig {
            num_splits: 4,
            ..CutConfig::default()
        },
        max_regions_per_map: 6,
        ..product_config()
    };
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let query = parse_query("SELECT * FROM census WHERE age BETWEEN 30 AND 50").unwrap();
    let local = reference.explore_released(&query).unwrap();
    let mut regions = local.maps.iter().flat_map(|m| &m.map.regions);
    assert!(
        regions.any(|r| r.query == query),
        "the cap folds a remainder"
    );
    for shards in 1..=3 {
        let (handles, addrs) = boot_shards("census", &table, &config, shards);
        let coordinator =
            Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(30))
                .unwrap();
        assert_identical(&local, &coordinator.explore(&query).unwrap());
        for handle in handles {
            handle.shutdown();
        }
    }
}

/// A census of `rows` rows (seed 42) with `null_fraction` of its cells NULL,
/// in `segment_rows`-row segments.
fn census_with_nulls(rows: usize, segment_rows: usize, null_fraction: f64) -> Arc<Table> {
    Arc::new(
        CensusGenerator::new(CensusConfig {
            rows,
            seed: 42,
            null_fraction,
            segment_rows: Some(segment_rows),
            ..CensusConfig::default()
        })
        .generate(),
    )
}

/// The paper's configuration — median cuts merged by composition — and the
/// quality preset (k-means cuts, composition) explore through 1–3 shard
/// servers bit for bit like the local engine's released answer: the
/// coordinator re-cuts each region of a composition level from its query at
/// the shards. The whole table, a filter, and a drill into a composed
/// region, on the census and on a census with NULLs.
#[test]
fn the_composition_presets_are_bit_identical_at_1_2_3_shards() {
    for null_fraction in [0.0, 0.05] {
        let table = census_with_nulls(6_000, 1_000, null_fraction);
        for config in [AtlasConfig::default(), AtlasConfig::quality()] {
            let config = config.with_parallelism(2);
            assert_eq!(config.merge, MergeStrategy::Composition);
            let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
            let whole = ConjunctiveQuery::all("census");
            let local = reference.explore_released(&whole).unwrap();
            let composed = local
                .maps
                .iter()
                .find(|ranked| ranked.map.source_attributes.len() > 1)
                .expect("a whole-table explore composes a cluster");
            let queries = [
                whole.clone(),
                parse_query("SELECT * FROM census WHERE hours_per_week BETWEEN 20 AND 50").unwrap(),
                composed.map.regions[0].query.clone(),
            ];
            for shards in 1..=3 {
                let (handles, addrs) = boot_shards("census", &table, &config, shards);
                let coordinator =
                    Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(30))
                        .unwrap();
                for query in &queries {
                    assert_agree(&reference, &coordinator, query);
                }
                for handle in handles {
                    handle.shutdown();
                }
            }
        }
    }
}

/// A shard that dies during the merge phase of a `default` explore — after
/// it answered the candidates' two rounds, on its first composition round —
/// is dropped by a degraded explore, which re-runs without it: the answer is
/// a local `default` explore over the surviving segments, bit for bit. A
/// strict explore fails with an error naming the shard.
#[test]
fn a_shard_lost_while_composing_degrades_to_the_surviving_segments() {
    let table = census_table(6_000, 1_000);
    let config = AtlasConfig::default().with_parallelism(2);
    let (handles, _) = boot_shards("census", &table, &config, 3);
    let (proxies, addrs) = common::proxies(&handles);
    let coordinator =
        Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(10)).unwrap();
    let whole = ConjunctiveQuery::all("census");
    let dies_composing = || proxies[1].arm(vec![Fault::None, Fault::None, Fault::Kill]);

    dies_composing();
    let mode = ExploreMode::Degraded {
        max_failed_shards: 1,
    };
    let degraded = coordinator.explore_resilient(&whole, mode, None).unwrap();
    assert_eq!(degraded.coverage.missing_segments, vec![2, 3]);
    let kept = [0, 1, 4, 5].map(|s| Arc::clone(&table.segments()[s]));
    let survivors = Table::from_segments("census", table.schema().clone(), kept.to_vec()).unwrap();
    let local = Atlas::new(Arc::new(survivors), config)
        .unwrap()
        .explore_released(&whole)
        .unwrap();
    assert!(local.maps.iter().any(|m| m.map.source_attributes.len() > 1));
    assert_identical(&local, &degraded.result);

    dies_composing();
    match coordinator.explore(&whole) {
        Err(AtlasError::Distributed(message)) => {
            assert!(message.contains(&addrs[1]), "{message}")
        }
        other => panic!("expected a Distributed error, got {other:?}"),
    }
    for handle in handles {
        handle.shutdown();
    }
}

/// Kill one of two shards while an explore is in flight: the coordinator
/// must answer with a typed `Distributed` error well inside its timeout
/// budget — no hang, no partial map.
#[test]
fn killed_shard_surfaces_a_distributed_error() {
    let table = census_table(8_000, 1_000);
    let config = product_config();
    let (mut handles, _) = boot_shards("census", &table, &config, 2);
    let (proxies, addrs) = common::proxies(&handles);
    let coordinator =
        Arc::new(Coordinator::connect(&addrs, "census", config, Duration::from_secs(2)).unwrap());

    // Slow every request on shard 1 by 300 ms so the explore is still
    // mid-scatter when the shard dies: the kill lands inside the first
    // round, which the dying shard finishes, and the next round finds it
    // gone. A plan of more delays than the explore makes calls.
    proxies[1].arm(vec![Fault::Delay(300); 64]);

    let worker = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || coordinator.explore(&ConjunctiveQuery::all("census")))
    };
    std::thread::sleep(Duration::from_millis(150));
    let started = Instant::now();
    handles.remove(1).shutdown();
    let result = worker.join().unwrap();
    match result {
        Err(AtlasError::Distributed(message)) => {
            assert!(message.contains("shard"), "unhelpful error: {message}")
        }
        other => panic!("expected a Distributed error, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the failure must surface promptly"
    );
    for handle in handles {
        handle.shutdown();
    }
}

/// A shard that answers its first request after the per-request timeout is
/// retried exactly once, and the retried explore is still bit-identical.
#[test]
fn slow_shard_trips_timeout_and_retries_once() {
    let table = census_table(4_000, 1_000);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let (handles, _) = boot_shards("census", &table, &config, 2);
    let (proxies, addrs) = common::proxies(&handles);
    let coordinator =
        Coordinator::connect(&addrs, "census", config, Duration::from_millis(400)).unwrap();

    // One injected 1200 ms stall: the first data request to shard 0 times
    // out at 400 ms and the immediate retry sails through.
    proxies[0].arm(vec![Fault::Delay(1_200)]);

    let query = ConjunctiveQuery::all("census");
    let local = reference.explore_released(&query).unwrap();
    let distributed = coordinator.explore(&query).unwrap();
    assert_identical(&local, &distributed);
    assert_eq!(
        coordinator.metrics().retries(),
        1,
        "the stalled request is retried exactly once"
    );
    for handle in handles {
        handle.shutdown();
    }
}

/// Keep-alive shard calls: ten `fast` explores through a front server make
/// each shard's proxy accept one connection — the `/shard/meta` call opens
/// it and every later call reuses it (a connection per call would be 21) —
/// and the front's `/metrics` counts the same one connect per shard.
#[test]
fn keep_alive_explores_reuse_one_connection_per_shard() {
    let table = census_table(6_000, 1_000);
    let config = AtlasConfig::fast().with_parallelism(2);
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let (shard_handles, _) = boot_shards("census", &table, &config, 2);
    let (proxies, addrs) = common::proxies(&shard_handles);
    let front = boot_front(&table, &config, &addrs, ServeConfig::default());
    let client = Client::new(front.addr());
    let sql = "SELECT * FROM census";
    let local = reference
        .explore_released(&parse_query(sql).unwrap())
        .unwrap();
    let mut first: Option<Json> = None;
    for _ in 0..10 {
        let reply = client.post_text("/distributed/explore", sql).unwrap();
        assert_eq!(reply.status, 200, "{:?}", reply.json());
        let maps = reply.json().unwrap().get("maps").unwrap().clone();
        let first = first.get_or_insert_with(|| maps.clone());
        assert_eq!(maps.encode(), first.encode(), "every reply is the first");
    }
    let top = first.unwrap().items().unwrap()[0]
        .get("score")
        .unwrap()
        .num();
    assert_eq!(top.map(f64::to_bits), Some(local.maps[0].score.to_bits()));
    let (json, text) = both_reports(&front);
    let report = json.get("distributed").unwrap().get("census").unwrap();
    assert_eq!(report.get("retries").unwrap().num(), Some(0.0));
    assert_eq!(report.get("fan_out").unwrap().num(), Some(2.0 + 10.0 * 4.0));
    for (proxy, addr) in proxies.iter().zip(&addrs) {
        assert_eq!(proxy.accepted(), 1, "one connection to {addr}");
        let shard = report.get("shards").unwrap().get(addr).unwrap();
        assert_eq!(shard.get("connects").unwrap().num(), Some(1.0), "{addr}");
        let labels = [("dataset", "census"), ("shard", addr.as_str())];
        let connects = text_value(&text, "atlas_distributed_shard_connects_total", &labels);
        assert_eq!(connects, 1.0);
    }
    front.shutdown();
    for handle in shard_handles {
        handle.shutdown();
    }
}

/// A shard hangs up an idle keep-alive connection after its idle timeout.
/// The next call finds it closed before sending on it and opens a new one:
/// the explore is bit-identical, nothing is retried, and every circuit stays
/// closed.
#[test]
fn keep_alive_connection_closed_by_the_shard_is_replaced_without_a_retry() {
    let table = census_table(4_000, 1_000);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let quick = ServeConfig {
        keep_alive: Duration::from_millis(50),
        ..ServeConfig::default().with_threads(2)
    };
    let shards: Vec<ServerHandle> = (0..2)
        .map(|_| boot_shard("census", &table, &config, quick.clone()))
        .collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let coordinator =
        Coordinator::connect(&addrs, "census", config, Duration::from_secs(10)).unwrap();
    let query = ConjunctiveQuery::all("census");
    let local = reference.explore_released(&query).unwrap();
    assert_identical(&local, &coordinator.explore(&query).unwrap());
    assert_eq!(
        coordinator.metrics().connects(),
        2,
        "one connection a shard"
    );

    // The shards check an idle connection every 150 ms: well past the 50 ms
    // idle timeout, both have hung up.
    std::thread::sleep(Duration::from_millis(500));
    assert_identical(&local, &coordinator.explore(&query).unwrap());
    assert_eq!(
        coordinator.metrics().connects(),
        4,
        "each shard's was replaced"
    );
    assert_eq!(coordinator.metrics().retries(), 0);
    for (_, state, opened) in coordinator.circuit_states() {
        assert_eq!((state, opened), (atlas::serve::CircuitState::Closed, 0));
    }
    for shard in shards {
        shard.shutdown();
    }
}

/// A shard with one worker, whose worker a coordinator's idle connection
/// holds, still answers another client promptly: the worker hangs up the
/// idle connection once another waits. The coordinator's next explore opens
/// a new connection without a retry, and no server answers `503`.
#[test]
fn keep_alive_one_worker_shard_still_serves_another_client() {
    let table = census_table(4_000, 1_000);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let shard = boot_shard(
        "census",
        &table,
        &config,
        ServeConfig::default().with_threads(1),
    );
    let addrs = vec![shard.addr().to_string()];
    let coordinator =
        Coordinator::connect(&addrs, "census", config, Duration::from_secs(10)).unwrap();
    let query = ConjunctiveQuery::all("census");
    let local = reference.explore_released(&query).unwrap();
    assert_identical(&local, &coordinator.explore(&query).unwrap());
    assert_eq!(coordinator.metrics().connects(), 1);

    let started = Instant::now();
    let health = Client::new(shard.addr()).get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "the held worker answered another client after {:?}",
        started.elapsed()
    );

    assert_identical(&local, &coordinator.explore(&query).unwrap());
    assert_eq!(coordinator.metrics().connects(), 2);
    assert_eq!(coordinator.metrics().retries(), 0);
    assert_eq!(shard.metrics().rejected(), 0, "no 503");
    shard.shutdown();
}

/// An attempt on a reused connection that times out drops the connection,
/// so the shard's late reply is never read as a later request's: the retry
/// opens a new connection and answers bit-identically, and so do the
/// explores that follow while the late reply lands.
#[test]
fn keep_alive_late_reply_is_never_read_as_the_next_reply() {
    let table = census_table(4_000, 1_000);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let (handles, _) = boot_shards("census", &table, &config, 2);
    let (proxies, addrs) = common::proxies(&handles);
    let coordinator =
        Coordinator::connect(&addrs, "census", config, Duration::from_millis(300)).unwrap();
    let query = ConjunctiveQuery::all("census");
    let local = reference.explore_released(&query).unwrap();
    assert_identical(&local, &coordinator.explore(&query).unwrap());

    // Shard 0's next `/shard/working` answers at 450 ms, on the reused
    // connection whose attempt gave up at 300 ms.
    proxies[0].arm(vec![Fault::Delay(450)]);
    assert_identical(&local, &coordinator.explore(&query).unwrap());
    assert_eq!(coordinator.metrics().retries(), 1);
    for _ in 0..3 {
        assert_identical(&local, &coordinator.explore(&query).unwrap());
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(coordinator.metrics().retries(), 1);
    assert_eq!(
        proxies[0].accepted(),
        2,
        "the retry's connection, reused since"
    );
    assert_eq!(proxies[1].accepted(), 1);
    assert_eq!(coordinator.metrics().connects(), 3);
    for handle in handles {
        handle.shutdown();
    }
}

/// The HTTP face of the coordinator: a front server started with
/// `shards: [...]` answers `POST /distributed/explore` with the same ranked
/// maps (score bits, region SQL, counts) as the in-process engine, and
/// `GET /metrics` exposes the scatter counters.
#[test]
fn distributed_explore_endpoint_matches_in_process() {
    let table = census_table(6_000, 1_500);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let (shard_handles, addrs) = boot_shards("census", &table, &config, 2);

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
    let mut serve_config = ServeConfig::default().with_threads(2);
    serve_config.shards = addrs.clone();
    serve_config.coordinator.shard_timeout = Duration::from_secs(10);
    let front = Server::start(registry, serve_config).unwrap();
    let client = Client::new(front.addr());

    let sql = "SELECT * FROM census WHERE age >= 30";
    let reply = client.post_text("/distributed/explore", sql).unwrap();
    assert_eq!(reply.status, 200, "{:?}", reply.json());
    let reply = reply.json().expect("JSON reply");
    let local = reference
        .explore_released(&parse_query(sql).unwrap())
        .unwrap();

    let maps = reply.get("maps").unwrap().items().unwrap();
    assert_eq!(maps.len(), local.num_maps());
    for (wire_map, ranked) in maps.iter().zip(local.maps.iter()) {
        let score = wire_map.get("score").unwrap().num().unwrap();
        assert_eq!(score.to_bits(), ranked.score.to_bits());
        let regions = wire_map.get("regions").unwrap().items().unwrap();
        assert_eq!(regions.len(), ranked.map.num_regions());
        for (wire_region, region) in regions.iter().zip(ranked.map.regions.iter()) {
            assert_eq!(
                wire_region.get("sql").unwrap().str().unwrap(),
                to_sql(&region.query)
            );
            assert_eq!(
                wire_region.get("count").unwrap().num().unwrap() as usize,
                region.count()
            );
        }
    }

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let body = metrics.json().expect("metrics are JSON").encode();
    assert!(body.contains("dist_explore"), "{body}");
    assert!(body.contains("fan_out"), "{body}");

    // A GET on the endpoint is a method error, not a crash.
    let wrong = client.get("/distributed/explore").unwrap();
    assert_eq!(wrong.status, 405);

    front.shutdown();
    for handle in shard_handles {
        handle.shutdown();
    }
}

/// Shards remember whole-segment answers (column summaries, category
/// counts) per dataset generation. Explore the whole table so they are
/// remembered, append a batch to every shard, reconnect, explore again: the
/// answer is the local engine's over the **extended** table — nothing
/// remembered for the old generation leaks into the new one, and the new
/// segments are served.
#[test]
fn whole_segment_answers_do_not_outlive_their_generation() {
    let table = census_table(6_000, 1_000);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let (handles, addrs) = boot_shards("census", &table, &config, 2);
    let whole = ConjunctiveQuery::all("census");
    let filtered = parse_query("SELECT * FROM census WHERE age BETWEEN 25 AND 60").unwrap();

    let before =
        Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(10)).unwrap();
    // Twice: the second pass is answered from what the first remembered.
    assert_agree(&reference, &before, &whole);
    assert_agree(&reference, &before, &whole);
    assert_agree(&reference, &before, &filtered);

    // The same header-less CSV batch goes to both shards …
    let batch = CensusGenerator::with_rows(900, 1234).generate();
    let mut csv = Vec::new();
    atlas::columnar::csv::write_csv(&batch, &mut csv).unwrap();
    let text = String::from_utf8(csv).unwrap();
    let body = text.split_once('\n').unwrap().1;
    for handle in &handles {
        let reply = Client::new(handle.addr())
            .request(
                "POST",
                "/datasets/census/rows",
                Some(("text/csv", body.as_bytes())),
            )
            .unwrap();
        assert_eq!(reply.status, 200, "{:?}", reply.body_text());
    }
    // … and through the same CSV path into the in-process engine.
    let options = atlas::columnar::csv::CsvOptions {
        has_header: false,
        ..atlas::columnar::csv::CsvOptions::default()
    };
    let parsed = atlas::columnar::csv::read_csv(
        "census",
        body.as_bytes(),
        Some(table.schema().clone()),
        &options,
    )
    .unwrap();
    let mut extended = reference;
    for segment in parsed.segments() {
        extended = extended.append(Arc::clone(segment)).unwrap();
    }
    assert_eq!(extended.table().num_rows(), 6_900);

    let after =
        Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(10)).unwrap();
    assert_eq!(after.generation(), before.generation() + 1);
    assert_eq!(after.num_rows(), 6_900);
    assert!(after.num_segments() > before.num_segments());
    assert_agree(&extended, &after, &whole);
    assert_agree(&extended, &after, &whole);
    assert_agree(&extended, &after, &filtered);

    for handle in handles {
        handle.shutdown();
    }
}

/// A working set that covers some segments entirely and cuts through others
/// folds remembered whole-segment summaries and freshly computed ones in one
/// pass — bit-identical to the local engine with the segments interleaved
/// across the shards (runs of one) or contiguous (one run a shard, folded
/// there), in strict mode and in degraded mode with one shard dropped.
#[test]
fn covered_and_cut_segments_fold_together() {
    // x runs −150..150 over six 50-row segments, so `x BETWEEN −75 AND 75`
    // misses segments 0 and 5, cuts through 1 and 4, and covers 2 and 3.
    let numeric: Vec<f64> = (0..300).map(|i| f64::from(i) - 150.0).collect();
    let table = build_table(&numeric, &[0, 1, 2, 3, 1, 0, 3], &[], 50);
    assert_eq!(table.num_segments(), 6);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let (mut handles, addrs) = boot_shards("t", &table, &config, 2);
    let coordinator = Coordinator::connect(&addrs, "t", config.clone(), Duration::from_secs(10))
        .unwrap()
        .with_assignment(vec![vec![0, 2, 4], vec![1, 3, 5]])
        .unwrap();

    let whole = ConjunctiveQuery::all("t");
    let band = ConjunctiveQuery::all("t").and(Predicate::range("x", -75.0, 75.0));
    // Cold (nothing remembered yet), then after a whole-table explore has
    // filled every segment's answers, then once more.
    assert_agree(&reference, &coordinator, &band);
    assert_agree(&reference, &coordinator, &whole);
    assert_agree(&reference, &coordinator, &band);
    assert_agree(&reference, &coordinator, &band);
    // The default contiguous assignment gives each shard one run holding a
    // missed, a cut and a covered segment, folded at the shard.
    let contiguous =
        Coordinator::connect(&addrs, "t", config.clone(), Duration::from_secs(10)).unwrap();
    assert_eq!(contiguous.assignment(), vec![vec![0, 1, 2], vec![3, 4, 5]]);
    for query in [&band, &whole, &band] {
        assert_agree(&reference, &contiguous, query);
    }

    // Drop shard 1: segments 0 (missed), 2 (covered) and 4 (cut) survive.
    handles.remove(1).shutdown();
    let survivors = Table::from_segments(
        "t",
        table.schema().clone(),
        [0, 2, 4]
            .iter()
            .map(|&s| Arc::clone(&table.segments()[s]))
            .collect(),
    )
    .unwrap();
    let local = Atlas::new(Arc::new(survivors), config)
        .unwrap()
        .explore_released(&band)
        .unwrap();
    let degraded = coordinator
        .explore_resilient(
            &band,
            ExploreMode::Degraded {
                max_failed_shards: 1,
            },
            None,
        )
        .unwrap();
    assert_eq!(degraded.coverage.missing_segments, vec![1, 3, 5]);
    assert_identical(&local, &degraded.result);

    for handle in handles {
        handle.shutdown();
    }
}

/// A child `atlas-serve` process that is killed when the test ends, pass or
/// panic.
struct ShardProcess {
    child: std::process::Child,
    addr: String,
    // Kept open so the child's later stderr writes never hit a closed pipe
    // (the few banner lines fit the pipe buffer comfortably).
    _stderr: std::io::BufReader<std::process::ChildStderr>,
}

impl Drop for ShardProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Locate (building if necessary) the `atlas-serve` binary next to the test
/// executable.
fn shard_binary() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    // target/<profile>/deps/distributed-<hash> → target/<profile>
    let dir = exe
        .parent()
        .and_then(std::path::Path::parent)
        .expect("target profile directory")
        .to_path_buf();
    let binary = dir.join(format!("atlas-serve{}", std::env::consts::EXE_SUFFIX));
    if !binary.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let mut build = std::process::Command::new(cargo);
        build.args(["build", "-p", "atlas-serve", "--bin", "atlas-serve"]);
        if dir.file_name().and_then(|n| n.to_str()) == Some("release") {
            build.arg("--release");
        }
        let status = build.status().expect("cargo build atlas-serve");
        assert!(status.success(), "building atlas-serve failed");
    }
    binary
}

/// Spawn one `atlas-serve` shard process on an ephemeral port and parse the
/// bound address off its startup banner.
fn spawn_shard(binary: &std::path::Path, spec: &str, segment_rows: usize) -> ShardProcess {
    use std::io::BufRead;
    let mut child = std::process::Command::new(binary)
        .args([
            "--port",
            "0",
            "--dataset",
            spec,
            "--threads",
            "2",
            "--cache",
            "0",
        ])
        .env("ATLAS_SEGMENT_ROWS", segment_rows.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn atlas-serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = std::io::BufReader::new(stderr);
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        if let Some(rest) = line.split("listening on http://").nth(1) {
            addr = rest.split_whitespace().next().map(String::from);
            break;
        }
        line.clear();
    }
    let addr = addr.unwrap_or_else(|| {
        let _ = child.kill();
        panic!("atlas-serve printed no listening banner");
    });
    ShardProcess {
        child,
        addr,
        _stderr: reader,
    }
}

/// The end-to-end deployment shape: three real `atlas-serve` processes each
/// regenerate `census:20000` (same spec, same seed, same segment layout via
/// `ATLAS_SEGMENT_ROWS`), the coordinator scatters over real sockets, and
/// the answer is bit-identical to the in-process engine. Killing one
/// process turns the next explore into a typed `Distributed` error.
#[test]
fn process_shards_match_and_their_death_is_detected() {
    let binary = shard_binary();
    let shards: Vec<ShardProcess> = (0..3)
        .map(|_| spawn_shard(&binary, "census:20000", 4_096))
        .collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();

    let table = census_table(20_000, 4_096);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let coordinator =
        Coordinator::connect(&addrs, "census", config, Duration::from_secs(30)).unwrap();
    assert_eq!(coordinator.num_rows(), 20_000);
    assert_eq!(coordinator.num_segments(), 5);

    assert_agree(&reference, &coordinator, &ConjunctiveQuery::all("census"));
    let drill = parse_query("SELECT * FROM census WHERE hours_per_week >= 30").unwrap();
    assert_agree(&reference, &coordinator, &drill);

    // One shard process dies (the other two stay up); the very next
    // explore reports it by address.
    let mut shards = shards;
    let mut victim = shards.remove(0);
    victim.child.kill().unwrap();
    victim.child.wait().unwrap();
    let error = coordinator
        .explore(&ConjunctiveQuery::all("census"))
        .unwrap_err();
    match error {
        AtlasError::Distributed(message) => {
            assert!(message.contains("shard"), "unhelpful error: {message}")
        }
        other => panic!("expected a Distributed error, got {other:?}"),
    }
}

/// The census plus one more column, `extra`, holding `value_of(row)`.
fn census_with_a_column(
    rows: usize,
    segment_rows: usize,
    extra: Field,
    value_of: impl Fn(usize) -> Value,
) -> Arc<Table> {
    let census = census_table(rows, segment_rows);
    let mut fields = census.schema().fields().to_vec();
    fields.push(extra);
    let mut builder =
        TableBuilder::new("census", Schema::new(fields).unwrap()).with_segment_rows(segment_rows);
    for row in 0..census.num_rows() {
        let mut values = census.row(row).unwrap();
        values.push(value_of(row));
        builder.push_row(&values).unwrap();
    }
    Arc::new(builder.build().unwrap())
}

/// The census plus `reading`, a float column with a different value in every
/// row — more distinct values than a column summary counts.
fn census_with_a_near_unique_column(rows: usize, segment_rows: usize) -> Arc<Table> {
    census_with_a_column(
        rows,
        segment_rows,
        Field::new("reading", DataType::Float),
        |row| Value::Float((row * 7919 % rows) as f64 * 0.37 - 400.0),
    )
}

/// The census plus `insured`: true for most `>50k` rows and few `<50k` ones,
/// NULL in every 97th row.
fn census_with_a_flag(rows: usize, segment_rows: usize) -> Arc<Table> {
    let census = census_table(rows, segment_rows);
    let salary = census.column("salary").unwrap();
    census_with_a_column(
        rows,
        segment_rows,
        Field::nullable("insured", DataType::Bool),
        |row| {
            let rich = salary.value(row) == Value::Str(">50k".into());
            let insured = if rich { row % 7 != 0 } else { row % 5 == 0 };
            if row % 97 == 0 {
                Value::Null
            } else {
                Value::Bool(insured)
            }
        },
    )
}

/// A boolean column is partitioned, counted and summarised on the shards
/// like any other coded column: with `insured` in the table, 1–3 shards are
/// bit-identical to the local engine — whole table, a filter, a filter on
/// the boolean itself, and a drill into the first region.
#[test]
fn a_boolean_column_is_bit_identical_at_1_2_3_shards() {
    let table = census_with_a_flag(6_000, 1_000);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let whole = ConjunctiveQuery::all("census");
    let local = reference.explore_released(&whole).unwrap();
    let cuts_insured = local
        .maps
        .iter()
        .any(|ranked| ranked.map.source_attributes.iter().any(|a| a == "insured"));
    assert!(cuts_insured, "insured must have been cut");
    let drill = local.maps[0].map.regions[0].query.clone();
    let queries = [
        whole,
        parse_query("SELECT * FROM census WHERE age BETWEEN 25 AND 60").unwrap(),
        parse_query("SELECT * FROM census WHERE insured IN ('FALSE')").unwrap(),
        drill,
    ];
    for shards in 1..=3 {
        let (handles, addrs) = boot_shards("census", &table, &config, shards);
        let coordinator =
            Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(30))
                .unwrap();
        for query in &queries {
            assert_agree(&reference, &coordinator, query);
        }
        for handle in handles {
            handle.shutdown();
        }
    }
}

/// The census plus `cohort`: `"x"` for seven in eight of one sex's rows,
/// `"y"` for every other row. Its cut refines nothing but splits one side of
/// the `sex` cut, so the two cluster, and their product has an empty region.
fn census_with_a_cohort(rows: usize, segment_rows: usize) -> Arc<Table> {
    let census = census_table(rows, segment_rows);
    let sex = census.column("sex").unwrap();
    let first = sex.value(0);
    census_with_a_column(
        rows,
        segment_rows,
        Field::new("cohort", DataType::Str),
        |row| {
            let x = sex.value(row) == first && row % 8 != 0;
            Value::Str(if x { "x" } else { "y" }.into())
        },
    )
}

/// The configuration the shared cluster–merge–rank body reads — `max_maps`,
/// `drop_empty_regions` and `distance` — holds at the coordinator as in the
/// engine: with two maps at most, empty regions kept and the plain
/// Variation of Information, 1–3 shards are bit-identical to the local
/// answer, which is truncated and keeps the empty cell of `sex × cohort`.
#[test]
fn the_post_cut_configuration_is_bit_identical_at_1_2_3_shards() {
    let table = census_with_a_cohort(6_000, 1_000);
    let config = AtlasConfig {
        max_maps: 2,
        drop_empty_regions: false,
        distance: MapDistanceMetric::VariationOfInformation,
        ..product_config()
    };
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let query = parse_query("SELECT * FROM census WHERE hours_per_week BETWEEN 20 AND 60").unwrap();
    let local = reference.explore_released(&query).unwrap();
    assert_eq!(local.num_maps(), 2);
    let untruncated = AtlasConfig {
        max_maps: 10,
        ..config.clone()
    };
    let all = Atlas::new(Arc::clone(&table), untruncated).unwrap();
    assert!(
        all.explore_released(&query).unwrap().num_maps() > 2,
        "max_maps truncates"
    );
    let mut regions = local.maps.iter().flat_map(|m| &m.map.regions);
    assert!(regions.any(|r| r.is_empty()), "an empty region is kept");
    for shards in 1..=3 {
        let (handles, addrs) = boot_shards("census", &table, &config, shards);
        let coordinator =
            Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(30))
                .unwrap();
        assert_identical(&local, &coordinator.explore(&query).unwrap());
        for handle in handles {
            handle.shutdown();
        }
    }
}

/// How many requests the shards have served so far on the endpoint that
/// reports as `label` (`requests_by_endpoint.<label>` of each shard's
/// self-report, summed).
fn endpoint_requests(shards: &[ServerHandle], label: &str) -> u64 {
    shards
        .iter()
        .map(|shard| {
            let by_endpoint = shard.metrics().snapshot(Vec::new());
            let count = by_endpoint
                .get("requests_by_endpoint")
                .and_then(|counts| counts.get(label))
                .and_then(Json::num)
                .expect("endpoint counter");
            count as u64
        })
        .sum()
}

/// A median cut of a counted column reads its split off the folded value
/// counts, so the default (`Median`) configuration explores the census over
/// two shards — strict and degraded, bit-identical to the local engine —
/// without one `/shard/values` round; a column with too many distinct values
/// to count still ships its values, once per cut.
#[test]
fn counted_columns_are_cut_without_shipping_their_values() {
    let table = census_with_a_near_unique_column(6_000, 1_000);
    assert_eq!(table.num_segments(), 6);
    let every_column = product_config();
    assert_eq!(every_column.cut.numeric, NumericCutStrategy::Median);
    let census_columns = AtlasConfig {
        attributes: Some(
            CensusGenerator::schema()
                .fields()
                .iter()
                .map(|field| field.name.clone())
                .collect(),
        ),
        ..product_config()
    };
    let (mut handles, addrs) = boot_shards("census", &table, &every_column, 2);
    let connect = |config: &AtlasConfig| {
        Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(10))
            .unwrap()
            .with_assignment(vec![vec![0, 2, 4], vec![1, 3, 5]])
            .unwrap()
    };
    let whole = ConjunctiveQuery::all("census");
    let filtered = parse_query("SELECT * FROM census WHERE age >= 30").unwrap();

    // age, hours_per_week, height_cm (and the categorical columns): no
    // values cross the wire, whole table or subset.
    let reference = Atlas::new(Arc::clone(&table), census_columns.clone()).unwrap();
    let coordinator = connect(&census_columns);
    for query in [&whole, &filtered] {
        let local = reference.explore_released(query).unwrap();
        for attribute in ["age", "hours_per_week", "height_cm"] {
            assert!(
                local.maps.iter().any(|ranked| ranked
                    .map
                    .source_attributes
                    .iter()
                    .any(|a| a == attribute)),
                "{attribute} must have been cut"
            );
        }
        assert_identical(&local, &coordinator.explore(query).unwrap());
    }
    assert_eq!(endpoint_requests(&handles, "shard_values"), 0);

    // With `reading` in play its cut — and only its cut — fetches values:
    // one round to each of the two shards per explore.
    let reference = Atlas::new(Arc::clone(&table), every_column.clone()).unwrap();
    let with_reading = connect(&every_column);
    for query in [&whole, &filtered] {
        assert_agree(&reference, &with_reading, query);
    }
    assert_eq!(endpoint_requests(&handles, "shard_values"), 4);

    // Degraded: shard 1 is gone, the surviving segments fold as a table of
    // their own, still without a values round.
    handles.remove(1).shutdown();
    let survivors = Table::from_segments(
        "census",
        table.schema().clone(),
        [0, 2, 4]
            .iter()
            .map(|&s| Arc::clone(&table.segments()[s]))
            .collect(),
    )
    .unwrap();
    let local = Atlas::new(Arc::new(survivors), census_columns)
        .unwrap()
        .explore_released(&filtered)
        .unwrap();
    let degraded = coordinator
        .explore_resilient(
            &filtered,
            ExploreMode::Degraded {
                max_failed_shards: 1,
            },
            None,
        )
        .unwrap();
    assert_eq!(degraded.coverage.missing_segments, vec![1, 3, 5]);
    assert_identical(&local, &degraded.result);
    assert_eq!(
        endpoint_requests(&handles, "shard_values"),
        2,
        "shard 0's two rounds for `reading`"
    );

    for handle in handles {
        handle.shutdown();
    }
}

/// Boot a front server over `addrs` that also serves `table` itself (with a
/// small result cache, so session steps move those counters too).
fn boot_front(
    table: &Arc<Table>,
    config: &AtlasConfig,
    addrs: &[String],
    mut serve_config: ServeConfig,
) -> ServerHandle {
    let mut registry = Registry::new();
    registry
        .add_table(
            "census",
            Arc::clone(table),
            DatasetOptions {
                config: config.clone(),
                cache_capacity: 8,
            },
        )
        .unwrap();
    serve_config.shards = addrs.to_vec();
    Server::start(registry, serve_config.with_threads(2)).unwrap()
}

/// Both `/metrics` formats of one server: the JSON report and the Prometheus
/// text exposition.
fn both_reports(front: &ServerHandle) -> (Json, String) {
    let json = Client::new(front.addr())
        .get("/metrics")
        .unwrap()
        .json()
        .expect("the default /metrics is JSON");
    let text = Client::new(front.addr())
        .with_header("Accept", "text/plain")
        .get("/metrics")
        .unwrap();
    assert_eq!(text.status, 200);
    (json, text.body_text().unwrap().to_string())
}

/// The value of the one text sample `family{labels…}`.
fn text_value(text: &str, family: &str, labels: &[(&str, &str)]) -> f64 {
    let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    let prefix = format!("{family}{{{}}} ", labels.join(","));
    text.lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{text}"))
        .parse()
        .unwrap()
}

/// The text exposition is not a subset of the JSON report: after one
/// distributed explore and one session step, every number of the JSON
/// `sessions`, `result_cache`, `distributed` and `profile_cache` sections is
/// a sample of an `atlas_<section>…` family in the text body.
#[test]
fn every_number_of_the_json_report_is_in_the_text_exposition() {
    let table = census_table(6_000, 1_500);
    let config = product_config();
    let (shard_handles, addrs) = boot_shards("census", &table, &config, 2);
    let front = boot_front(&table, &config, &addrs, ServeConfig::default());
    let client = Client::new(front.addr());
    let sql = "SELECT * FROM census WHERE age >= 30";
    assert_eq!(
        client
            .post_text("/distributed/explore", sql)
            .unwrap()
            .status,
        200
    );
    let token = client.create_session("census").unwrap();
    let step = client
        .post_text(&format!("/sessions/{token}/explore"), sql)
        .unwrap();
    assert_eq!(step.status, 200);

    fn numbers(json: &Json, path: &mut Vec<String>, out: &mut Vec<(Vec<String>, f64)>) {
        if let Some(members) = json.entries() {
            for (key, inner) in members {
                path.push(key.clone());
                numbers(inner, path, out);
                path.pop();
            }
        } else if let Some(value) = json.num() {
            out.push((path.clone(), value));
        }
    }
    // The two formats name things by their own conventions (`hits` vs
    // `outcome="hit"`, `shards.<addr>` vs `shard="<addr>"`), so a JSON
    // number is matched to the sample line that carries every name on its
    // path, singular or plural, in the family name or as a label value.
    let stem = |key: &str| -> String {
        key.strip_suffix("es")
            .or_else(|| key.strip_suffix('s'))
            .unwrap_or(key)
            .to_string()
    };
    let (json, text) = both_reports(&front);
    for section in ["sessions", "result_cache", "distributed", "profile_cache"] {
        let mut found = Vec::new();
        numbers(
            json.get(section).expect(section),
            &mut Vec::new(),
            &mut found,
        );
        assert!(!found.is_empty(), "{section} reports numbers");
        for (path, value) in found {
            let reported = text.lines().any(|line| {
                line.starts_with(&format!("atlas_{section}"))
                    && path.iter().all(|key| line.contains(&stem(key)))
                    && line
                        .rsplit(' ')
                        .next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .is_some_and(|v| v == value)
            });
            assert!(
                reported,
                "{section}.{} = {value} is missing from:\n{text}",
                path.join(".")
            );
        }
    }
    let census = |section: &str, key: &str| {
        let leaf = json.get(section)?.get("census")?.get(key)?;
        leaf.num()
    };
    assert!(census("distributed", "fan_out").unwrap() > 0.0);
    assert_eq!(census("result_cache", "misses"), Some(1.0));
    assert_eq!(
        json.get("sessions").unwrap().get("live").unwrap().num(),
        Some(1.0)
    );

    front.shutdown();
    for handle in shard_handles {
        handle.shutdown();
    }
}

/// Name the broken shard from the server's own report: once a killed shard
/// has opened its circuit, `/metrics` (both formats) and `/healthz` show the
/// open circuit under that shard's address, the calls skipped because of it,
/// and the traffic the healthy shard answered.
#[test]
fn an_open_circuit_shows_in_metrics_and_healthz() {
    let table = census_table(4_000, 1_000);
    let config = product_config();
    let (shard_handles, _) = boot_shards("census", &table, &config, 2);
    let (proxies, addrs) = common::proxies(&shard_handles);
    let mut serve_config = ServeConfig::default();
    serve_config.coordinator.circuit = atlas::serve::CircuitConfig {
        failure_threshold: 1,
        cool_down: Duration::from_secs(60),
    };
    let front = boot_front(&table, &config, &addrs, serve_config);
    let client = Client::new(front.addr());
    let explore = || {
        client
            .post_text("/distributed/explore", "SELECT * FROM census")
            .unwrap()
    };
    assert_eq!(explore().status, 200, "the healthy explore connects");

    // Kill shard 1 (its proxy hangs up on everything until re-armed), then
    // explore until its circuit is open and a call has been refused because
    // of it.
    proxies[1].arm(vec![Fault::Kill]);
    let (healthy, broken) = (addrs[0].as_str(), addrs[1].as_str());
    let mut refused = false;
    for _ in 0..5 {
        let reply = explore();
        assert_eq!(reply.status, 500);
        if reply.json().unwrap().encode().contains("circuit open") {
            refused = true;
            break;
        }
    }
    assert!(refused, "the open circuit refuses the shard up front");

    let (json, text) = both_reports(&front);
    let report = json.get("distributed").unwrap().get("census").unwrap();
    let number = |json: &Json, path: &[&str]| {
        path.iter()
            .try_fold(json, |at, key| at.get(key))
            .and_then(Json::num)
            .unwrap_or_else(|| panic!("{path:?} is a number of {}", json.encode()))
    };
    let circuit = report.get("circuits").unwrap().get(broken).unwrap();
    assert_eq!(circuit.get("state").unwrap().str(), Some("open"));
    assert_eq!(number(circuit, &["opened_total"]), 1.0);
    let intact = report.get("circuits").unwrap().get(healthy).unwrap();
    assert_eq!(intact.get("state").unwrap().str(), Some("closed"));
    assert_eq!(number(report, &["circuit_open_total"]), 1.0);
    assert!(number(report, &["skipped_open_circuit"]) >= 1.0);
    assert!(number(report, &["shards", healthy, "requests"]) > 0.0);
    assert!(number(report, &["shards", healthy, "max_ms"]) > 0.0);
    assert!(
        number(report, &["shards", healthy, "mean_ms"])
            <= number(report, &["shards", healthy, "max_ms"])
    );

    let labels = |shard| [("dataset", "census"), ("shard", shard)];
    let mut open = labels(broken).to_vec();
    open.push(("state", "open"));
    assert_eq!(
        text_value(&text, "atlas_distributed_circuit_state", &open),
        1.0
    );
    assert_eq!(
        text_value(
            &text,
            "atlas_distributed_circuit_opened_total",
            &labels(broken)
        ),
        1.0
    );
    assert!(
        text_value(
            &text,
            "atlas_distributed_skipped_open_circuit_total",
            &[("dataset", "census")]
        ) >= 1.0
    );
    assert!(
        text_value(
            &text,
            "atlas_distributed_shard_requests_total",
            &labels(healthy)
        ) > 0.0
    );

    let health = client.get("/healthz").unwrap().json().unwrap();
    let circuits = health.get("circuits").unwrap().get("census").unwrap();
    let circuit = circuits.get(broken).unwrap();
    assert_eq!(circuit.get("state").unwrap().str(), Some("open"));
    assert_eq!(number(circuit, &["opened_total"]), 1.0);
    let intact = circuits.get(healthy).unwrap();
    assert_eq!(intact.get("state").unwrap().str(), Some("closed"));

    front.shutdown();
    for handle in shard_handles {
        handle.shutdown();
    }
}

/// How many segment-local working sets the shards `(evaluated, reused)` so
/// far, summed over their `GET /metrics` reports.
fn working_set_counts(shards: &[ServerHandle]) -> (u64, u64) {
    let mut totals = (0, 0);
    for shard in shards {
        let report = Client::new(shard.addr())
            .get("/metrics")
            .unwrap()
            .json()
            .expect("the default /metrics is JSON");
        let count = |key: &str| {
            report
                .get("shard")
                .and_then(|shard| shard.get("working_sets"))
                .and_then(|sets| sets.get(key))
                .and_then(Json::num)
                .unwrap_or_else(|| panic!("no shard.working_sets.{key} in {}", report.encode()))
                as u64
        };
        totals.0 += count("evaluated");
        totals.1 += count("reused");
    }
    totals
}

/// The shard calls of `coordinator` so far that carried a working set: all
/// of them but the metadata probe `connect` sent each shard.
fn working_set_calls(coordinator: &Coordinator) -> u64 {
    coordinator.metrics().fan_out() - coordinator.assignment().len() as u64
}

/// A shard evaluates the working set of an explore once per segment — on the
/// first call that carries its SQL — and every later call of the explore
/// finds the rows remembered. One filtered explore over 2 shards × 2 segments
/// of the census: 2 calls to each shard (`/shard/working`, which carries the
/// summaries too, and one `/shard/select` carrying the partitions of all 7
/// cut columns — the categorical cuts read their counts off the summaries,
/// so `/shard/categories` is not among them), 4 evaluations, 4 reuses, read
/// from the shards' own `/metrics` in both formats.
#[test]
fn a_shard_evaluates_a_working_set_once_per_segment_per_explore() {
    let table = census_table(4_000, 1_000);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let (handles, addrs) = boot_shards("census", &table, &config, 2);
    let coordinator =
        Coordinator::connect(&addrs, "census", config, Duration::from_secs(10)).unwrap();
    assert_eq!(coordinator.assignment(), vec![vec![0, 1], vec![2, 3]]);
    assert_eq!(working_set_counts(&handles), (0, 0));

    let filtered = parse_query("SELECT * FROM census WHERE age BETWEEN 25 AND 60").unwrap();
    assert_agree(&reference, &coordinator, &filtered);
    let calls_per_shard = working_set_calls(&coordinator) / 2;
    assert_eq!(
        calls_per_shard, 2,
        "working (summaries inside) + one select"
    );
    assert_eq!(working_set_counts(&handles), (4, 4 * (calls_per_shard - 1)));
    assert_eq!(
        endpoint_requests(&handles, "shard_categories"),
        0,
        "no counted column asks for its categories"
    );

    // The same explore again finds every segment's rows on its first call
    // too; another SQL takes their place.
    assert_agree(&reference, &coordinator, &filtered);
    assert_eq!(
        working_set_counts(&handles),
        (4, 4 * (2 * calls_per_shard - 1))
    );
    assert_agree(&reference, &coordinator, &ConjunctiveQuery::all("census"));
    assert_agree(&reference, &coordinator, &filtered);
    let calls = working_set_calls(&coordinator) / 2;
    assert_eq!(calls, 4 * calls_per_shard);
    assert_eq!(working_set_counts(&handles), (12, 4 * calls - 12));

    let (json, text) = both_reports(&handles[0]);
    let sets = json.get("shard").unwrap().get("working_sets").unwrap();
    assert_eq!(sets.get("evaluated").unwrap().num(), Some(6.0));
    for outcome in ["evaluated", "reused"] {
        assert_eq!(
            text_value(
                &text,
                "atlas_shard_working_sets_total",
                &[("outcome", outcome)]
            ),
            sets.get(outcome).unwrap().num().unwrap()
        );
    }

    for handle in handles {
        handle.shutdown();
    }
}

/// Append `batch` to every shard's `census` through `POST /datasets/:name/rows`
/// and, through the same CSV path, to the in-process engine.
fn append_everywhere(handles: &[ServerHandle], reference: Atlas, batch: &Table) -> Atlas {
    let mut csv = Vec::new();
    atlas::columnar::csv::write_csv(batch, &mut csv).unwrap();
    let text = String::from_utf8(csv).unwrap();
    let body = text.split_once('\n').unwrap().1;
    for handle in handles {
        let reply = Client::new(handle.addr())
            .request(
                "POST",
                "/datasets/census/rows",
                Some(("text/csv", body.as_bytes())),
            )
            .unwrap();
        assert_eq!(reply.status, 200, "{:?}", reply.body_text());
    }
    let options = atlas::columnar::csv::CsvOptions {
        has_header: false,
        ..atlas::columnar::csv::CsvOptions::default()
    };
    let schema = reference.table().schema().clone();
    let parsed =
        atlas::columnar::csv::read_csv("census", body.as_bytes(), Some(schema), &options).unwrap();
    let mut extended = reference;
    for segment in parsed.segments() {
        extended = extended.append(Arc::clone(segment)).unwrap();
    }
    extended
}

/// The remembered working set dies with its generation. Explore a filter,
/// append rows that match it to every shard, reconnect and explore the *same
/// SQL* again: the answer is the local engine's over the appended table — the
/// new rows are in it — and the shards evaluated every segment of the new
/// generation afresh instead of answering from what the old one remembered.
#[test]
fn a_remembered_working_set_does_not_outlive_its_generation() {
    let table = census_table(6_000, 1_000);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let (handles, addrs) = boot_shards("census", &table, &config, 2);
    let filtered = parse_query("SELECT * FROM census WHERE age BETWEEN 25 AND 60").unwrap();

    let before =
        Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(10)).unwrap();
    assert_agree(&reference, &before, &filtered);
    let matched_before = reference
        .explore_released(&filtered)
        .unwrap()
        .working_set_size;
    let (evaluated, reused) = working_set_counts(&handles);
    assert_eq!(evaluated, 6, "one evaluation per segment");
    assert!(reused > 0, "the later rounds found the rows remembered");

    let batch = CensusGenerator::with_rows(900, 1234).generate();
    let extended = append_everywhere(&handles, reference, &batch);
    let after =
        Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(10)).unwrap();
    assert_eq!(after.generation(), before.generation() + 1);
    assert_eq!(after.num_segments(), 7);
    let local = extended.explore_released(&filtered).unwrap();
    assert!(
        local.working_set_size > matched_before,
        "appended rows match the filter"
    );
    assert_identical(&local, &after.explore(&filtered).unwrap());
    assert_eq!(
        working_set_counts(&handles).0,
        evaluated + 7,
        "every view of the new generation evaluates once"
    );

    for handle in handles {
        handle.shutdown();
    }
}

/// One remembered working set per segment, two explorers: two coordinators on
/// two threads explore *different* SQL against the same two shards, starting
/// each of 20 rounds together, so the calls of one keep replacing what the
/// other's left behind. Every reply is bit-identical to the local engine — an
/// entry is only ever returned for the text it was evaluated from — and the
/// shards account for every segment of every call as evaluated or reused.
#[test]
fn interleaved_explores_of_different_sql_stay_correct() {
    let table = census_table(6_000, 1_000);
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let (handles, addrs) = boot_shards("census", &table, &config, 2);
    let queries = [
        "SELECT * FROM census WHERE age BETWEEN 25 AND 60",
        "SELECT * FROM census WHERE hours_per_week >= 30 AND sex = 'Female'",
    ];
    let start = std::sync::Barrier::new(queries.len());
    let calls: u64 = std::thread::scope(|scope| {
        let explorers: Vec<_> = queries
            .iter()
            .map(|sql| {
                let (reference, addrs, config, start) = (&reference, &addrs, &config, &start);
                scope.spawn(move || {
                    let query = parse_query(sql).unwrap();
                    let expected = reference.explore_released(&query).unwrap();
                    let coordinator = Coordinator::connect(
                        addrs,
                        "census",
                        config.clone(),
                        Duration::from_secs(10),
                    )
                    .unwrap();
                    for _ in 0..20 {
                        start.wait();
                        assert_identical(&expected, &coordinator.explore(&query).unwrap());
                    }
                    assert_eq!(coordinator.metrics().retries(), 0);
                    working_set_calls(&coordinator)
                })
            })
            .collect();
        explorers
            .into_iter()
            .map(|explorer| explorer.join().expect("an explorer panicked"))
            .sum()
    });

    // Three segments per shard, each evaluated at least once per SQL.
    let (evaluated, reused) = working_set_counts(&handles);
    assert_eq!(evaluated + reused, 3 * calls);
    assert!(evaluated >= 2 * 6, "{evaluated} evaluations");

    for handle in handles {
        handle.shutdown();
    }
}

/// A categorical cut costs no round trip of its own: the folded summaries
/// carry every category's count, in first-appearance order, so the cut asks
/// no shard for the counts or the dictionary. Whole-table, filtered and
/// drill queries over two shards are bit-identical to the local engine, and
/// each explore calls a shard once for the working set and its summaries and
/// once for the partitions of every column it cuts.
#[test]
fn categorical_cuts_make_no_round_trip_of_their_own() {
    let table = census_table(6_000, 1_000);
    let (handles, addrs) = boot_shards("census", &table, &product_config(), 2);
    let queries = [
        "SELECT * FROM census",
        "SELECT * FROM census WHERE age BETWEEN 25 AND 60",
        "SELECT * FROM census WHERE age BETWEEN 25 AND 60 AND education IN ('MSc', 'PhD')",
    ];
    let config = product_config();
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let coordinator =
        Coordinator::connect(&addrs, "census", config, Duration::from_secs(10)).unwrap();
    for sql in queries {
        let query = parse_query(sql).unwrap();
        let before = coordinator.metrics().fan_out();
        let local = reference.explore_released(&query).unwrap();
        assert_identical(&local, &coordinator.explore(&query).unwrap());
        let partitioned = table.num_columns() - local.skipped_attributes.len();
        assert!(partitioned >= 5, "{sql}: {:?}", local.skipped_attributes);
        assert_eq!(coordinator.metrics().fan_out() - before, 2 * 2, "{sql}");
    }
    assert_eq!(endpoint_requests(&handles, "shard_categories"), 0);

    for handle in handles {
        handle.shutdown();
    }
}

/// A NaN cell is a value no range region holds (the kernels test `x ∈ [lo,
/// hi]`), so it moves no split: under every numeric strategy a float column
/// cuts exactly as it does with those cells NULL — counted (`level`, 40
/// values) or with too many values to count (`reading`) — and 1–3 shards
/// agree with the local engine, whole table and filtered.
#[test]
fn nan_cells_move_no_split() {
    type Values = fn(usize) -> f64;
    let columns: [(&str, Values); 2] = [
        ("level", |row| (row % 40) as f64),
        ("reading", |row| (row * 7919 % 3_000) as f64 * 0.37),
    ];
    let filter = parse_query("SELECT * FROM census WHERE age BETWEEN 25 AND 60").unwrap();
    for (name, value) in columns {
        let with = |missing: Value| {
            let field = Field::nullable(name, DataType::Float);
            census_with_a_column(3_000, 1_000, field, move |row| {
                if row % 3 == 0 {
                    missing.clone()
                } else {
                    Value::Float(value(row))
                }
            })
        };
        let (nan, null) = (with(Value::Float(f64::NAN)), with(Value::Null));
        let strategies = [
            NumericCutStrategy::Median,
            NumericCutStrategy::EquiWidth,
            NumericCutStrategy::KMeans { max_iterations: 50 },
        ];
        for numeric in strategies {
            let cut = CutConfig {
                numeric,
                ..CutConfig::default()
            };
            let regions = |table: &Table| {
                let all = ConjunctiveQuery::all("census");
                let map = atlas::core::cut::cut_attribute(
                    table,
                    &table.full_selection(),
                    &all,
                    name,
                    &cut,
                )
                .unwrap()
                .unwrap_or_else(|| panic!("{name} is not cut under {numeric:?}"));
                let regions = map.regions.iter();
                regions
                    .map(|region| (to_sql(&region.query), region.count()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(regions(&nan), regions(&null), "{name}, {numeric:?}");
        }
        for shards in 1..=3 {
            let (handles, addrs) = boot_shards("census", &nan, &product_config(), shards);
            for numeric in strategies {
                let mut config = product_config();
                config.cut.numeric = numeric;
                let reference = Atlas::new(Arc::clone(&nan), config.clone()).unwrap();
                let coordinator =
                    Coordinator::connect(&addrs, "census", config, Duration::from_secs(10))
                        .unwrap();
                assert_agree(&reference, &coordinator, &ConjunctiveQuery::all("census"));
                assert_agree(&reference, &coordinator, &filter);
            }
            for handle in handles {
                handle.shutdown();
            }
        }
    }
}

/// An explore that plans no cut asks for no partition: over two shards it
/// makes the working-set round (summaries inside) only, and fails like the
/// local engine, with nothing to cut.
#[test]
fn an_explore_that_cuts_nothing_makes_one_round() {
    let table = census_table(4_000, 1_000);
    let config = AtlasConfig {
        attributes: Some(vec!["sex".to_string()]),
        ..product_config()
    };
    let (handles, addrs) = boot_shards("census", &table, &config, 2);
    let coordinator =
        Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(10)).unwrap();
    let men = parse_query("SELECT * FROM census WHERE sex IN ('Male')").unwrap();
    let local = Atlas::new(Arc::clone(&table), config)
        .unwrap()
        .explore_released(&men)
        .unwrap_err();
    assert!(matches!(local, AtlasError::NoCuttableAttributes), "{local}");
    let before = coordinator.metrics().fan_out();
    let remote = coordinator.explore(&men).unwrap_err();
    assert!(
        matches!(remote, AtlasError::NoCuttableAttributes),
        "{remote}"
    );
    assert_eq!(coordinator.metrics().fan_out() - before, 2);
    assert_eq!(endpoint_requests(&handles, "shard_select"), 0);
    handles.into_iter().for_each(ServerHandle::shutdown);
}

/// A query that selects no row fails like the local engine, with an empty
/// working set, after the one round that found it empty: one call per shard
/// and no `/shard/select`, at 1–3 shards, strict and degraded.
#[test]
fn an_empty_working_set_makes_one_round_and_fails_like_the_local_engine() {
    let table = census_table(4_000, 1_000);
    let config = product_config();
    let nobody = parse_query("SELECT * FROM census WHERE age BETWEEN 200 AND 300").unwrap();
    let local = Atlas::new(Arc::clone(&table), config.clone())
        .unwrap()
        .explore_released(&nobody)
        .unwrap_err();
    assert!(matches!(local, AtlasError::EmptyWorkingSet), "{local}");
    for shards in 1..=3usize {
        let (handles, addrs) = boot_shards("census", &table, &config, shards);
        let coordinator =
            Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(10))
                .unwrap();
        for mode in [
            ExploreMode::Strict,
            ExploreMode::Degraded {
                max_failed_shards: 1,
            },
        ] {
            let before = coordinator.metrics().fan_out();
            let remote = coordinator
                .explore_resilient(&nobody, mode, None)
                .unwrap_err();
            assert!(
                matches!(remote, AtlasError::EmptyWorkingSet),
                "{shards} shards, {mode:?}: {remote}"
            );
            assert_eq!(
                coordinator.metrics().fan_out() - before,
                shards as u64,
                "{shards} shards, {mode:?}"
            );
        }
        assert_eq!(endpoint_requests(&handles, "shard_select"), 0);
        handles.into_iter().for_each(ServerHandle::shutdown);
    }
}

/// The census plus `city`, a string column of 1 500 distinct values (four
/// rows each) — more than a column summary counts, few enough per row that
/// it is no identifier.
fn census_with_a_wide_string_column(rows: usize, segment_rows: usize) -> Arc<Table> {
    census_with_a_column(
        rows,
        segment_rows,
        Field::new("city", DataType::Str),
        |row| Value::Str(format!("city{:04}", row * 7 % 1_500)),
    )
}

/// The fallback a categorical cut keeps for a column past the counter: its
/// statistics carry no category counts, so the cut asks the source for them
/// — one `/shard/categories` round, whose zero-inclusive first-appearance
/// counts are the ranking and its tie-break both. The whole table holds more
/// values than a cut takes (`max_categories`), so `city` is skipped without
/// a round; drilled to 40 of its 1 500 values it is cut, and 1–3 shards are
/// bit-identical to the local engine.
#[test]
fn a_categorical_cut_past_the_counter_folds_shard_categories() {
    let table = census_with_a_wide_string_column(6_000, 1_000);
    let whole = ConjunctiveQuery::all("census");
    let forty = (0..40).map(|i| format!("city{:04}", i * 37));
    let drilled = whole.clone().and(Predicate::values("city", forty));
    for shards in 1..=3usize {
        let (handles, addrs) = boot_shards("census", &table, &product_config(), shards);
        let config = product_config();
        assert_eq!(config.cut.max_categories, 40);
        let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
        let coordinator =
            Coordinator::connect(&addrs, "census", config, Duration::from_secs(10)).unwrap();
        for (query, rounds) in [(&whole, 0), (&drilled, shards as u64)] {
            let before = endpoint_requests(&handles, "shard_categories");
            let local = reference.explore_released(query).unwrap();
            let cuts_city = local
                .maps
                .iter()
                .any(|ranked| ranked.map.source_attributes.iter().any(|a| a == "city"));
            assert_eq!(cuts_city, rounds > 0);
            assert_identical(&local, &coordinator.explore(query).unwrap());
            assert_eq!(
                endpoint_requests(&handles, "shard_categories") - before,
                rounds,
                "one round per explore that cuts `city`"
            );
        }
        for handle in handles {
            handle.shutdown();
        }
    }
}

/// POST `body` to `path` on `shard` and return the reply's partials.
fn partials_of(shard: &ServerHandle, path: &str, body: &Json) -> Vec<Json> {
    let reply = Client::new(shard.addr()).post_json(path, body).unwrap();
    assert_eq!(reply.status, 200, "{:?}", reply.json());
    let reply = reply.json().unwrap();
    reply.get("partials").unwrap().items().unwrap().to_vec()
}

/// A data request over every segment of `table` for the working set `sql`.
fn request(table: &Table, sql: &str, extra: Vec<(&str, Json)>) -> Json {
    let segments = (0..table.num_segments()).map(Json::from).collect();
    let mut members = vec![
        ("dataset", Json::from("census")),
        ("sql", Json::from(sql)),
        ("segments", Json::array(segments)),
    ];
    members.extend(extra);
    Json::object(members)
}

/// A `/shard/select` request of one partition, counted alone.
fn select_request(table: &Table, partition: Json) -> Json {
    request(
        table,
        "SELECT * FROM census",
        vec![
            ("partitions", Json::array(vec![partition])),
            ("products", frames::products_to_json(&[vec![0]])),
        ],
    )
}

/// A `/shard/select` request partitioning `attribute` by inclusive ranges.
fn ranges_request(table: &Table, attribute: &str, bounds: &[(f64, f64)]) -> Json {
    let flat: Vec<f64> = bounds.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();
    select_request(
        table,
        Json::object(vec![
            ("attribute", Json::from(attribute)),
            ("kind", Json::from("ranges")),
            ("bounds", Json::from(frames::hex_f64s(&flat))),
        ]),
    )
}

/// What a shard's `/shard/select` reply to `body` — one partition, counted
/// alone — ships: the segments it answered for, the partition's region
/// counts summed over them, and the reply's length in bytes.
fn counted(shard: &ServerHandle, body: &Json) -> (Vec<usize>, Vec<usize>, usize) {
    let reply = Client::new(shard.addr())
        .post_json("/shard/select", body)
        .unwrap();
    assert_eq!(reply.status, 200, "{:?}", reply.json());
    let bytes = reply.body.len();
    let reply = reply.json().unwrap();
    let items = |value: &Json| -> Vec<usize> {
        value
            .items()
            .unwrap()
            .iter()
            .map(|n| n.index().unwrap())
            .collect()
    };
    let cells = reply.get("cells").unwrap().items().unwrap();
    assert_eq!(cells.len(), 1, "{reply}");
    (
        items(reply.get("segments").unwrap()),
        items(&cells[0]),
        bytes,
    )
}

/// What the shards ship, read off real replies. A `/shard/working` reply
/// answers one partial per run of consecutive requested segments: a shard
/// asked for all six segments answers one, whose `counts` are each
/// segment's working rows and whose summaries are the six segments' fold —
/// the table's own — for a whole-table query and for a filter that cuts
/// through every segment alike; asked for `[0, 2, 4]` it answers three, and
/// for `[0, 1, 3, 4]` two, never folding across a gap. No partial ships a
/// bitmap. A `/shard/select` reply ships no rows: one count per region of
/// the partition, summed over the shard's six segments — a few dozen bytes
/// where a bitmap per region and segment went before — and the counts are
/// the popcounts the engine's kernels take, NULLs (in no region) included.
/// Either way the coordinator answers what the engine does.
#[test]
fn shards_fold_each_run_of_segments_and_ship_only_counts() {
    let census = census_table(6_000, 1_000);
    let with_nulls = Arc::new(
        CensusGenerator::new(CensusConfig {
            rows: 6_000,
            seed: 42,
            null_fraction: 0.05,
            segment_rows: Some(1_000),
            ..CensusConfig::default()
        })
        .generate(),
    );
    let config = AtlasConfig::fast();
    let (handles, _) = boot_shards("census", &census, &config, 1);
    let shard = &handles[0];
    let segment_rows = vec![1_000; 6];
    let fields: Vec<(String, DataType)> = census
        .schema()
        .fields()
        .iter()
        .map(|field| (field.name.clone(), field.dtype))
        .collect();
    // The runs a shard answers for `segments` of the working set `sql`,
    // decoded and checked like the coordinator's.
    let runs = |sql: &str, segments: &[usize]| -> Vec<frames::WorkingRun> {
        let listed = segments.iter().map(|&s| Json::from(s)).collect();
        let mut body = request(&census, sql, vec![]);
        if let Json::Obj(members) = &mut body {
            members.retain(|(key, _)| key != "segments");
            members.push(("segments".to_string(), Json::array(listed)));
        }
        partials_of(shard, "/shard/working", &body)
            .iter()
            .map(|partial| {
                assert!(partial.get("bitmap").is_none(), "{partial}");
                frames::working_run_from_json(partial, &segment_rows, &fields).unwrap()
            })
            .collect()
    };
    let filter = "SELECT * FROM census WHERE age BETWEEN 25 AND 60";
    let selected = atlas::query::evaluate(&parse_query(filter).unwrap(), &census).unwrap();
    // Each segment's working rows under `selection`, and every column's
    // summary over the rows of `selection` in a run of segments — what a
    // table of just those segments summarises.
    let per_segment = |selection: &Bitmap| -> Vec<usize> {
        (0..6)
            .map(|s| {
                (s * 1_000..(s + 1) * 1_000)
                    .filter(|&row| selection.get(row))
                    .count()
            })
            .collect()
    };
    let folded = |selection: &Bitmap, run: &[usize]| -> Vec<atlas::columnar::SummaryParts> {
        let segments = run.iter().map(|&s| Arc::clone(&census.segments()[s]));
        let table = Table::from_segments("census", census.schema().clone(), segments.collect());
        let table = table.unwrap();
        let offset = run[0] * 1_000;
        let rows = Bitmap::from_fn(table.num_rows(), |row| selection.get(offset + row));
        table
            .columns()
            .iter()
            .map(|c| c.summary(&rows).to_parts())
            .collect()
    };
    let whole = census.full_selection();
    for (sql, selection) in [("SELECT * FROM census", &whole), (filter, &selected)] {
        let counts = per_segment(selection);
        let all: Vec<usize> = (0..6).collect();
        let one = runs(sql, &all);
        assert_eq!(one.len(), 1, "six consecutive segments are one run");
        assert_eq!(one[0].segments, all);
        assert_eq!(one[0].counts, counts);
        assert_eq!(one[0].columns, folded(selection, &all));
        let apart = runs(sql, &[0, 2, 4]);
        assert_eq!(apart.len(), 3, "no two of [0, 2, 4] are adjacent");
        for (run, segment) in apart.iter().zip([0, 2, 4]) {
            assert_eq!(run.segments, vec![segment]);
            assert_eq!(run.counts, vec![counts[segment]]);
            assert_eq!(run.columns, folded(selection, &[segment]));
        }
        let two: Vec<Vec<usize>> = runs(sql, &[0, 1, 3, 4])
            .into_iter()
            .map(|run| run.segments)
            .collect();
        assert_eq!(two, vec![vec![0, 1], vec![3, 4]]);
    }
    let counts = per_segment(&selected);
    assert!(
        counts.iter().all(|&count| 0 < count && count < 1_000),
        "{counts:?}"
    );
    assert_eq!(counts.iter().sum::<usize>(), selected.count());

    // The counts a local partition takes of `table`'s rows.
    let popcounts = |table: &Table, attribute: &str, bounds: &[(f64, f64)]| -> Vec<usize> {
        let column = table.column(attribute).unwrap();
        let regions = column.select_ranges(&table.full_selection(), bounds);
        regions.iter().map(Bitmap::count).collect()
    };
    let halves = [(0.0, 40.0), (41.0, 200.0)];
    let thirds = [(0.0, 30.0), (31.0, 50.0), (51.0, 200.0)];
    for bounds in [&halves[..], &thirds[..]] {
        let (segments, counts, bytes) = counted(shard, &ranges_request(&census, "age", bounds));
        assert_eq!(segments, (0..6).collect::<Vec<_>>());
        assert_eq!(counts, popcounts(&census, "age", bounds));
        assert_eq!(
            counts.iter().sum::<usize>(),
            6_000,
            "ages partition the rows"
        );
        assert!(bytes < 100, "{bytes} bytes");
    }
    let sexes = select_request(
        &census,
        Json::object(vec![
            ("attribute", Json::from("sex")),
            ("kind", Json::from("groups")),
            (
                "groups",
                Json::array(vec![
                    Json::array(vec![Json::from("Male")]),
                    Json::array(vec![Json::from("Female")]),
                ]),
            ),
        ]),
    );
    let (_, counts, _) = counted(shard, &sexes);
    assert_eq!(counts.iter().sum::<usize>(), 6_000);
    handles.into_iter().for_each(ServerHandle::shutdown);

    let (handles, _) = boot_shards("census", &with_nulls, &config, 1);
    let heights = [(0.0, 170.0), (170.0f64.next_up(), 1_000.0)];
    let (_, counts, _) = counted(
        &handles[0],
        &ranges_request(&with_nulls, "height_cm", &heights),
    );
    assert_eq!(counts, popcounts(&with_nulls, "height_cm", &heights));
    assert!(
        counts.iter().sum::<usize>() < 6_000,
        "NULL heights are in no region"
    );
    handles.into_iter().for_each(ServerHandle::shutdown);

    // The answers are the engine's, over both tables and at 1–3 shards.
    for table in [&census, &with_nulls] {
        let reference = Atlas::new(Arc::clone(table), config.clone()).unwrap();
        for n in 1..=3 {
            let (handles, addrs) = boot_shards("census", table, &config, n);
            let coordinator =
                Coordinator::connect(&addrs, "census", config.clone(), Duration::from_secs(10))
                    .unwrap();
            for sql in ["SELECT * FROM census", filter] {
                assert_agree(&reference, &coordinator, &parse_query(sql).unwrap());
            }
            handles.into_iter().for_each(ServerHandle::shutdown);
        }
    }
}

/// `rows` rows in 1 000-row segments of `a`, `b` and `c`, one hidden
/// quantity read three ways (each ranks the rows the same way up to a
/// little noise, so their median cuts all but coincide), and `d`, drawn
/// independently of it. Every column takes at most a few hundred values, so
/// its summaries count them and no cut asks for values.
fn three_views_and_one_other(rows: usize) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("a", DataType::Float),
        Field::new("b", DataType::Float),
        Field::new("c", DataType::Float),
        Field::new("d", DataType::Float),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("t", schema).with_segment_rows(1_000);
    let hash = |salt: u64, row: usize| {
        let h = (row as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        h as f64 / (1u64 << 24) as f64
    };
    for row in 0..rows {
        let hidden = (hash(1, row) * 100.0).floor();
        let noise = |salt| (hash(salt, row) * 5.0).floor() - 2.0;
        builder
            .push_row(&[
                Value::Float(hidden),
                Value::Float(2.0 * hidden + noise(2)),
                Value::Float(50.0 - hidden + noise(3)),
                Value::Float((hash(4, row) * 100.0).floor()),
            ])
            .unwrap();
    }
    Arc::new(builder.build().unwrap())
}

/// A cluster of three maps asks the shards for its own cells: on a table
/// whose `a`, `b` and `c` are one quantity and `d` another, the product merge
/// with clusters of up to three forms the cluster `a`–`b`–`c`, and its
/// product is counted in one more `/shard/select` round — three rounds per
/// explore where clusters of at most two make two. At 1–3 shards the
/// coordinator answers the engine's released answer bit for bit, whole table
/// and filtered, in strict mode and in degraded mode with a shard down.
#[test]
fn a_cluster_of_three_maps_costs_one_round_of_its_own() {
    let table = three_views_and_one_other(3_000);
    let config = |max_cluster_size| {
        let mut config = product_config();
        config.clustering.max_cluster_size = max_cluster_size;
        config
    };
    let whole = ConjunctiveQuery::all("t");
    let filtered = whole.clone().and(Predicate::range("d", 0.0, 70.0));
    for (max_cluster_size, rounds) in [(3, 3), (2, 2)] {
        let config = config(max_cluster_size);
        let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
        for query in [&whole, &filtered] {
            let local = reference.explore_released(query).unwrap();
            let widest = local
                .maps
                .iter()
                .map(|m| m.map.source_attributes.len())
                .max();
            assert_eq!(widest, Some(max_cluster_size), "{}", to_sql(query));
        }
        for shards in 1..=3usize {
            let (handles, _) = boot_shards("t", &table, &config, shards);
            let (proxies, addrs) = common::proxies(&handles);
            let coordinator =
                Coordinator::connect(&addrs, "t", config.clone(), Duration::from_secs(10)).unwrap();
            for query in [&whole, &filtered] {
                let before = coordinator.metrics().fan_out();
                assert_agree(&reference, &coordinator, query);
                let calls = coordinator.metrics().fan_out() - before;
                assert_eq!(calls, rounds * shards as u64, "{shards} shards");
            }
            if shards > 1 {
                // The last shard is down: the survivors' segments explore
                // like a table of their own.
                proxies[shards - 1].arm(vec![Fault::Kill]);
                let mode = ExploreMode::Degraded {
                    max_failed_shards: 1,
                };
                let assignment = coordinator.assignment();
                let kept: Vec<_> = assignment[..shards - 1]
                    .iter()
                    .flatten()
                    .map(|&s| Arc::clone(&table.segments()[s]))
                    .collect();
                let survivors = Table::from_segments("t", table.schema().clone(), kept).unwrap();
                let local = Atlas::new(Arc::new(survivors), config.clone()).unwrap();
                for query in [&whole, &filtered] {
                    let degraded = coordinator.explore_resilient(query, mode, None).unwrap();
                    assert_eq!(
                        degraded.coverage.missing_segments,
                        assignment[shards - 1],
                        "{shards} shards"
                    );
                    assert_identical(&local.explore_released(query).unwrap(), &degraded.result);
                }
            }
            handles.into_iter().for_each(ServerHandle::shutdown);
        }
    }
}

/// The paper's configuration counts every composition level off the
/// statistics its re-cut reads, so a whole-table `default` census explore
/// makes one round per re-cut region on top of the candidates' two — a
/// `/shard/working` round on the region's SQL, whose summaries count the
/// sub-regions — and no `/shard/select` round for any of them. Over two
/// shards of three 1 000-row segments each, the census clusters into three
/// pairs whose first maps make two regions each: 2 + 6 = 8 rounds, one
/// `/shard/select` per shard, and the shards evaluate each of the 7 working
/// sets once per segment and reuse the explore's once more (its
/// `/shard/select`).
#[test]
fn a_default_explore_counts_every_composition_level() {
    let table = census_table(6_000, 1_000);
    let config = AtlasConfig::default().with_parallelism(2);
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let (handles, addrs) = boot_shards("census", &table, &config, 2);
    let coordinator =
        Coordinator::connect(&addrs, "census", config, Duration::from_secs(10)).unwrap();
    let whole = ConjunctiveQuery::all("census");
    let local = reference.explore_released(&whole).unwrap();
    let pairs = local
        .maps
        .iter()
        .filter(|m| m.map.source_attributes.len() == 2);
    assert_eq!(pairs.count(), 3, "three clusters of two maps");
    assert_agree(&reference, &coordinator, &whole);
    assert_eq!(
        working_set_calls(&coordinator),
        8 * 2,
        "8 rounds over 2 shards"
    );
    assert_eq!(endpoint_requests(&handles, "shard_select"), 2);
    assert_eq!(endpoint_requests(&handles, "shard_values"), 0);
    assert_eq!(working_set_counts(&handles), (7 * 6, 6));
    handles.into_iter().for_each(ServerHandle::shutdown);
}
