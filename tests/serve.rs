//! The wire-protocol acceptance test: a real server on an ephemeral port,
//! N ≥ 8 concurrent client threads exploring the same dataset over real
//! sockets, every reply compared **bit-for-bit** against in-process
//! `Atlas::explore` on the same table — scores included (the JSON layer uses
//! shortest-round-trip `f64` formatting), before *and after* a mid-test
//! `POST /datasets/:name/rows` append.

use atlas::prelude::*;
use atlas::serve::wire::Json;
use atlas::serve::{Client, DatasetOptions, Registry, ServeConfig, Server, ServerHandle};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

const CLIENT_THREADS: usize = 8;

/// The deterministic signature of one ranked map list: per map the score
/// *bits*, the source attributes, and per region the printed SQL and the
/// tuple count. Two explorations with equal signatures returned the same
/// ranked maps, region extents included (the SQL pins the predicate, the
/// count pins the selection).
type Signature = Vec<(u64, Vec<String>, Vec<(String, u64)>)>;

fn signature_of_result(result: &MapResult) -> Signature {
    result
        .maps
        .iter()
        .map(|ranked| {
            (
                ranked.score.to_bits(),
                ranked.map.source_attributes.clone(),
                ranked
                    .map
                    .regions
                    .iter()
                    .map(|r| (to_sql(&r.query), r.count() as u64))
                    .collect(),
            )
        })
        .collect()
}

fn signature_of_wire(reply: &Json) -> Signature {
    reply
        .get("maps")
        .expect("reply carries maps")
        .items()
        .expect("maps is an array")
        .iter()
        .map(|map| {
            let score = map.get("score").unwrap().num().expect("score is a number");
            let attrs = map
                .get("source_attributes")
                .unwrap()
                .items()
                .unwrap()
                .iter()
                .map(|a| a.str().unwrap().to_string())
                .collect();
            let regions = map
                .get("regions")
                .unwrap()
                .items()
                .unwrap()
                .iter()
                .map(|r| {
                    (
                        r.get("sql").unwrap().str().unwrap().to_string(),
                        r.get("count").unwrap().num().unwrap() as u64,
                    )
                })
                .collect();
            (score.to_bits(), attrs, regions)
        })
        .collect()
}

/// The query mix every client thread works through (all with explicit table
/// names so the wire and in-process sides parse identical queries).
fn query_mix() -> Vec<&'static str> {
    vec![
        "SELECT * FROM census",
        "SELECT * FROM census WHERE age BETWEEN 17 AND 40",
        "SELECT * FROM census WHERE sex IN ('Male')",
        "SELECT * FROM census WHERE age BETWEEN 30 AND 70 AND sex IN ('Female')",
        "SELECT * FROM census WHERE height_cm >= 160",
    ]
}

fn expected_signatures(engine: &Atlas) -> BTreeMap<String, Signature> {
    query_mix()
        .into_iter()
        .map(|sql| {
            let query = parse_query(sql).unwrap();
            let result = engine.explore(&query).unwrap();
            (sql.to_string(), signature_of_result(&result))
        })
        .collect()
}

/// Run one round: every client thread opens its own session and works
/// through the query mix (each thread in a different rotation), asserting
/// every wire reply matches the in-process signature.
fn concurrent_round(
    addr: std::net::SocketAddr,
    expected: &BTreeMap<String, Signature>,
    expected_rows: usize,
) {
    let queries = query_mix();
    thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                let client = Client::new(addr);
                let token = client.create_session("census").unwrap();
                for i in 0..queries.len() {
                    let sql = queries[(i + t) % queries.len()];
                    let reply = client
                        .post_text(&format!("/sessions/{token}/explore"), sql)
                        .unwrap();
                    assert_eq!(reply.status, 200, "thread {t}: {:?}", reply.body_text());
                    let reply = reply.json().unwrap();
                    assert!(
                        reply.get("working_set_size").unwrap().num().unwrap() as usize
                            <= expected_rows
                    );
                    assert_eq!(
                        &signature_of_wire(&reply),
                        expected.get(sql).unwrap(),
                        "thread {t} disagrees with in-process explore on {sql}"
                    );
                }
                // The session really recorded the steps (multi-tenant state).
                let history = client
                    .get(&format!("/sessions/{token}/history"))
                    .unwrap()
                    .json()
                    .unwrap();
                assert_eq!(
                    history.get("depth").unwrap().num().unwrap() as usize,
                    queries.len()
                );
            });
        }
    });
}

#[test]
fn concurrent_wire_explorations_are_bit_identical_to_in_process_results() {
    let table = Arc::new(CensusGenerator::with_rows(4_000, 42).generate());
    let config = AtlasConfig::default();

    // The in-process reference engine and the served engine are prepared
    // from the same shared table with the same configuration.
    let reference = Atlas::new(Arc::clone(&table), config.clone()).unwrap();
    let mut registry = Registry::new();
    registry
        .add_table(
            "census",
            Arc::clone(&table),
            DatasetOptions {
                config: config.clone(),
                cache_capacity: 16,
            },
        )
        .unwrap();
    let handle = Server::start(
        registry,
        ServeConfig::default().with_threads(CLIENT_THREADS),
    )
    .unwrap();
    let addr = handle.addr();

    // Round 1: eight threads, five queries each, every reply bit-identical.
    let expected = expected_signatures(&reference);
    concurrent_round(addr, &expected, 4_000);

    // Mid-test append: POST a fresh batch as header-less CSV …
    let body = csv_batch(900, 1234);
    let client = Client::new(addr);
    let reply = client
        .request(
            "POST",
            "/datasets/census/rows",
            Some(("text/csv", body.as_bytes())),
        )
        .unwrap();
    assert_eq!(reply.status, 200, "{:?}", reply.body_text());
    assert_eq!(
        reply.json().unwrap().get("total_rows").unwrap().num(),
        Some(4_900.0)
    );

    // … mirror it in-process through the same CSV path (identical segment
    // boundaries), re-preparing incrementally with `Atlas::append` …
    let appended = append_in_process(reference, &body);
    assert_eq!(appended.table().num_rows(), 4_900);

    // … and round 2: the same eight-thread mix must now match the appended
    // in-process engine, bit for bit.
    let expected = expected_signatures(&appended);
    concurrent_round(addr, &expected, 4_900);

    // The server stayed healthy throughout.
    let metrics = client.get("/metrics").unwrap().json().unwrap();
    let responses = metrics.get("responses").unwrap();
    assert_eq!(responses.get("server_error_5xx").unwrap().num(), Some(0.0));
    assert!(
        metrics.get("requests_total").unwrap().num().unwrap()
            >= (2 * CLIENT_THREADS * (query_mix().len() + 2)) as f64
    );
    handle.shutdown();
}

/// `rows` census rows from `seed`, rendered as the header-less CSV body of
/// `POST /datasets/census/rows`.
fn csv_batch(rows: usize, seed: u64) -> String {
    let batch = CensusGenerator::with_rows(rows, seed).generate();
    let mut csv = Vec::new();
    atlas::columnar::csv::write_csv(&batch, &mut csv).unwrap();
    let text = String::from_utf8(csv).unwrap();
    text.split_once('\n').unwrap().1.to_string()
}

/// `engine` with the rows of a CSV body appended in-process, through the
/// path the server takes (identical segment boundaries, `Atlas::append`).
fn append_in_process(engine: Atlas, body: &str) -> Atlas {
    let opts = atlas::columnar::csv::CsvOptions {
        has_header: false,
        ..atlas::columnar::csv::CsvOptions::default()
    };
    let schema = engine.table().schema().clone();
    let parsed =
        atlas::columnar::csv::read_csv("census", body.as_bytes(), Some(schema), &opts).unwrap();
    parsed.segments().iter().fold(engine, |engine, segment| {
        engine.append(Arc::clone(segment)).unwrap()
    })
}

fn serve_census(table: &Arc<Table>, config: AtlasConfig, cache_capacity: usize) -> ServerHandle {
    let mut registry = Registry::new();
    let options = DatasetOptions {
        config,
        cache_capacity,
    };
    registry
        .add_table("census", Arc::clone(table), options)
        .unwrap();
    Server::start(registry, ServeConfig::default().with_threads(2)).unwrap()
}

fn post_rows(client: &Client, body: &str) {
    let reply = client
        .request(
            "POST",
            "/datasets/census/rows",
            Some(("text/csv", body.as_bytes())),
        )
        .unwrap();
    assert_eq!(reply.status, 200, "{:?}", reply.body_text());
}

fn history_steps(client: &Client, token: &str) -> Vec<Json> {
    let history = client
        .get(&format!("/sessions/{token}/history"))
        .unwrap()
        .json()
        .unwrap();
    history.get("steps").unwrap().items().unwrap().to_vec()
}

#[test]
fn a_session_surviving_an_append_keeps_its_steps_as_answered() {
    // One session explores, rows arrive over the wire: the step already
    // shown stays as it was answered, and the next step sees the new rows.
    let table = Arc::new(CensusGenerator::with_rows(1_000, 7).generate());
    let handle = serve_census(&table, AtlasConfig::fast(), 8);
    let client = Client::new(handle.addr());
    let token = client.create_session("census").unwrap();
    let explore = format!("/sessions/{token}/explore");
    client.post_text(&explore, "SELECT * FROM census").unwrap();
    post_rows(&client, &csv_batch(250, 8));

    let steps = history_steps(&client, &token);
    assert_eq!(steps.len(), 1);
    let size = |step: &Json| step.get("working_set_size").unwrap().num();
    assert_eq!(size(&steps[0]), Some(1_000.0));

    let reply = client.post_text(&explore, "SELECT * FROM census").unwrap();
    assert_eq!(size(&reply.json().unwrap()), Some(1_250.0));
    let steps = history_steps(&client, &token);
    assert_eq!(
        steps.iter().map(size).collect::<Vec<_>>(),
        [Some(1_000.0), Some(1_250.0)]
    );
    handle.shutdown();
}

#[test]
fn a_drill_after_another_clients_append_addresses_the_region_it_was_shown() {
    let table = Arc::new(CensusGenerator::with_rows(1_000, 7).generate());
    let config = AtlasConfig::default();
    let handle = serve_census(&table, config.clone(), 0);
    let explorer = Client::new(handle.addr());
    let token = explorer.create_session("census").unwrap();
    let shown = explorer
        .post_text(
            &format!("/sessions/{token}/explore"),
            "SELECT * FROM census",
        )
        .unwrap()
        .json()
        .unwrap();
    let region = &shown.get("maps").unwrap().items().unwrap()[0]
        .get("regions")
        .unwrap()
        .items()
        .unwrap()[0];
    let region_sql = region.get("sql").unwrap().str().unwrap().to_string();
    let shown_count = region.get("count").unwrap().num().unwrap();

    // Another client appends while the explorer looks at the map …
    let body = csv_batch(3_000, 99);
    post_rows(&Client::new(handle.addr()), &body);

    // … and the explorer drills into region (0, 0) of the reply it saw.
    let drilled = explorer
        .post_json(
            &format!("/sessions/{token}/drill"),
            &Json::object(vec![
                ("map", Json::from(0usize)),
                ("region", Json::from(0usize)),
            ]),
        )
        .unwrap();
    assert_eq!(drilled.status, 200, "{:?}", drilled.body_text());
    let drilled = drilled.json().unwrap();
    let steps = history_steps(&explorer, &token);
    assert_eq!(steps.len(), 2);
    assert_eq!(
        steps[1].get("sql").unwrap().str(),
        Some(region_sql.as_str())
    );

    // The drill ran on the grown table: it counts the appended rows, and
    // it is bit-identical to the same drill in-process.
    let grown = append_in_process(Atlas::new(Arc::clone(&table), config).unwrap(), &body);
    let expected = grown.explore(&parse_query(&region_sql).unwrap()).unwrap();
    let drilled_size = drilled.get("working_set_size").unwrap().num().unwrap();
    assert_eq!(drilled_size, expected.working_set_size as f64);
    assert!(
        drilled_size > shown_count,
        "{drilled_size} vs {shown_count}"
    );
    assert_eq!(signature_of_wire(&drilled), signature_of_result(&expected));
    handle.shutdown();
}

/// `/metrics` says how each dataset is stored — per column, how many of its
/// segment-local parts hold plain lanes, `u8`, `u16` or `u32` codes, and the
/// heap bytes they weigh — in both formats, and an appended segment shows up
/// as one more part per column under whatever encoding its own rows earned.
#[test]
fn metrics_report_how_each_column_is_stored() {
    use atlas::columnar::Encoding;
    let table = Arc::new(CensusGenerator::with_rows(4_000, 42).generate());
    let mut registry = Registry::new();
    let options = DatasetOptions {
        config: AtlasConfig::fast(),
        cache_capacity: 4,
    };
    registry
        .add_table("census", Arc::clone(&table), options)
        .unwrap();
    let handle = Server::start(registry, ServeConfig::default().with_threads(2)).unwrap();
    let client = Client::new(handle.addr());

    // What the report must say, read off a table directly.
    let expected = |table: &Table, column: &str, encoding: Encoding| {
        let view = table.column(column).unwrap();
        let parts = view.parts().filter(|(_, part)| part.encoding() == encoding);
        parts.count() as f64
    };
    let reported = |column: &str, leaf: &[&str]| {
        let metrics = client.get("/metrics").unwrap().json().unwrap();
        let mut at = metrics.get("storage").unwrap().get("census").unwrap();
        for key in [column].iter().chain(leaf) {
            at = at.get(key).unwrap_or_else(|| panic!("{column}: no {key}"));
        }
        at.num().unwrap()
    };
    for field in table.schema().fields() {
        for encoding in Encoding::ALL {
            assert_eq!(
                reported(&field.name, &["parts", encoding.name()]),
                expected(&table, &field.name, encoding),
                "{} {}",
                field.name,
                encoding.name()
            );
        }
    }
    // Seventy-odd ages: every part is byte codes, under half the weight of
    // the eight-byte lanes they replaced (dictionaries included, at any
    // segment size CI runs).
    let segments = table.num_segments() as f64;
    assert_eq!(reported("age", &["parts", "u8"]), segments);
    assert_eq!(reported("age", &["parts", "plain"]), 0.0);
    let age_bytes = reported("age", &["resident_bytes"]);
    assert!(
        age_bytes > 4_000.0 && age_bytes < 4.0 * 4_000.0,
        "{age_bytes}"
    );

    // An appended 1 024-row batch: one more part per column for every
    // segment the batch was sealed into (one at the default layout, two at
    // 1 000-row segments).
    let batch = CensusGenerator::with_rows(1_024, 1234).generate();
    let mut csv = Vec::new();
    atlas::columnar::csv::write_csv(&batch, &mut csv).unwrap();
    let text = String::from_utf8(csv).unwrap();
    let body = text.split_once('\n').unwrap().1;
    let reply = client
        .request(
            "POST",
            "/datasets/census/rows",
            Some(("text/csv", body.as_bytes())),
        )
        .unwrap();
    assert_eq!(reply.status, 200, "{:?}", reply.body_text());
    let reply = reply.json().unwrap();
    let appended = reply.get("appended_segments").unwrap().num().unwrap();
    assert!(appended >= 1.0);
    let parts_of = |column: &str| -> f64 {
        let parts = Encoding::ALL.map(|e| reported(column, &["parts", e.name()]));
        parts.iter().sum()
    };
    assert_eq!(parts_of("age"), segments + appended);
    // The first appended segment holds at least 1 000 rows, plenty to code
    // seventy-odd ages (a short remainder may stay plain).
    assert!(reported("age", &["parts", "u8"]) > segments);
    assert_eq!(parts_of("height_cm"), segments + appended);
    // Strings are codes like the numerics: two sexes fit a byte lane.
    assert_eq!(reported("sex", &["parts", "u8"]), segments + appended);
    assert!(reported("age", &["resident_bytes"]) > age_bytes + 1_024.0);

    // The text exposition carries the same samples.
    let text = Client::new(handle.addr())
        .with_header("Accept", "text/plain")
        .get("/metrics")
        .unwrap();
    let text = text.body_text().unwrap().to_string();
    assert!(text.contains("# TYPE atlas_storage_parts gauge"), "{text}");
    let line = format!(
        "atlas_storage_parts{{dataset=\"census\",column=\"sex\",encoding=\"u8\"}} {}",
        segments + appended
    );
    assert!(text.contains(&line), "{line}\n{text}");
    assert!(
        text.contains("atlas_storage_resident_bytes{dataset=\"census\",column=\"age\"}"),
        "{text}"
    );
    handle.shutdown();
}

/// A front server whose dataset runs the paper's configuration coordinates
/// `POST /distributed/explore` under it too: two shard servers and a front
/// over them, all `AtlasConfig::default()` (composition). Each reply is a
/// `200` whose maps are the in-process engine's — score bits, region SQL
/// and counts — for the whole table, a filter and a drill.
#[test]
fn a_default_front_server_explores_over_its_shards_like_the_engine() {
    let table = Arc::new(
        CensusGenerator::new(atlas::datagen::CensusConfig {
            rows: 6_000,
            seed: 42,
            segment_rows: Some(1_000),
            ..Default::default()
        })
        .generate(),
    );
    let config = AtlasConfig::default().with_parallelism(2);
    assert_eq!(config.merge, MergeStrategy::Composition);
    let shards: Vec<ServerHandle> = (0..2)
        .map(|_| serve_census(&table, config.clone(), 0))
        .collect();
    let mut registry = Registry::new();
    let options = DatasetOptions {
        config: config.clone(),
        cache_capacity: 0,
    };
    registry
        .add_table("census", Arc::clone(&table), options)
        .unwrap();
    let mut serve_config = ServeConfig::default().with_threads(2);
    serve_config.shards = shards.iter().map(|s| s.addr().to_string()).collect();
    let front = Server::start(registry, serve_config).unwrap();
    let client = Client::new(front.addr());
    let engine = Atlas::new(Arc::clone(&table), config).unwrap();
    let whole = engine.explore(&ConjunctiveQuery::all("census")).unwrap();
    let drill = to_sql(&whole.maps[0].map.regions[0].query);
    for sql in [
        "SELECT * FROM census".to_string(),
        "SELECT * FROM census WHERE age >= 30".to_string(),
        drill,
    ] {
        let reply = client.post_text("/distributed/explore", &sql).unwrap();
        assert_eq!(reply.status, 200, "{sql}: {:?}", reply.body_text());
        let local = engine.explore(&parse_query(&sql).unwrap()).unwrap();
        let wire = reply.json().expect("a JSON reply");
        assert_eq!(
            signature_of_wire(&wire),
            signature_of_result(&local),
            "{sql}"
        );
    }
    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}
