//! End-to-end protocol tests: a real server on an ephemeral port, driven by
//! the blocking client over real sockets.

use atlas_core::AtlasConfig;
use atlas_datagen::CensusGenerator;
use atlas_serve::wire::Json;
use atlas_serve::{Client, DatasetOptions, Registry, ServeConfig, Server, ServerHandle};
use std::sync::Arc;
use std::time::Duration;

#[expect(
    clippy::unwrap_used,
    reason = "a test helper: allow-unwrap-in-tests covers #[test] fns and #[cfg(test)] modules, not the other fns of an integration-test file"
)]
fn boot(rows: usize, cache: usize, threads: usize) -> (ServerHandle, Client) {
    let mut registry = Registry::new();
    registry
        .add_table(
            "census",
            Arc::new(CensusGenerator::with_rows(rows, 11).generate()),
            DatasetOptions {
                config: AtlasConfig::fast(),
                cache_capacity: cache,
            },
        )
        .unwrap();
    let config = ServeConfig {
        keep_alive: Duration::from_millis(400),
        ..ServeConfig::default()
    }
    .with_threads(threads);
    let handle = Server::start(registry, config).unwrap();
    let client = Client::new(handle.addr());
    (handle, client)
}

#[test]
fn healthz_datasets_and_metrics_respond() {
    let (handle, client) = boot(800, 8, 2);

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let health = health.json().unwrap();
    assert_eq!(health.get("status").unwrap().str(), Some("ok"));
    let names = health.get("datasets").unwrap().items().unwrap();
    assert_eq!(names[0].str(), Some("census"));

    let datasets = client.get("/datasets").unwrap().json().unwrap();
    let census = &datasets.get("datasets").unwrap().items().unwrap()[0];
    assert_eq!(census.get("rows").unwrap().num(), Some(800.0));
    assert!(census.get("attributes").unwrap().items().unwrap().len() >= 5);

    let metrics = client.get("/metrics").unwrap().json().unwrap();
    assert!(metrics.get("requests_total").unwrap().num().unwrap() >= 2.0);
    assert!(metrics.get("sessions").is_some());
    assert!(metrics.get("result_cache").unwrap().get("census").is_some());
    handle.shutdown();
}

/// `/metrics` says which body counted: a filtered census explore (23 % of
/// the rows, which misses the profile) counts the 2–4-valued string columns
/// through entry masks and the wide numeric ones (`age`, `hours_per_week`,
/// `height_cm`) by the walk, so both word counters rise. The scalar
/// reference path walks every word.
#[test]
fn metrics_say_which_body_counted_a_filtered_explore() {
    let (handle, client) = boot(20_000, 0, 2);
    let words = || {
        let metrics = client.get("/metrics").unwrap().json().unwrap();
        let counters = metrics.get("counters").unwrap();
        let read = |key| counters.get(key).and_then(Json::num).unwrap_or(0.0);
        (
            read("kernel.count.masked_words"),
            read("kernel.count.walked_words"),
        )
    };
    let (masked, walked) = words();
    let token = client.create_session("census").unwrap();
    let reply = client
        .post_text(
            &format!("/sessions/{token}/explore"),
            "age BETWEEN 30 AND 43",
        )
        .unwrap();
    assert_eq!(reply.status, 200, "{:?}", reply.body_text());
    let (masked_after, walked_after) = words();
    assert!(walked_after > walked, "{walked} -> {walked_after}");
    if atlas_columnar::force_scalar() {
        assert_eq!(masked_after, masked);
    } else {
        assert!(masked_after > masked, "{masked} -> {masked_after}");
    }

    let text = Client::new(handle.addr())
        .with_header("Accept", "text/plain")
        .get("/metrics")
        .unwrap();
    let text = text.body_text().unwrap().to_string();
    assert!(
        text.contains("atlas_kernel_count_words_total{body=\"walked\"}"),
        "{text}"
    );
    handle.shutdown();
}

#[test]
fn the_full_exploration_loop_works_over_the_wire() {
    let (handle, client) = boot(2_000, 8, 2);
    let token = client.create_session("census").unwrap();

    // Explore with a plain-SQL body.
    let reply = client
        .post_text(
            &format!("/sessions/{token}/explore"),
            "SELECT * FROM census",
        )
        .unwrap();
    assert_eq!(reply.status, 200, "{:?}", reply.body_text());
    let reply = reply.json().unwrap();
    assert_eq!(reply.get("working_set_size").unwrap().num(), Some(2000.0));
    assert_eq!(reply.get("depth").unwrap().num(), Some(1.0));
    let maps = reply.get("maps").unwrap().items().unwrap();
    assert!(!maps.is_empty());
    let first_region_sql = maps[0].get("regions").unwrap().items().unwrap()[0]
        .get("sql")
        .unwrap()
        .str()
        .unwrap()
        .to_string();
    assert!(first_region_sql.starts_with("SELECT * FROM census"));

    // The JSON envelope works too, and the table name may be omitted.
    let reply = client
        .post_json(
            &format!("/sessions/{token}/explore"),
            &Json::object(vec![("sql", Json::from("age BETWEEN 17 AND 40"))]),
        )
        .unwrap();
    assert_eq!(reply.status, 200);
    let narrowed = reply.json().unwrap();
    assert!(narrowed.get("working_set_size").unwrap().num().unwrap() < 2000.0);
    assert_eq!(narrowed.get("depth").unwrap().num(), Some(2.0));

    // Drill into map 0 / region 0 of the current step.
    let reply = client
        .post_json(
            &format!("/sessions/{token}/drill"),
            &Json::object(vec![
                ("map", Json::from(0usize)),
                ("region", Json::from(0usize)),
            ]),
        )
        .unwrap();
    assert_eq!(reply.status, 200, "{:?}", reply.body_text());
    let drilled = reply.json().unwrap();
    assert!(
        drilled.get("working_set_size").unwrap().num().unwrap()
            < narrowed.get("working_set_size").unwrap().num().unwrap()
    );

    // History shows all three steps.
    let history = client
        .get(&format!("/sessions/{token}/history"))
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(history.get("depth").unwrap().num(), Some(3.0));
    assert_eq!(history.get("steps").unwrap().items().unwrap().len(), 3);

    // Back pops one step.
    let back = client
        .post_text(&format!("/sessions/{token}/back"), "")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(back.get("popped").unwrap().bool(), Some(true));
    assert_eq!(back.get("depth").unwrap().num(), Some(2.0));
    assert!(back.get("current").unwrap().str().unwrap().contains("age"));

    // Delete ends the session.
    assert_eq!(
        client
            .request("DELETE", &format!("/sessions/{token}"), None)
            .unwrap()
            .status,
        200
    );
    let reply = client
        .post_text(
            &format!("/sessions/{token}/explore"),
            "SELECT * FROM census",
        )
        .unwrap();
    assert_eq!(reply.status, 404);
    handle.shutdown();
}

#[test]
fn a_reply_reports_the_depth_history_reports_once_the_cap_trims() {
    let mut registry = Registry::new();
    registry
        .add_table(
            "census",
            Arc::new(CensusGenerator::with_rows(800, 11).generate()),
            DatasetOptions {
                config: AtlasConfig::fast(),
                cache_capacity: 8,
            },
        )
        .unwrap();
    let config = ServeConfig {
        max_history_depth: 2,
        ..ServeConfig::default()
    }
    .with_threads(2);
    let handle = Server::start(registry, config).unwrap();
    let client = Client::new(handle.addr());
    let token = client.create_session("census").unwrap();
    let depth_of = |reply: &Json| reply.get("depth").unwrap().num().unwrap();

    let mut depths = Vec::new();
    for sql in [
        "SELECT * FROM census",
        "age BETWEEN 17 AND 40",
        "sex IN ('Male')",
    ] {
        let reply = client
            .post_text(&format!("/sessions/{token}/explore"), sql)
            .unwrap();
        assert_eq!(reply.status, 200, "{:?}", reply.body_text());
        depths.push(depth_of(&reply.json().unwrap()));
    }
    let drill = client
        .post_json(
            &format!("/sessions/{token}/drill"),
            &Json::object(vec![("map", Json::from(0usize))]),
        )
        .unwrap();
    assert_eq!(drill.status, 200, "{:?}", drill.body_text());
    depths.push(depth_of(&drill.json().unwrap()));
    assert_eq!(depths, [1.0, 2.0, 2.0, 2.0]);

    let history = client
        .get(&format!("/sessions/{token}/history"))
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(depth_of(&history), 2.0);
    assert_eq!(history.get("steps").unwrap().items().unwrap().len(), 2);
    handle.shutdown();
}

#[test]
fn identical_queries_hit_the_shared_cache_across_sessions() {
    let (handle, client) = boot(1_500, 8, 2);
    let a = client.create_session("census").unwrap();
    let b = client.create_session("census").unwrap();
    let first = client
        .post_text(&format!("/sessions/{a}/explore"), "SELECT * FROM census")
        .unwrap();
    // Same query, different session, different predicate spelling order.
    let second = client
        .post_text(&format!("/sessions/{b}/explore"), "SELECT * FROM census")
        .unwrap();
    // The bytes on the wire, not a re-encoding: `maps` is the last member.
    let maps_bytes = |text: &str| text[text.find("\"maps\":").unwrap()..].to_string();
    assert_eq!(
        maps_bytes(first.body_text().unwrap()),
        maps_bytes(second.body_text().unwrap()),
        "a cache hit serves the maps the miss stored, byte for byte"
    );
    let (first, second) = (first.json().unwrap(), second.json().unwrap());
    assert_eq!(first.get("cache_hit").unwrap().bool(), Some(false));
    assert_eq!(second.get("cache_hit").unwrap().bool(), Some(true));
    // Each region's cover is its stored count over the working set.
    let working_set_size = second.get("working_set_size").unwrap().index().unwrap();
    for map in second.get("maps").unwrap().items().unwrap() {
        for region in map.get("regions").unwrap().items().unwrap() {
            let count = region.get("count").unwrap().index().unwrap();
            let cover = region.get("cover").unwrap().num().unwrap();
            let expected = count as f64 / working_set_size as f64;
            assert_eq!(cover.to_bits(), expected.to_bits(), "{region:?}");
        }
    }
    handle.shutdown();
}

#[test]
fn errors_map_to_the_right_statuses() {
    let (handle, client) = boot(600, 4, 2);
    let token = client.create_session("census").unwrap();
    let explore = |sql: &str| {
        client
            .post_text(&format!("/sessions/{token}/explore"), sql)
            .unwrap()
    };

    // Unparseable SQL → 400.
    let reply = explore("SELECT age FROM census");
    assert_eq!(reply.status, 400);
    assert!(reply.json().unwrap().get("error").is_some());
    // Unknown attribute → 400 (query error).
    assert_eq!(explore("wingspan BETWEEN 1 AND 2").status, 400);
    // Empty working set → 422.
    assert_eq!(explore("age BETWEEN 900 AND 999").status, 422);
    // Unknown session → 404.
    let reply = client
        .post_text("/sessions/nonsense/explore", "SELECT * FROM census")
        .unwrap();
    assert_eq!(reply.status, 404);
    // Unknown dataset → 404.
    let reply = client.post_json(
        "/sessions",
        &Json::object(vec![("dataset", Json::from("mars"))]),
    );
    assert_eq!(reply.unwrap().status, 404);
    // Drill before exploring → 400, and out-of-range indices → 400.
    assert_eq!(
        client
            .post_json(
                &format!("/sessions/{token}/drill"),
                &Json::object(vec![("map", Json::from(0usize))]),
            )
            .unwrap()
            .status,
        400
    );
    explore("SELECT * FROM census");
    let reply = client
        .post_json(
            &format!("/sessions/{token}/drill"),
            &Json::object(vec![("map", Json::from(99usize))]),
        )
        .unwrap();
    assert_eq!(reply.status, 400);
    assert!(reply
        .json()
        .unwrap()
        .get("error")
        .unwrap()
        .str()
        .unwrap()
        .contains("map #99"));
    // Unknown routes and wrong methods.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    // Unknown shard actions; `sketches` is not a round (every median is
    // exact).
    for action in ["sketches", "nope"] {
        let reply = client.post_text(&format!("/shard/{action}"), "{}").unwrap();
        assert_eq!(reply.status, 404, "{action}");
    }
    assert_eq!(client.get("/sessions/x/explore").unwrap().status, 405);
    // Malformed drill body → 400.
    let reply = client
        .request(
            "POST",
            &format!("/sessions/{token}/drill"),
            Some(("application/json", b"{\"map\": \"zero\"}")),
        )
        .unwrap();
    assert_eq!(reply.status, 400);
    handle.shutdown();
}

/// A server answers only its protocol, so nothing a client sends can fault
/// it: a plan that would kill the shard, posted to `/shard/inject`, is a
/// `404`, and every later shard request is answered as before.
#[test]
fn a_posted_fault_plan_is_a_404_and_faults_nothing() {
    let (handle, client) = boot(600, 0, 2);
    let kill = Json::object(vec![(
        "plan",
        Json::array(vec![Json::object(vec![("fault", Json::from("kill"))])]),
    )]);
    assert_eq!(
        client.post_json("/shard/inject", &kill).unwrap().status,
        404
    );
    let census = Json::object(vec![("dataset", Json::from("census"))]);
    for _ in 0..2 {
        let meta = client.post_json("/shard/meta", &census).unwrap();
        assert_eq!(meta.status, 200);
        let rows = meta.json().unwrap().get("num_rows").and_then(Json::num);
        assert_eq!(rows, Some(600.0));
    }
    handle.shutdown();
}

#[test]
fn appending_rows_over_the_wire_updates_live_sessions() {
    let (handle, client) = boot(1_200, 8, 2);
    let token = client.create_session("census").unwrap();
    let explore = || {
        client
            .post_text(
                &format!("/sessions/{token}/explore"),
                "SELECT * FROM census",
            )
            .unwrap()
            .json()
            .unwrap()
    };
    assert_eq!(
        explore().get("working_set_size").unwrap().num(),
        Some(1200.0)
    );

    // Render a census batch as header-less CSV and POST it.
    let batch = CensusGenerator::with_rows(300, 77).generate();
    let mut csv = Vec::new();
    atlas_columnar::csv::write_csv(&batch, &mut csv).unwrap();
    let text = String::from_utf8(csv).unwrap();
    let body = text.split_once('\n').unwrap().1.to_string();
    let reply = client
        .request(
            "POST",
            "/datasets/census/rows",
            Some(("text/csv", body.as_bytes())),
        )
        .unwrap();
    assert_eq!(reply.status, 200, "{:?}", reply.body_text());
    let reply = reply.json().unwrap();
    assert_eq!(reply.get("appended_rows").unwrap().num(), Some(300.0));
    assert_eq!(reply.get("total_rows").unwrap().num(), Some(1500.0));

    // The live session catches up on its next request.
    assert_eq!(
        explore().get("working_set_size").unwrap().num(),
        Some(1500.0)
    );

    // Malformed bodies are 400s; unknown datasets 404s; empty bodies 400s.
    let bad = client
        .request(
            "POST",
            "/datasets/census/rows",
            Some(("text/csv", b"just,three,columns".as_slice())),
        )
        .unwrap();
    assert_eq!(bad.status, 400);
    assert_eq!(
        client
            .request(
                "POST",
                "/datasets/mars/rows",
                Some(("text/csv", b"x".as_slice()))
            )
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client
            .request("POST", "/datasets/census/rows", None)
            .unwrap()
            .status,
        400
    );
    handle.shutdown();
}

#[test]
fn overload_is_refused_with_503() {
    // queue_depth 0 means admission control refuses every connection.
    let mut registry = Registry::new();
    registry
        .add_table(
            "census",
            Arc::new(CensusGenerator::with_rows(200, 1).generate()),
            DatasetOptions::default(),
        )
        .unwrap();
    let config = ServeConfig {
        queue_depth: 0,
        ..ServeConfig::default()
    }
    .with_threads(1);
    let handle = Server::start(registry, config).unwrap();
    let client = Client::new(handle.addr());
    let reply = client.get("/healthz").unwrap();
    assert_eq!(reply.status, 503);
    let retry_after = reply
        .headers
        .iter()
        .find(|(name, _)| name == "retry-after")
        .map(|(_, value)| value.as_str())
        .expect("503 refusals must carry a Retry-After header");
    let seconds: u64 = retry_after.parse().expect("Retry-After must be seconds");
    assert!(
        (1..=30).contains(&seconds),
        "Retry-After {seconds} out of range"
    );
    assert!(handle.metrics().rejected() >= 1);
    handle.shutdown();
}

#[test]
fn a_deadline_spent_in_the_admission_queue_is_a_504_with_work_done() {
    let (handle, _client) = boot(200, 0, 1);
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    // The deadline anchors at admission: sitting idle after connecting burns
    // the whole budget before the request even arrives.
    std::thread::sleep(Duration::from_millis(300));
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nX-Atlas-Deadline-Ms: 100\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 504"), "got: {text}");
    assert!(
        text.contains("work_done"),
        "504 must report work done: {text}"
    );
    assert!(
        text.contains("admission queue"),
        "504 must name the phase: {text}"
    );
    handle.shutdown();
}

#[test]
fn degraded_mode_must_be_enabled_server_side() {
    // A coordinator with shards configured but degraded mode off: the mode
    // gate answers before any shard is dialled, so the address can be fake.
    let mut registry = Registry::new();
    registry
        .add_table(
            "census",
            Arc::new(CensusGenerator::with_rows(200, 1).generate()),
            DatasetOptions::default(),
        )
        .unwrap();
    let config = ServeConfig {
        shards: vec!["127.0.0.1:1".to_string()],
        ..ServeConfig::default()
    }
    .with_threads(1);
    let handle = Server::start(registry, config).unwrap();
    let client = Client::new(handle.addr());

    let body = Json::object(vec![
        ("sql", Json::from("SELECT * FROM census WHERE age > 30")),
        ("mode", Json::from("degraded")),
    ]);
    let reply = client.post_json("/distributed/explore", &body).unwrap();
    assert_eq!(reply.status, 400);
    let error = reply
        .json()
        .unwrap()
        .get("error")
        .unwrap()
        .str()
        .unwrap()
        .to_string();
    assert!(error.contains("degraded mode is disabled"), "got: {error}");

    let body = Json::object(vec![
        ("sql", Json::from("SELECT * FROM census WHERE age > 30")),
        ("mode", Json::from("optimistic")),
    ]);
    let reply = client.post_json("/distributed/explore", &body).unwrap();
    assert_eq!(reply.status, 400);
    let error = reply
        .json()
        .unwrap()
        .get("error")
        .unwrap()
        .str()
        .unwrap()
        .to_string();
    assert!(error.contains("unknown mode"), "got: {error}");
    handle.shutdown();
}

#[test]
fn oversized_and_malformed_requests_fail_cleanly() {
    let mut registry = Registry::new();
    registry
        .add_table(
            "census",
            Arc::new(CensusGenerator::with_rows(200, 1).generate()),
            DatasetOptions::default(),
        )
        .unwrap();
    let config = ServeConfig {
        max_body_bytes: 64,
        ..ServeConfig::default()
    }
    .with_threads(1);
    let handle = Server::start(registry, config).unwrap();
    let client = Client::new(handle.addr());
    let reply = client
        .request(
            "POST",
            "/sessions",
            Some(("text/plain", vec![b'x'; 1000].as_slice())),
        )
        .unwrap();
    assert_eq!(reply.status, 413);

    // A raw, non-HTTP payload gets a 400 and a closed connection.
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"garbage\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    assert!(String::from_utf8_lossy(&buf).starts_with("HTTP/1.1 400"));
    handle.shutdown();
}

#[test]
fn an_empty_registry_refuses_to_start_and_shutdown_is_clean() {
    assert!(Server::start(Registry::new(), ServeConfig::default()).is_err());
    // Boot + immediate shutdown joins every thread (no hang, no panic).
    let (handle, client) = boot(200, 0, 3);
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    handle.shutdown();
}

/// Requests that never parse are still requests: the `400` for a garbage
/// request line and the `413` for an over-limit `Content-Length` each count
/// once under `responses.client_error_4xx` and `requests_by_endpoint.other`.
#[test]
fn malformed_and_oversized_requests_are_counted() {
    use std::io::{Read, Write};
    let mut registry = Registry::new();
    registry
        .add_table(
            "census",
            Arc::new(CensusGenerator::with_rows(200, 1).generate()),
            DatasetOptions::default(),
        )
        .unwrap();
    let config = ServeConfig {
        max_body_bytes: 64,
        ..ServeConfig::default()
    }
    .with_threads(1);
    let handle = Server::start(registry, config).unwrap();
    let counted = || {
        let report = handle.metrics().snapshot(Vec::new());
        let read = |section: &str, key: &str| {
            report
                .get(section)
                .and_then(|members| members.get(key))
                .and_then(Json::num)
                .unwrap_or_else(|| panic!("{section}.{key} is reported"))
        };
        (
            read("responses", "client_error_4xx"),
            read("requests_by_endpoint", "other"),
        )
    };
    assert_eq!(counted(), (0.0, 0.0));

    for (step, (bytes, status)) in [
        (b"garbage\r\n\r\n".as_slice(), "HTTP/1.1 400"),
        (
            b"POST /sessions HTTP/1.1\r\nContent-Length: 100000\r\n\r\n".as_slice(),
            "HTTP/1.1 413",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(bytes).unwrap();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).unwrap();
        let reply = String::from_utf8_lossy(&reply);
        assert!(reply.starts_with(status), "got: {reply}");
        let seen = (step + 1) as f64;
        assert_eq!(counted(), (seen, seen), "after {status}");
    }
    handle.shutdown();
}
