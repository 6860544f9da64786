//! The `atlas-serve` binary: boot the exploration server from the command
//! line.
//!
//! ```text
//! cargo run --release -p atlas-serve -- --port 7171 --dataset census:100000
//! ```
//!
//! Options:
//!
//! * `--port N` — TCP port (default 7171; 0 picks an ephemeral port)
//! * `--bind ADDR` — bind address (default 127.0.0.1)
//! * `--dataset SPEC` — repeatable; `census:ROWS[:SEED]`,
//!   `sdss:ROWS[:SEED]`, `orders:ROWS[:SEED]` or `csv:NAME=PATH`
//!   (default `census:20000`)
//! * `--threads N` — worker threads (default: `ATLAS_SERVE_THREADS` or the
//!   hardware threads)
//! * `--cache N` — shared result-cache capacity per dataset, 0 disables
//!   (default 64)
//! * `--fast` / `--quality` — engine preset (default: the paper's config,
//!   median cuts merged by composition; `--fast` merges by product). A
//!   coordinator explores under the same preset as its datasets.
//! * `--shards HOST:PORT,…` — coordinate `POST /distributed/explore` over
//!   these shard servers (they must serve the same dataset specs)
//! * `--shard-timeout-ms N` — per-shard request timeout (default 10000)
//! * `--shard-connect-timeout-ms N` — TCP connect budget towards a shard,
//!   split from the request timeout so an unreachable host fails fast
//!   (default 2000)
//! * `--retry-attempts N` — total attempts per shard call (default 2)
//! * `--retry-backoff-ms N` — backoff before the first retry, growing
//!   exponentially with seeded jitter (default 0: retry immediately)
//! * `--hedge-after-ms N` — duplicate a shard read still unanswered after
//!   N ms; first success wins (default: no hedging)
//! * `--circuit-threshold N` — consecutive shard failures that open its
//!   circuit breaker; 0 disables the breaker (default 5)
//! * `--circuit-cooldown-ms N` — how long an open circuit refuses calls
//!   before letting one probe through (default 5000)
//! * `--degraded-max-failed K` — let a distributed explore that opts in
//!   with `{"mode": "degraded"}` answer from the surviving shards when at
//!   most K shards are down (default: degraded mode disabled)
//!
//! The fault-policy flags, `--shard-timeout-ms` through
//! `--circuit-cooldown-ms`, set the fields of `serve_config.coordinator`,
//! the coordinator's `CoordinatorOptions`.

use atlas_core::AtlasConfig;
use atlas_serve::{DatasetOptions, HedgePolicy, Registry, ServeConfig, Server};
use std::process::exit;

fn fail(message: &str) -> ! {
    eprintln!("atlas-serve: {message}");
    exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut port: u16 = 7171;
    let mut bind = "127.0.0.1".to_string();
    let mut specs: Vec<String> = Vec::new();
    let mut serve_config = ServeConfig::default();
    let mut engine_config = AtlasConfig::default();
    let mut cache_capacity = 64usize;

    let value_of = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => {
                port = value_of(&mut args, "--port")
                    .parse()
                    .unwrap_or_else(|_| fail("--port needs a number"));
            }
            "--bind" => bind = value_of(&mut args, "--bind"),
            "--dataset" => specs.push(value_of(&mut args, "--dataset")),
            "--threads" => {
                serve_config.threads = value_of(&mut args, "--threads")
                    .parse()
                    .unwrap_or_else(|_| fail("--threads needs a number"));
            }
            "--cache" => {
                cache_capacity = value_of(&mut args, "--cache")
                    .parse()
                    .unwrap_or_else(|_| fail("--cache needs a number"));
            }
            "--fast" => engine_config = AtlasConfig::fast(),
            "--quality" => engine_config = AtlasConfig::quality(),
            "--shards" => {
                serve_config.shards = value_of(&mut args, "--shards")
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--shard-timeout-ms" => {
                let ms: u64 = value_of(&mut args, "--shard-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--shard-timeout-ms needs a number"));
                serve_config.coordinator.shard_timeout = std::time::Duration::from_millis(ms);
            }
            "--shard-connect-timeout-ms" => {
                let ms: u64 = value_of(&mut args, "--shard-connect-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--shard-connect-timeout-ms needs a number"));
                serve_config.coordinator.connect_timeout = std::time::Duration::from_millis(ms);
            }
            "--retry-attempts" => {
                let n: u32 = value_of(&mut args, "--retry-attempts")
                    .parse()
                    .unwrap_or_else(|_| fail("--retry-attempts needs a number"));
                serve_config.coordinator.retry =
                    serve_config.coordinator.retry.with_max_attempts(n);
            }
            "--retry-backoff-ms" => {
                let ms: u64 = value_of(&mut args, "--retry-backoff-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--retry-backoff-ms needs a number"));
                serve_config.coordinator.retry = serve_config
                    .coordinator
                    .retry
                    .with_base_backoff(std::time::Duration::from_millis(ms));
            }
            "--hedge-after-ms" => {
                let ms: u64 = value_of(&mut args, "--hedge-after-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--hedge-after-ms needs a number"));
                serve_config.coordinator.hedge =
                    HedgePolicy::After(std::time::Duration::from_millis(ms));
            }
            "--circuit-threshold" => {
                serve_config.coordinator.circuit.failure_threshold =
                    value_of(&mut args, "--circuit-threshold")
                        .parse()
                        .unwrap_or_else(|_| fail("--circuit-threshold needs a number"));
            }
            "--circuit-cooldown-ms" => {
                let ms: u64 = value_of(&mut args, "--circuit-cooldown-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--circuit-cooldown-ms needs a number"));
                serve_config.coordinator.circuit.cool_down = std::time::Duration::from_millis(ms);
            }
            "--degraded-max-failed" => {
                let k: usize = value_of(&mut args, "--degraded-max-failed")
                    .parse()
                    .unwrap_or_else(|_| fail("--degraded-max-failed needs a number"));
                serve_config.degraded_max_failed = Some(k);
            }
            "--help" | "-h" => {
                println!(
                    "usage: atlas-serve [--port N] [--bind ADDR] [--dataset SPEC]... \
                     [--threads N] [--cache N] [--fast|--quality] \
                     [--shards HOST:PORT,...] \
                     [--shard-timeout-ms N] [--shard-connect-timeout-ms N] \
                     [--retry-attempts N] [--retry-backoff-ms N] \
                     [--hedge-after-ms N] [--circuit-threshold N] \
                     [--circuit-cooldown-ms N] [--degraded-max-failed K]"
                );
                return;
            }
            other => fail(&format!("unknown option '{other}' (try --help)")),
        }
    }
    if specs.is_empty() {
        specs.push("census:20000".to_string());
    }
    serve_config.bind = format!("{bind}:{port}");

    let mut registry = Registry::new();
    for spec in &specs {
        let options = DatasetOptions {
            config: engine_config.clone(),
            cache_capacity,
        };
        if let Err(error) = registry.add_spec(spec, options) {
            fail(&format!("loading '{spec}' failed: {error}"));
        }
        match registry.datasets().last() {
            Some(dataset) => eprintln!("loaded dataset '{}' from '{spec}'", dataset.name()),
            None => fail(&format!("loading '{spec}' registered no dataset")),
        }
    }

    let handle = match Server::start(registry, serve_config.clone()) {
        Ok(handle) => handle,
        Err(error) => fail(&format!("binding {} failed: {error}", serve_config.bind)),
    };
    let addr = handle.addr();
    eprintln!(
        "atlas-serve listening on http://{addr} ({} workers)",
        serve_config.threads
    );
    eprintln!("try:");
    eprintln!("  curl -s http://{addr}/healthz");
    eprintln!("  curl -s -X POST http://{addr}/sessions -d '{{}}'");
    eprintln!("  curl -s -X POST http://{addr}/sessions/<token>/explore -d 'SELECT * FROM census'");
    handle.join();
}
