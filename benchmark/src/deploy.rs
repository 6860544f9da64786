//! The four workloads and the deployments they run against: `atlas-serve`
//! servers started in-process through the public API, with every setting
//! that a host default could change pinned here.

use crate::calib::Yardstick;
use crate::script::Flavor;
use atlas_columnar::Table;
use atlas_core::AtlasConfig;
use atlas_datagen::{CensusConfig, CensusGenerator};
use atlas_serve::{DatasetOptions, Registry, ServeConfig, Server, ServerHandle};
use std::path::Path;
use std::sync::Arc;

/// The dataset every workload serves.
pub const DATASET: &str = "census";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Engine,
    Hot,
    Dist,
    Ingest,
}

/// Table size. Runs use [`Scale::FULL`]; the unit tests replay the same
/// scripts over a table small enough for a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub rows: usize,
    /// `None` is the storage default (65 536 rows, 16 segments at 1M rows).
    pub segment_rows: Option<usize>,
}

impl Scale {
    pub const FULL: Scale = Scale {
        rows: 1_000_000,
        segment_rows: None,
    };
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Engine,
        Workload::Hot,
        Workload::Dist,
        Workload::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Engine => "engine-1m",
            Workload::Hot => "hot-1m",
            Workload::Dist => "dist-2shard-1m",
            Workload::Ingest => "ingest-1m",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn flavor(self) -> Flavor {
        match self {
            Workload::Engine | Workload::Hot => Flavor::Session,
            Workload::Dist => Flavor::Distributed,
            Workload::Ingest => Flavor::Ingest,
        }
    }

    /// The engine configuration, with the thread count pinned: 2, or 1 per
    /// server where three servers share the machine's two cores.
    pub fn config(self) -> AtlasConfig {
        match self {
            // Median cuts, composition merge: the paper's defaults.
            Workload::Engine | Workload::Hot => AtlasConfig::default().with_parallelism(2),
            // The coordinator requires the product merge.
            Workload::Dist => AtlasConfig::fast().with_parallelism(1),
            Workload::Ingest => AtlasConfig::fast().with_parallelism(2),
        }
    }

    /// Shared result cache entries; only `hot-1m` caches. Its 25 distinct
    /// queries (one whole-table, 8 filters, 16 regions) fit in 64.
    pub fn cache_capacity(self) -> usize {
        if self == Workload::Hot {
            64
        } else {
            0
        }
    }

    /// What the workload's latencies are held against (see `calib`): a
    /// cache-hit step is half work, half thread wake-ups; every other step
    /// is pipeline work on two threads, on the shards as well.
    pub fn yardstick(self) -> Yardstick {
        match self {
            Workload::Hot => Yardstick::PipelineAndEcho,
            Workload::Engine | Workload::Dist | Workload::Ingest => Yardstick::Pipeline,
        }
    }

    /// Cycles between two calibration readings: one, or a whole pass where a
    /// cycle is shorter than a reading.
    pub fn cycles_per_reading(self) -> usize {
        if self == Workload::Hot {
            crate::script::POOL
        } else {
            1
        }
    }

    /// Discarded warm-up cycles: two; one where a cycle takes most of a
    /// second; one full pass where every measured step must be a cache hit.
    pub fn warmup_cycles(self) -> usize {
        match self {
            Workload::Hot => crate::script::POOL,
            Workload::Dist => 1,
            Workload::Engine | Workload::Ingest => 2,
        }
    }

    /// Measured cycles per epoch at the nominal run length, a whole number
    /// of passes over the pool.
    pub fn nominal_cycles(self) -> usize {
        match self {
            Workload::Engine => 16,
            Workload::Hot => 400,
            Workload::Dist => 8,
            Workload::Ingest => 40,
        }
    }
}

/// The census table of a run: `seed` is the table seed.
pub fn census(scale: Scale, seed: u64) -> Arc<Table> {
    Arc::new(
        CensusGenerator::new(CensusConfig {
            rows: scale.rows,
            seed,
            segment_rows: scale.segment_rows,
            ..CensusConfig::default()
        })
        .generate(),
    )
}

/// Where a deployment's table comes from.
pub enum Source<'a> {
    Table(Arc<Table>),
    /// Booted through the `csv:census=PATH` spec (the streaming CSV path).
    Csv(&'a Path),
}

/// Running servers. Dropping the handles shuts them down and joins their
/// threads.
pub struct Deployment {
    /// The server the load generator talks to.
    pub front: ServerHandle,
    /// Shard servers behind it (`dist-2shard-1m` only).
    pub shards: Vec<ServerHandle>,
}

fn serve(registry: Registry, shards: Vec<String>) -> Result<ServerHandle, String> {
    let config = ServeConfig {
        threads: 2,
        shards,
        ..ServeConfig::default()
    };
    Server::start(registry, config).map_err(|e| format!("server start: {e}"))
}

fn registry(source: &Source<'_>, options: DatasetOptions) -> Result<Registry, String> {
    let mut registry = Registry::new();
    match source {
        Source::Table(table) => registry.add_table(DATASET, Arc::clone(table), options),
        Source::Csv(path) => {
            registry.add_spec(&format!("csv:{DATASET}={}", path.display()), options)
        }
    }
    .map_err(|e| format!("dataset: {e}"))?;
    Ok(registry)
}

impl Deployment {
    /// Start `workload`'s servers over `source`.
    pub fn start(workload: Workload, source: Source<'_>) -> Result<Deployment, String> {
        let options = DatasetOptions {
            config: workload.config(),
            cache_capacity: workload.cache_capacity(),
        };
        let mut shards = Vec::new();
        if workload == Workload::Dist {
            for _ in 0..2 {
                shards.push(serve(registry(&source, options.clone())?, Vec::new())?);
            }
        }
        let addrs = shards.iter().map(|s| s.addr().to_string()).collect();
        // The front's own dataset entry supplies the engine configuration of
        // distributed explores; the shards hold the rows.
        let front = serve(registry(&source, options)?, addrs)?;
        Ok(Deployment { front, shards })
    }

    /// `503`s the admission control of any server answered.
    pub fn rejected(&self) -> u64 {
        self.front.metrics().rejected()
            + self
                .shards
                .iter()
                .map(|s| s.metrics().rejected())
                .sum::<u64>()
    }
}
