//! # atlas-bench
//!
//! Fixtures and the bench report module of Atlas's two bench programs:
//!
//! * `experiments` (`cargo run -p atlas-bench --release --bin experiments`)
//!   prints the paper's experiment tables. The paper ("Fast Cartography for
//!   Data Explorers", VLDB 2013) is a vision paper without result tables; the
//!   suite E1–E9 turns each figure and each measurable claim into a
//!   quantitative, reproducible check. Their scores are the committed
//!   `QUALITY.json`, which a tier-1 test holds every run to.
//! * `smoke` (`cargo run -p atlas-bench --release --bin smoke -- bench-smoke`
//!   or `-- trace-smoke`) writes the latency side: the `bench-smoke` report
//!   (the committed `BENCH_*.json` files, gated in CI) and a traced
//!   distributed explore as Chrome trace JSON. The served latency is the
//!   `benchmark/` harness's.
//!
//! [`report`] is everything that knows what a bench report is: its figures,
//! its file, the report it is compared with, and the gate.

#![warn(missing_docs)]

pub mod report;

use atlas_columnar::Table;
use atlas_datagen::{CensusGenerator, MixtureGenerator};
use std::sync::Arc;

/// The default census fixture.
pub fn census(rows: usize) -> Arc<Table> {
    Arc::new(CensusGenerator::with_rows(rows, 42).generate())
}

/// A mixture fixture with planted clusters, returning the table and labels.
pub fn mixture(rows: usize, clusters: usize) -> (Arc<Table>, Vec<u32>) {
    let ds = MixtureGenerator::with_shape(rows, clusters, 2, 2, 42).generate();
    (Arc::new(ds.table), ds.labels)
}

/// A purely numeric wide table for scaling experiments: `columns` independent
/// uniform attributes.
pub fn wide_numeric(rows: usize, columns: usize) -> Arc<Table> {
    use atlas_columnar::{DataType, Field, Schema, TableBuilder, Value};
    let fields: Vec<Field> = (0..columns)
        .map(|c| Field::new(format!("a{c}"), DataType::Float))
        .collect();
    let schema = Schema::new(fields).expect("generated schema is valid");
    let mut builder = TableBuilder::new("wide", schema);
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..rows {
        let row: Vec<Value> = (0..columns)
            .map(|_| Value::Float(next() * 1000.0))
            .collect();
        builder.push_row(&row).expect("row matches schema");
    }
    Arc::new(builder.build().expect("columns are consistent"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_expected_shapes() {
        assert_eq!(census(100).num_rows(), 100);
        let (table, labels) = mixture(120, 3);
        assert_eq!(table.num_rows(), 120);
        assert_eq!(labels.len(), 120);
        let wide = wide_numeric(60, 5);
        assert_eq!(wide.num_rows(), 60);
        assert_eq!(wide.num_columns(), 5);
    }
}
