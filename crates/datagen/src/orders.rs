//! TPC-H-like denormalised orders table.
//!
//! Section 5.2 of the paper flags two "real life" difficulties this generator
//! reproduces on purpose:
//!
//! * **multiple tables / joins** — the paper proposes to materialise the join;
//!   we generate the already-joined order+lineitem view, which is the input
//!   Atlas would see after that step;
//! * **high-cardinality, semantics-free columns** — `order_key` is a unique
//!   identifier and `comment_code` a high-cardinality code; both should be
//!   detected and skipped by the candidate-generation step.

use atlas_columnar::{DataType, Field, Schema, Table, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Market segments (as in TPC-H `customer.c_mktsegment`).
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
/// Shipping modes.
pub const SHIP_MODES: [&str; 4] = ["AIR", "RAIL", "SHIP", "TRUCK"];
/// Sales regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// Configuration of the orders generator.
#[derive(Debug, Clone)]
pub struct OrdersConfig {
    /// Number of rows.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
    /// Table name.
    pub table_name: String,
}

impl Default for OrdersConfig {
    fn default() -> Self {
        OrdersConfig {
            rows: 10_000,
            seed: 2013,
            table_name: "orders".to_string(),
        }
    }
}

/// The orders generator.
#[derive(Debug, Clone)]
pub struct OrdersGenerator {
    config: OrdersConfig,
}

impl OrdersGenerator {
    /// Create a generator with the given configuration.
    pub fn new(config: OrdersConfig) -> Self {
        OrdersGenerator { config }
    }

    /// Shorthand constructor.
    pub fn with_rows(rows: usize, seed: u64) -> Self {
        OrdersGenerator {
            config: OrdersConfig {
                rows,
                seed,
                ..OrdersConfig::default()
            },
        }
    }

    /// Schema of the generated table.
    pub fn schema() -> Schema {
        Schema::new(vec![
            Field::new("order_key", DataType::Int),
            Field::new("region", DataType::Str),
            Field::new("segment", DataType::Str),
            Field::new("priority", DataType::Str),
            Field::new("quantity", DataType::Int),
            Field::new("extended_price", DataType::Float),
            Field::new("discount", DataType::Float),
            Field::new("ship_mode", DataType::Str),
            Field::new("comment_code", DataType::Str),
        ])
        .expect("static schema is valid")
    }

    /// Generate the table.
    pub fn generate(&self) -> Table {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut builder = TableBuilder::new(cfg.table_name.clone(), Self::schema());
        for i in 0..cfg.rows {
            let region = REGIONS[rng.gen_range(0..REGIONS.len())];
            let segment = SEGMENTS[rng.gen_range(0..SEGMENTS.len())];
            // Priority is correlated with segment: machinery and building
            // orders skew HIGH, household orders skew LOW.
            let priority = {
                let p_high = match segment {
                    "MACHINERY" | "BUILDING" => 0.6,
                    "HOUSEHOLD" => 0.15,
                    _ => 0.33,
                };
                let r: f64 = rng.gen();
                if r < p_high {
                    "HIGH"
                } else if r < p_high + 0.3 {
                    "MEDIUM"
                } else {
                    "LOW"
                }
            };
            let quantity: i64 = rng.gen_range(1..=50);
            // Price is strongly driven by quantity (planted numeric dependency)
            // with a unit price that depends on the segment.
            let unit_price = match segment {
                "MACHINERY" => 900.0,
                "AUTOMOBILE" => 700.0,
                "BUILDING" => 500.0,
                "FURNITURE" => 300.0,
                _ => 150.0,
            };
            let extended_price =
                quantity as f64 * unit_price * (1.0 + 0.1 * rng.gen_range(-1.0..1.0));
            let discount = (rng.gen_range(0.0..0.1f64) * 100.0).round() / 100.0;
            // Ship mode is correlated with priority (HIGH orders fly).
            let ship_mode = if priority == "HIGH" && rng.gen_bool(0.7) {
                "AIR"
            } else {
                SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())]
            };
            let comment_code = format!("C{:06}", rng.gen_range(0..1_000_000));
            builder
                .push_row(&[
                    Value::Int(i as i64 + 1),
                    Value::Str(region.to_string()),
                    Value::Str(segment.to_string()),
                    Value::Str(priority.to_string()),
                    Value::Int(quantity),
                    Value::Float((extended_price * 100.0).round() / 100.0),
                    Value::Float(discount),
                    Value::Str(ship_mode.to_string()),
                    Value::Str(comment_code),
                ])
                .expect("row matches schema");
        }
        builder.build().expect("consistent columns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_rows_and_unique_keys() {
        let t = OrdersGenerator::with_rows(1000, 3).generate();
        assert_eq!(t.num_rows(), 1000);
        let stats = t.column_stats("order_key", &t.full_selection()).unwrap();
        assert_eq!(stats.distinct_count, 1000);
        assert!(stats.looks_like_identifier());
    }

    #[test]
    fn comment_code_is_high_cardinality() {
        let t = OrdersGenerator::with_rows(2000, 5).generate();
        let stats = t.column_stats("comment_code", &t.full_selection()).unwrap();
        assert!(stats.distinct_ratio() > 0.9);
    }

    #[test]
    fn price_depends_on_quantity() {
        let t = OrdersGenerator::with_rows(4000, 7).generate();
        let all = t.full_selection();
        let qty = t.column("quantity").unwrap();
        let price = t.column("extended_price").unwrap();
        let small = qty.select_range(&all, 1.0, 10.0);
        let large = qty.select_range(&all, 40.0, 50.0);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let p_small = mean(&price.numeric_values_where(&small));
        let p_large = mean(&price.numeric_values_where(&large));
        assert!(p_large > p_small * 2.0);
    }

    #[test]
    fn priority_depends_on_segment() {
        let t = OrdersGenerator::with_rows(6000, 9).generate();
        let all = t.full_selection();
        let seg = t.column("segment").unwrap();
        let pri = t.column("priority").unwrap();
        let machinery = seg.select_in(&all, &["MACHINERY".to_string()]);
        let household = seg.select_in(&all, &["HOUSEHOLD".to_string()]);
        let high = pri.select_in(&all, &["HIGH".to_string()]);
        let p_m = high.intersection_count(&machinery) as f64 / machinery.count() as f64;
        let p_h = high.intersection_count(&household) as f64 / household.count() as f64;
        assert!(p_m > p_h + 0.2, "p_machinery={p_m} p_household={p_h}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = OrdersGenerator::with_rows(200, 11).generate();
        let b = OrdersGenerator::with_rows(200, 11).generate();
        assert_eq!(a.row(123).unwrap(), b.row(123).unwrap());
    }
}
