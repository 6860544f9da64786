//! Property tests pinning the printer/parser round-trip:
//! `parse_query(to_sql(q)) == q` for random conjunctive queries.
//!
//! This is the guarantee the wire protocol of `atlas-serve` leans on: region
//! predicates travel as SQL strings, so printing and re-parsing must
//! reconstruct the predicate **exactly** — bounds bit-for-bit (the printer
//! uses shortest-round-trip float formatting), value sets verbatim
//! (quote-escaping included), open ends (`>=`, `<=`, `IS NOT NULL`)
//! preserved — and a query posted back as text means what it printed: a
//! seeded token soup of `SELECT … WHERE` statements, each that parses
//! printed to a fixed point that selects the same rows.

use atlas_columnar::{DataType, Field, Schema, Table, TableBuilder, Value};
use atlas_query::{evaluate, parse_query, to_sql, ConjunctiveQuery, Predicate, PredicateSet};
use proptest::prelude::*;

/// Build one predicate from the generated raw material. Attribute names are
/// `{name}_{i}` so they are distinct per query and never collide with
/// keywords.
fn build_predicate(
    name: &str,
    attr_idx: usize,
    kind: usize,
    numbers: &[f64],
    ints: &[i64],
    strings: &[String],
    value_count: usize,
) -> Predicate {
    let attribute = format!("{name}_{attr_idx}");
    let num = |i: usize| numbers[i % numbers.len()];
    match kind {
        // A bounded float range (the two bounds in either order — inverted
        // ranges print and must re-parse unchanged too).
        0 => Predicate::range(attribute, num(attr_idx), num(attr_idx + 1)),
        // A bounded integer range (exercises the integral fast path of the
        // printer's number formatting).
        1 => {
            let a = ints[attr_idx % ints.len()] as f64;
            let b = ints[(attr_idx + 1) % ints.len()] as f64;
            Predicate::range(attribute, a.min(b), a.max(b))
        }
        // Half-open ranges print as comparisons.
        2 => Predicate::range(attribute, num(attr_idx), f64::INFINITY),
        3 => Predicate::range(attribute, f64::NEG_INFINITY, num(attr_idx)),
        // The fully unbounded range prints as IS NOT NULL.
        4 => Predicate::range(attribute, f64::NEG_INFINITY, f64::INFINITY),
        // One-point ranges at an infinity hold the infinite cells only.
        5 => Predicate::range(attribute, f64::NEG_INFINITY, f64::NEG_INFINITY),
        6 => Predicate::range(attribute, f64::INFINITY, f64::INFINITY),
        // A categorical value set (quotes, printable ASCII and beyond).
        _ => {
            let values: Vec<&str> = (0..value_count)
                .map(|i| strings[(attr_idx + i) % strings.len()].as_str())
                .collect();
            Predicate::values(attribute, values)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn printed_queries_reparse_to_themselves(
        table in "t_[a-z0-9_]{0,8}",
        name in "[a-zà-öø-ÿ一-龥][a-z0-9_à-öø-ÿ]{0,6}",
        kinds in proptest::collection::vec(0usize..8, 1..5),
        numbers in proptest::collection::vec(-1.0e15..1.0e15f64, 8),
        ints in proptest::collection::vec(-1_000_000i64..1_000_000, 8),
        strings in proptest::collection::vec("[ -~à-ÿ€中😀]{0,12}", 8),
        value_count in 1usize..4,
    ) {
        let query = ConjunctiveQuery {
            table: table.clone(),
            predicates: kinds
                .iter()
                .enumerate()
                .map(|(i, &kind)| {
                    build_predicate(&name, i, kind, &numbers, &ints, &strings, value_count)
                })
                .collect(),
        };
        let sql = to_sql(&query);
        let reparsed = parse_query(&sql).expect("printed SQL parses");
        prop_assert_eq!(&reparsed, &query, "{} did not round-trip", sql);
        // Printing is a fixed point: the reparsed query prints identically.
        prop_assert_eq!(to_sql(&reparsed), sql);
    }

    #[test]
    fn extreme_float_bounds_survive_bit_for_bit(
        bits in proptest::collection::vec(0u64..u64::MAX, 2),
        offset in 0usize..3,
    ) {
        // Drive the bounds from raw bit patterns: subnormals, huge
        // magnitudes, one-ULP-apart neighbours — everything finite must
        // survive print + parse exactly.
        let sanitize = |b: u64| {
            let x = f64::from_bits(b);
            if x.is_finite() { x } else { 0.5 }
        };
        let lo = sanitize(bits[0]);
        let hi = sanitize(bits[1]);
        let query = ConjunctiveQuery {
            table: "t".to_string(),
            predicates: vec![
                Predicate::range("c0", lo.min(hi), lo.max(hi)),
                Predicate::range("c1", sanitize(bits[offset % 2]), f64::INFINITY),
            ],
        };
        let reparsed = parse_query(&to_sql(&query)).expect("printed SQL parses");
        for (a, b) in reparsed.predicates.iter().zip(query.predicates.iter()) {
            let (PredicateSet::Range { lo: alo, hi: ahi }, PredicateSet::Range { lo: blo, hi: bhi }) =
                (&a.set, &b.set)
            else {
                panic!("ranges stay ranges");
            };
            prop_assert_eq!(alo.to_bits(), blo.to_bits());
            prop_assert_eq!(ahi.to_bits(), bhi.to_bits());
        }
    }

    #[test]
    fn value_sets_with_hostile_strings_round_trip(
        values in proptest::collection::vec("[ -~à-ÿ€中😀]{0,16}", 1..5),
    ) {
        // Single quotes, doubled quotes, backslashes, spaces — the printer
        // escapes, the lexer unescapes, nothing is lost or gained.
        let query = ConjunctiveQuery {
            table: "t".to_string(),
            predicates: vec![Predicate::values("c0", values.clone())],
        };
        let sql = to_sql(&query);
        let reparsed = parse_query(&sql).expect("printed SQL parses");
        prop_assert_eq!(&reparsed, &query, "{} did not round-trip", sql);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn a_parsed_token_soup_prints_to_a_fixed_point_that_selects_the_same_rows(
        soup in proptest::collection::vec(
            (0usize..ATTRIBUTES.len(), 0usize..OPERATORS.len(), 0usize..WORDS.len(), 0usize..WORDS.len()),
            1..5,
        ),
    ) {
        let predicates: Vec<String> = soup
            .iter()
            .map(|&(attribute, operator, first, second)| {
                let operator = OPERATORS[operator]
                    .replacen("{}", WORDS[first], 1)
                    .replacen("{}", WORDS[second], 1);
                format!("{} {operator}", ATTRIBUTES[attribute])
            })
            .collect();
        let statement = format!("SELECT * FROM t WHERE {}", predicates.join(" AND "));
        // Many soups do not parse.
        if let Ok(query) = parse_query(&statement) {
            let printed = to_sql(&query);
            let reparsed = parse_query(&printed).expect("printed SQL parses");
            prop_assert_eq!(&to_sql(&reparsed), &printed, "{} is no fixed point", statement);
            let table = soup_table();
            let rows = |query: &ConjunctiveQuery| {
                evaluate(query, &table)
                    .map(|rows| rows.to_indices())
                    .map_err(|error| error.to_string())
            };
            prop_assert_eq!(rows(&reparsed), rows(&query), "{} printed as {}", statement, printed);
        }
    }
}

/// The token soup: a conjunction of attributes (one of them not in the
/// table) each under an operator whose operands are words drawn from numbers
/// (infinities spelled as the literals that overflow to them), strings beyond
/// ASCII, and tokens that break the grammar.
const ATTRIBUTES: &[&str] = &["x", "größe", "city", "ort"];
const OPERATORS: &[&str] = &[
    "= {}",
    "< {}",
    "<= {}",
    "> {}",
    ">= {}",
    "BETWEEN {} AND {}",
    "IN ({})",
    "IN ({}, {})",
    "IS NOT NULL",
    "{} {}",
];
const WORDS: &[&str] = &[
    "0",
    "-0",
    "1",
    "2.5",
    "60",
    "99",
    "1e309",
    "-1e309",
    "1e-320",
    "'Zürich'",
    "'Genève'",
    "'o''brien'",
    "''",
    "'中文'",
    "'😀'",
    "(",
    "AND",
    "IS",
    "x",
];

/// Ten rows over the soup's attributes: `x` holds both infinities, both
/// zeros and a subnormal; `city` holds non-ASCII values; both hold NULLs.
fn soup_table() -> Table {
    let schema = Schema::new(vec![
        Field::new("x", DataType::Float),
        Field::new("größe", DataType::Int),
        Field::new("city", DataType::Str),
    ])
    .unwrap();
    let mut builder = TableBuilder::new("t", schema);
    let x = [
        Some(f64::NEG_INFINITY),
        Some(f64::NEG_INFINITY),
        Some(60.0),
        Some(99.0),
        Some(2.5),
        Some(-0.0),
        Some(1e-320),
        Some(f64::INFINITY),
        None,
        Some(0.0),
    ];
    let city = [
        Some("Zürich"),
        Some("Zürich"),
        Some("Genève"),
        Some("o'brien"),
        Some(""),
        Some("中文"),
        Some("😀"),
        None,
        Some("Genève"),
        Some("Zürich"),
    ];
    for (row, (x, city)) in x.into_iter().zip(city).enumerate() {
        builder
            .push_row(&[
                x.map_or(Value::Null, Value::Float),
                Value::Int(row as i64 % 3),
                city.map_or(Value::Null, |city| Value::Str(city.to_string())),
            ])
            .unwrap();
    }
    builder.build().unwrap()
}
