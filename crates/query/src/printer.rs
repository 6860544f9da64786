//! Rendering queries back to SQL and to compact notation.

use crate::ast::{ConjunctiveQuery, Predicate, PredicateSet};

fn format_number(x: f64) -> String {
    if x == f64::INFINITY {
        "inf".to_string()
    } else if x == f64::NEG_INFINITY {
        "-inf".to_string()
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        // Rust's shortest round-trip formatting: printing and re-parsing a
        // region query must give back exactly the same region, so bounds that
        // sit one ULP above a split point are preserved bit-for-bit.
        format!("{x}")
    }
}

/// A bound as SQL. An infinite one is a literal that overflows to it, which
/// the lexer reads back as the same infinity.
fn sql_number(x: f64) -> String {
    if x.is_infinite() {
        if x > 0.0 { "1e309" } else { "-1e309" }.to_string()
    } else {
        format_number(x)
    }
}

fn escape(s: &str) -> String {
    s.replace('\'', "''")
}

fn predicate_to_sql(p: &Predicate) -> String {
    match &p.set {
        PredicateSet::Range { lo, hi } => {
            // Only a bound that excludes nothing is left out: `[-inf, -inf]`
            // holds the `-inf` cells, not every number.
            match (*lo == f64::NEG_INFINITY, *hi == f64::INFINITY) {
                (true, true) => format!("{} IS NOT NULL", p.attribute),
                (true, false) => format!("{} <= {}", p.attribute, sql_number(*hi)),
                (false, true) => format!("{} >= {}", p.attribute, sql_number(*lo)),
                (false, false) => format!(
                    "{} BETWEEN {} AND {}",
                    p.attribute,
                    sql_number(*lo),
                    sql_number(*hi)
                ),
            }
        }
        PredicateSet::Values(values) => {
            let items: Vec<String> = values.iter().map(|v| format!("'{}'", escape(v))).collect();
            format!("{} IN ({})", p.attribute, items.join(", "))
        }
    }
}

/// Render a query as executable (restricted) SQL.
pub fn to_sql(query: &ConjunctiveQuery) -> String {
    let table = if query.table.is_empty() {
        "?"
    } else {
        query.table.as_str()
    };
    if query.predicates.is_empty() {
        return format!("SELECT * FROM {table}");
    }
    let preds: Vec<String> = query.predicates.iter().map(predicate_to_sql).collect();
    format!("SELECT * FROM {table} WHERE {}", preds.join(" AND "))
}

/// Render a query in the compact notation of the paper's figures, one
/// predicate per line (e.g. `Age: [17, 37]` / `Sex: {'Male'}`).
pub fn to_compact(query: &ConjunctiveQuery) -> String {
    if query.predicates.is_empty() {
        return "all".to_string();
    }
    let mut lines = Vec::with_capacity(query.predicates.len());
    for p in &query.predicates {
        let set = match &p.set {
            PredicateSet::Range { lo, hi } => {
                format!("[{}, {}]", format_number(*lo), format_number(*hi))
            }
            PredicateSet::Values(values) => {
                let items: Vec<String> = values.iter().map(|v| format!("'{v}'")).collect();
                format!("{{{}}}", items.join(", "))
            }
        };
        lines.push(format!("{}: {}", p.attribute, set));
    }
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn sql_round_trips_through_the_parser() {
        let q = ConjunctiveQuery::all("survey")
            .and(Predicate::range("age", 17.0, 90.0))
            .and(Predicate::values("education", ["BSc", "MSc"]));
        let sql = to_sql(&q);
        assert_eq!(
            sql,
            "SELECT * FROM survey WHERE age BETWEEN 17 AND 90 AND education IN ('BSc', 'MSc')"
        );
        let reparsed = parse_query(&sql).unwrap();
        assert_eq!(reparsed, q);
    }

    #[test]
    fn open_ended_ranges_use_comparisons() {
        let q = ConjunctiveQuery::all("t")
            .and(Predicate::range("a", 5.0, f64::INFINITY))
            .and(Predicate::range("b", f64::NEG_INFINITY, 9.0));
        let sql = to_sql(&q);
        assert!(sql.contains("a >= 5"));
        assert!(sql.contains("b <= 9"));
        let reparsed = parse_query(&sql).unwrap();
        assert_eq!(reparsed.num_predicates(), 2);
    }

    #[test]
    fn empty_query_and_empty_table() {
        assert_eq!(to_sql(&ConjunctiveQuery::all("t")), "SELECT * FROM t");
        assert_eq!(to_sql(&ConjunctiveQuery::all("")), "SELECT * FROM ?");
        assert_eq!(to_compact(&ConjunctiveQuery::all("t")), "all");
    }

    #[test]
    fn quotes_are_escaped() {
        let q = ConjunctiveQuery::all("t").and(Predicate::values("name", ["o'brien"]));
        let sql = to_sql(&q);
        assert!(sql.contains("'o''brien'"));
        let reparsed = parse_query(&sql).unwrap();
        assert!(reparsed
            .predicate_on("name")
            .unwrap()
            .set
            .contains_value("o'brien"));
    }

    #[test]
    fn compact_form_matches_figure_style() {
        let q = ConjunctiveQuery::all("survey")
            .and(Predicate::range("Age", 17.0, 37.0))
            .and(Predicate::values("Sex", ["Male"]));
        let compact = to_compact(&q);
        assert_eq!(compact, "Age: [17, 37]\nSex: {'Male'}");
    }

    #[test]
    fn unbounded_range_renders_as_not_null_and_round_trips() {
        let q =
            ConjunctiveQuery::all("t").and(Predicate::range("x", f64::NEG_INFINITY, f64::INFINITY));
        let sql = to_sql(&q);
        assert!(sql.contains("x IS NOT NULL"));
        assert_eq!(parse_query(&sql).unwrap(), q);
        // Malformed variants of the clause are rejected, not misparsed.
        assert!(parse_query("x IS NULL").is_err());
        assert!(parse_query("x IS NOT").is_err());
    }

    #[test]
    fn an_infinite_bound_that_excludes_rows_is_printed() {
        let cases = [
            (f64::NEG_INFINITY, f64::NEG_INFINITY, "x <= -1e309"),
            (f64::INFINITY, f64::INFINITY, "x >= 1e309"),
            (5.0, f64::NEG_INFINITY, "x BETWEEN 5 AND -1e309"),
        ];
        for (lo, hi, clause) in cases {
            let q = ConjunctiveQuery::all("t").and(Predicate::range("x", lo, hi));
            let sql = to_sql(&q);
            assert!(sql.ends_with(clause), "{sql}");
            assert_eq!(parse_query(&sql).unwrap(), q);
        }
    }

    #[test]
    fn disjoint_value_sets_print_as_an_empty_list_that_parses() {
        let q = parse_query("SELECT * FROM t WHERE c IN ('a') AND c = 'b'").unwrap();
        let sql = to_sql(&q);
        assert_eq!(sql, "SELECT * FROM t WHERE c IN ()");
        assert_eq!(parse_query(&sql).unwrap(), q);
    }

    #[test]
    fn float_formatting_is_trimmed() {
        let q = ConjunctiveQuery::all("t").and(Predicate::range("x", 0.5, 2.25));
        let sql = to_sql(&q);
        assert!(sql.contains("0.5") && sql.contains("2.25"));
        assert!(!sql.contains("0.5000"));
    }
}
