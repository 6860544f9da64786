//! Recursive-descent parser for the restricted SQL syntax.
//!
//! Grammar (keywords are case-insensitive):
//!
//! ```text
//! query      := SELECT '*' FROM ident [ WHERE conjunction ]
//!             | conjunction                      (bare predicate list, table = "")
//! conjunction:= predicate ( AND predicate )*
//! predicate  := ident BETWEEN number AND number
//!             | ident IN '(' [ literal ( ',' literal )* ] ')'
//!             | ident '=' literal
//!             | ident ( '<' | '<=' | '>' | '>=' ) number
//!             | ident IS NOT NULL
//! literal    := number | string
//! ```
//!
//! `IS NOT NULL` is the parse of the unbounded range `[-inf, inf]` the
//! printer emits for it, a number that overflows (`1e309`) is an infinity,
//! and `IN ()` is the empty value set, so every predicate the engine can
//! produce — region queries shipped over the wire included — round-trips
//! through print + parse.
//!
//! Only conjunctions are accepted — that is the whole point of the language
//! ("a restriction of SQL which can only express conjunction of predicates").

use crate::ast::{ConjunctiveQuery, Predicate, PredicateSet};
use crate::error::{QueryError, Result};
use crate::lexer::{tokenize, Token};

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> QueryError {
        QueryError::Parse {
            position: self.pos,
            message: message.into(),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(t) if t.is_keyword(kw) => Ok(()),
            Some(t) => Err(self.error(format!("expected {kw}, found {t:?}"))),
            None => Err(self.error(format!("expected {kw}, found end of input"))),
        }
    }

    fn expect_token(&mut self, token: &Token, what: &str) -> Result<()> {
        match self.next() {
            Some(ref t) if t == token => Ok(()),
            Some(t) => Err(self.error(format!("expected {what}, found {t:?}"))),
            None => Err(self.error(format!("expected {what}, found end of input"))),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(t) => Err(self.error(format!("expected identifier, found {t:?}"))),
            None => Err(self.error("expected identifier, found end of input")),
        }
    }

    fn number(&mut self) -> Result<f64> {
        match self.next() {
            Some(Token::Number(x)) => Ok(x),
            Some(t) => Err(self.error(format!("expected number, found {t:?}"))),
            None => Err(self.error("expected number, found end of input")),
        }
    }

    /// literal := number | string ; returned as (string form, is_number)
    fn literal(&mut self) -> Result<(String, Option<f64>)> {
        match self.next() {
            Some(Token::Number(x)) => Ok((format_number(x), Some(x))),
            Some(Token::StringLit(s)) => Ok((s, None)),
            Some(t) => Err(self.error(format!("expected literal, found {t:?}"))),
            None => Err(self.error("expected literal, found end of input")),
        }
    }

    fn predicate(&mut self) -> Result<Predicate> {
        let attribute = self.ident()?;
        match self.peek().cloned() {
            Some(t) if t.is_keyword("between") => {
                self.next();
                let lo = self.number()?;
                self.expect_keyword("and")?;
                let hi = self.number()?;
                Ok(Predicate::range(attribute, lo, hi))
            }
            Some(t) if t.is_keyword("in") => {
                self.next();
                self.expect_token(&Token::LParen, "'('")?;
                let mut values = Vec::new();
                // `IN ()` is the empty set: what a conjunction of disjoint
                // value sets prints as.
                if self.peek() == Some(&Token::RParen) {
                    self.next();
                    return Ok(Predicate::values(attribute, values));
                }
                loop {
                    let (v, _) = self.literal()?;
                    values.push(v);
                    match self.next() {
                        Some(Token::Comma) => continue,
                        Some(Token::RParen) => break,
                        Some(t) => {
                            return Err(self.error(format!("expected ',' or ')', found {t:?}")))
                        }
                        None => return Err(self.error("expected ',' or ')', found end of input")),
                    }
                }
                Ok(Predicate::values(attribute, values))
            }
            Some(Token::Eq) => {
                self.next();
                let (value, number) = self.literal()?;
                match number {
                    Some(x) => Ok(Predicate::range(attribute, x, x)),
                    None => Ok(Predicate::values(attribute, [value])),
                }
            }
            Some(Token::Lt) => {
                self.next();
                let x = self.number()?;
                Ok(Predicate {
                    attribute,
                    set: strictly_below(x),
                })
            }
            Some(Token::Le) => {
                self.next();
                let x = self.number()?;
                Ok(Predicate::range(attribute, f64::NEG_INFINITY, x))
            }
            Some(Token::Gt) => {
                self.next();
                let x = self.number()?;
                Ok(Predicate {
                    attribute,
                    set: strictly_above(x),
                })
            }
            Some(Token::Ge) => {
                self.next();
                let x = self.number()?;
                Ok(Predicate::range(attribute, x, f64::INFINITY))
            }
            Some(t) if t.is_keyword("is") => {
                // `attr IS NOT NULL`: the fully unbounded range — exactly what
                // the printer renders a `[-inf, inf]` predicate as.
                self.next();
                self.expect_keyword("not")?;
                self.expect_keyword("null")?;
                Ok(Predicate::range(
                    attribute,
                    f64::NEG_INFINITY,
                    f64::INFINITY,
                ))
            }
            Some(t) => Err(self.error(format!("expected a predicate operator, found {t:?}"))),
            None => Err(self.error("expected a predicate operator, found end of input")),
        }
    }

    fn conjunction(&mut self) -> Result<Vec<Predicate>> {
        let mut predicates = vec![self.predicate()?];
        while let Some(t) = self.peek() {
            if t.is_keyword("and") {
                self.next();
                predicates.push(self.predicate()?);
            } else if t.is_keyword("or") {
                return Err(self
                    .error("OR is not part of the language: Atlas queries are conjunctions only"));
            } else {
                break;
            }
        }
        Ok(predicates)
    }

    fn query(&mut self) -> Result<ConjunctiveQuery> {
        let starts_with_select = matches!(self.peek(), Some(t) if t.is_keyword("select"));
        let mut query;
        if starts_with_select {
            self.expect_keyword("select")?;
            self.expect_token(&Token::Star, "'*'")?;
            self.expect_keyword("from")?;
            let table = self.ident()?;
            query = ConjunctiveQuery::all(table);
            if let Some(t) = self.peek() {
                if t.is_keyword("where") {
                    self.next();
                    for p in self.conjunction()? {
                        query.add_predicate(p);
                    }
                }
            }
        } else {
            query = ConjunctiveQuery::all("");
            for p in self.conjunction()? {
                query.add_predicate(p);
            }
        }
        if self.pos != self.tokens.len() {
            return Err(self.error("unexpected trailing tokens"));
        }
        Ok(query)
    }
}

fn format_number(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// `x < bound` as a closed range: up to the greatest float below `bound`
/// (the negative subnormals lie below either zero, and `f64::MAX` below
/// `inf`). Nothing lies below `-inf`: that is the empty range.
fn strictly_below(bound: f64) -> PredicateSet {
    if bound == f64::NEG_INFINITY {
        return PredicateSet::range(f64::INFINITY, f64::NEG_INFINITY);
    }
    PredicateSet::range(f64::NEG_INFINITY, bound.next_down())
}

/// `x > bound` as a closed range: from the least float above `bound`.
/// Nothing lies above `inf`: that is the empty range.
fn strictly_above(bound: f64) -> PredicateSet {
    if bound == f64::INFINITY {
        return PredicateSet::range(f64::INFINITY, f64::NEG_INFINITY);
    }
    PredicateSet::range(bound.next_up(), f64::INFINITY)
}

/// Parse a query in the restricted SQL syntax.
///
/// Both the full form (`SELECT * FROM t WHERE …`) and the bare predicate form
/// (`age BETWEEN 17 AND 90 AND sex IN ('M')`) are accepted; the latter leaves
/// the table name empty for the caller to fill in.
pub fn parse_query(input: &str) -> Result<ConjunctiveQuery> {
    let tokens = tokenize(input)?;
    if tokens.is_empty() {
        return Err(QueryError::Parse {
            position: 0,
            message: "empty query".to_string(),
        });
    }
    let mut parser = Parser { tokens, pos: 0 };
    parser.query()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_example() {
        let q = parse_query(
            "SELECT * FROM survey WHERE age BETWEEN 17 AND 90 \
             AND eye_color IN ('Blue','Green','Brown') AND education IN ('BSc','MSc')",
        )
        .unwrap();
        assert_eq!(q.table, "survey");
        assert_eq!(q.num_predicates(), 3);
        assert_eq!(
            q.predicate_on("age").unwrap().set,
            PredicateSet::range(17.0, 90.0)
        );
        assert!(q
            .predicate_on("education")
            .unwrap()
            .set
            .contains_value("MSc"));
    }

    /// A strict comparison selects the floats strictly past its bound, and
    /// nothing else, at the edges too: either zero, the subnormals beside
    /// them, and either infinity — before and after a print and re-parse.
    #[test]
    fn strict_comparisons_are_exact_at_zeros_and_infinities() {
        use atlas_columnar::{DataType, Field, Schema, TableBuilder, Value};
        let cells = [
            f64::NEG_INFINITY,
            -1.0,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1.0,
            f64::INFINITY,
        ];
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]).unwrap();
        let mut builder = TableBuilder::new("t", schema);
        for x in cells {
            builder.push_row(&[Value::Float(x)]).unwrap();
        }
        let table = builder.build().unwrap();
        // (condition, its bound, whether it keeps what lies above it)
        let cases = [
            ("x > -0", -0.0, true),
            ("x > 0", 0.0, true),
            ("x < 0", 0.0, false),
            ("x < -0", -0.0, false),
            ("x < 1e309", f64::INFINITY, false),
            ("x > -1e309", f64::NEG_INFINITY, true),
            ("x < -1e309", f64::NEG_INFINITY, false),
            ("x > 1e309", f64::INFINITY, true),
        ];
        for (condition, bound, above) in cases {
            let expected: Vec<usize> = (0..cells.len())
                .filter(|&row| {
                    if above {
                        cells[row] > bound
                    } else {
                        cells[row] < bound
                    }
                })
                .collect();
            let query = parse_query(&format!("SELECT * FROM t WHERE {condition}")).unwrap();
            let printed = crate::to_sql(&query);
            let reparsed = parse_query(&printed).unwrap();
            assert_eq!(reparsed, query, "{condition} prints as {printed}");
            let selected = crate::evaluate(&query, &table).unwrap().to_indices();
            assert_eq!(selected, expected, "{condition} (printed {printed})");
        }
    }

    #[test]
    fn parses_bare_conjunction() {
        let q = parse_query("age BETWEEN 20 AND 55 AND sex IN ('M','F')").unwrap();
        assert_eq!(q.table, "");
        assert_eq!(q.num_predicates(), 2);
    }

    #[test]
    fn parses_select_without_where() {
        let q = parse_query("SELECT * FROM adult").unwrap();
        assert_eq!(q.table, "adult");
        assert_eq!(q.num_predicates(), 0);
    }

    #[test]
    fn equality_predicates() {
        let q = parse_query("salary = '>50k' AND age = 30").unwrap();
        assert!(q.predicate_on("salary").unwrap().set.contains_value(">50k"));
        assert_eq!(
            q.predicate_on("age").unwrap().set,
            PredicateSet::range(30.0, 30.0)
        );
    }

    #[test]
    fn comparison_predicates() {
        let q = parse_query("a >= 10 AND b <= 20 AND c > 0 AND d < 5").unwrap();
        match q.predicate_on("a").unwrap().set {
            PredicateSet::Range { lo, hi } => {
                assert_eq!(lo, 10.0);
                assert!(hi.is_infinite() && hi > 0.0);
            }
            _ => panic!("expected range"),
        }
        match q.predicate_on("c").unwrap().set {
            PredicateSet::Range { lo, .. } => assert!(lo > 0.0),
            _ => panic!("expected range"),
        }
        match q.predicate_on("d").unwrap().set {
            PredicateSet::Range { hi, .. } => assert!(hi < 5.0),
            _ => panic!("expected range"),
        }
    }

    #[test]
    fn duplicate_attribute_predicates_are_intersected() {
        let q = parse_query("age >= 10 AND age <= 20").unwrap();
        assert_eq!(q.num_predicates(), 1);
        match q.predicate_on("age").unwrap().set {
            PredicateSet::Range { lo, hi } => {
                assert_eq!(lo, 10.0);
                assert_eq!(hi, 20.0);
            }
            _ => panic!("expected range"),
        }
    }

    #[test]
    fn rejects_or_and_garbage() {
        assert!(matches!(
            parse_query("a = 1 OR b = 2"),
            Err(QueryError::Parse { .. })
        ));
        assert!(parse_query("").is_err());
        assert!(parse_query("SELECT age FROM t").is_err());
        assert!(parse_query("SELECT * FROM t WHERE").is_err());
        assert!(parse_query("a BETWEEN 1").is_err());
        assert!(parse_query("a IN (1,").is_err());
        assert!(parse_query("a = 1 extra").is_err());
        assert!(parse_query("a LIKE 'x'").is_err());
    }

    #[test]
    fn in_list_with_numbers() {
        let q = parse_query("code IN (1, 2, 3)").unwrap();
        let set = &q.predicate_on("code").unwrap().set;
        assert!(set.contains_value("1"));
        assert!(set.contains_value("3"));
    }
}
