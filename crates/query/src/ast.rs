//! Abstract syntax of conjunctive queries.
//!
//! Following Section 3 of the paper, a query `Q = P1 ∧ … ∧ PN` is a
//! conjunction of predicates `Pk : att_k ∈ S_k`, where `S_k` is either a
//! closed numeric interval or a finite set of categorical values. A query
//! describes a region of the data; a *map* is a set of such queries.

use std::collections::BTreeSet;
use std::fmt;

/// The set `S` of a predicate `attribute ∈ S`.
#[derive(Debug, Clone, PartialEq)]
pub enum PredicateSet {
    /// A closed numeric interval `[lo, hi]` (both ends inclusive).
    Range {
        /// Lower bound (inclusive). May be `-inf`.
        lo: f64,
        /// Upper bound (inclusive). May be `+inf`.
        hi: f64,
    },
    /// A finite set of categorical values.
    Values(BTreeSet<String>),
}

impl PredicateSet {
    /// A numeric range set.
    pub fn range(lo: f64, hi: f64) -> Self {
        PredicateSet::Range { lo, hi }
    }

    /// A categorical value set.
    pub fn values<I, S>(values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PredicateSet::Values(values.into_iter().map(Into::into).collect())
    }

    /// True if the set is empty (an empty value set or an inverted range).
    pub fn is_empty(&self) -> bool {
        match self {
            PredicateSet::Range { lo, hi } => lo > hi,
            PredicateSet::Values(v) => v.is_empty(),
        }
    }

    /// Intersect two predicate sets over the same attribute.
    ///
    /// Returns `None` when the two sets have incompatible kinds (range vs
    /// values); the result may be empty.
    pub fn intersect(&self, other: &PredicateSet) -> Option<PredicateSet> {
        match (self, other) {
            (PredicateSet::Range { lo: a, hi: b }, PredicateSet::Range { lo: c, hi: d }) => {
                Some(PredicateSet::Range {
                    lo: a.max(*c),
                    hi: b.min(*d),
                })
            }
            (PredicateSet::Values(a), PredicateSet::Values(b)) => {
                Some(PredicateSet::Values(a.intersection(b).cloned().collect()))
            }
            _ => None,
        }
    }

    /// True if a numeric value belongs to this set (always false for value sets).
    pub fn contains_number(&self, x: f64) -> bool {
        match self {
            PredicateSet::Range { lo, hi } => x >= *lo && x <= *hi,
            PredicateSet::Values(_) => false,
        }
    }

    /// True if a categorical value belongs to this set (always false for ranges).
    pub fn contains_value(&self, v: &str) -> bool {
        match self {
            PredicateSet::Range { .. } => false,
            PredicateSet::Values(set) => set.contains(v),
        }
    }
}

impl fmt::Display for PredicateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredicateSet::Range { lo, hi } => write!(f, "[{lo}, {hi}]"),
            PredicateSet::Values(vs) => {
                f.write_str("{")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "'{v}'")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A single predicate `attribute ∈ set`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The attribute (column) name.
    pub attribute: String,
    /// The set of admissible values.
    pub set: PredicateSet,
}

impl Predicate {
    /// A range predicate `attribute ∈ [lo, hi]`.
    pub fn range(attribute: impl Into<String>, lo: f64, hi: f64) -> Self {
        Predicate {
            attribute: attribute.into(),
            set: PredicateSet::range(lo, hi),
        }
    }

    /// A value-set predicate `attribute ∈ {v1, …}`.
    pub fn values<I, S>(attribute: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Predicate {
            attribute: attribute.into(),
            set: PredicateSet::values(values),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ∈ {}", self.attribute, self.set)
    }
}

/// A conjunctive query `Q = P1 ∧ … ∧ PN` over a named table.
///
/// The predicate list may be empty, in which case the query selects the whole
/// table (this is how a "give me a first map of everything" exploration
/// starts).
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctiveQuery {
    /// The table the query ranges over.
    pub table: String,
    /// The conjunction of predicates.
    pub predicates: Vec<Predicate>,
}

impl ConjunctiveQuery {
    /// A query over the whole table (no predicates).
    pub fn all(table: impl Into<String>) -> Self {
        ConjunctiveQuery {
            table: table.into(),
            predicates: Vec::new(),
        }
    }

    /// Builder-style: add a predicate. If a predicate on the same attribute
    /// already exists, the two are intersected (when compatible) so the query
    /// stays a conjunction with at most one predicate per attribute.
    pub fn and(mut self, predicate: Predicate) -> Self {
        self.add_predicate(predicate);
        self
    }

    /// Add a predicate in place (see [`ConjunctiveQuery::and`]).
    pub fn add_predicate(&mut self, predicate: Predicate) {
        if let Some(existing) = self
            .predicates
            .iter_mut()
            .find(|p| p.attribute == predicate.attribute)
        {
            if let Some(intersection) = existing.set.intersect(&predicate.set) {
                existing.set = intersection;
                return;
            }
        }
        self.predicates.push(predicate);
    }

    /// The number of predicates (the paper's readability constraint caps this
    /// at ~3 per region).
    pub fn num_predicates(&self) -> usize {
        self.predicates.len()
    }

    /// The predicate on a given attribute, if any.
    pub fn predicate_on(&self, attribute: &str) -> Option<&Predicate> {
        self.predicates.iter().find(|p| p.attribute == attribute)
    }

    /// The attributes mentioned by the query, in predicate order.
    pub fn attributes(&self) -> Vec<&str> {
        self.predicates
            .iter()
            .map(|p| p.attribute.as_str())
            .collect()
    }

    /// The conjunction of two queries over the same table.
    ///
    /// Predicates on common attributes are intersected; incompatible
    /// predicates (range vs set on the same attribute) are kept side by side,
    /// which yields an unsatisfiable query — the caller detects that through
    /// an empty cover.
    pub fn conjoin(&self, other: &ConjunctiveQuery) -> ConjunctiveQuery {
        let mut out = self.clone();
        for p in &other.predicates {
            out.add_predicate(p.clone());
        }
        out
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.predicates.is_empty() {
            return write!(f, "{}: all", self.table);
        }
        write!(f, "{}: ", self.table)?;
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                f.write_str(" ∧ ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_set_membership() {
        let r = PredicateSet::range(1.0, 5.0);
        assert!(r.contains_number(1.0));
        assert!(r.contains_number(5.0));
        assert!(!r.contains_number(5.1));
        assert!(!r.contains_value("x"));
        assert!(!r.is_empty());
        assert!(PredicateSet::range(5.0, 1.0).is_empty());

        let v = PredicateSet::values(["a", "b"]);
        assert!(v.contains_value("a"));
        assert!(!v.contains_value("c"));
        assert!(!v.contains_number(1.0));
        assert!(!v.is_empty());
        assert!(PredicateSet::values(Vec::<String>::new()).is_empty());
    }

    #[test]
    fn predicate_set_intersection() {
        let a = PredicateSet::range(0.0, 10.0);
        let b = PredicateSet::range(5.0, 20.0);
        assert_eq!(a.intersect(&b), Some(PredicateSet::range(5.0, 10.0)));
        let v1 = PredicateSet::values(["a", "b", "c"]);
        let v2 = PredicateSet::values(["b", "c", "d"]);
        assert_eq!(v1.intersect(&v2), Some(PredicateSet::values(["b", "c"])));
        assert_eq!(a.intersect(&v1), None);
        // Disjoint ranges intersect to an empty range.
        let empty = PredicateSet::range(0.0, 1.0)
            .intersect(&PredicateSet::range(2.0, 3.0))
            .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn query_builder_merges_same_attribute() {
        let q = ConjunctiveQuery::all("survey")
            .and(Predicate::range("age", 17.0, 90.0))
            .and(Predicate::range("age", 40.0, 120.0))
            .and(Predicate::values("education", ["BSc", "MSc"]));
        assert_eq!(q.num_predicates(), 2);
        let age = q.predicate_on("age").unwrap();
        assert_eq!(age.set, PredicateSet::range(40.0, 90.0));
        assert_eq!(q.attributes(), vec!["age", "education"]);
        assert!(q.predicate_on("salary").is_none());
        assert!(q.predicates.iter().all(|p| !p.set.is_empty()));
    }

    #[test]
    fn conjoin_combines_queries() {
        let q1 = ConjunctiveQuery::all("t").and(Predicate::range("x", 0.0, 10.0));
        let q2 = ConjunctiveQuery::all("t")
            .and(Predicate::range("x", 5.0, 20.0))
            .and(Predicate::values("c", ["red"]));
        let q = q1.conjoin(&q2);
        assert_eq!(q.num_predicates(), 2);
        assert_eq!(
            q.predicate_on("x").unwrap().set,
            PredicateSet::range(5.0, 10.0)
        );
        assert!(q.predicate_on("c").is_some());
    }

    #[test]
    fn conjoin_disjoint_ranges_is_trivially_empty() {
        let q1 = ConjunctiveQuery::all("t").and(Predicate::range("x", 0.0, 1.0));
        let q2 = ConjunctiveQuery::all("t").and(Predicate::range("x", 5.0, 9.0));
        assert!(q1.conjoin(&q2).predicate_on("x").unwrap().set.is_empty());
    }

    #[test]
    fn display_matches_paper_notation() {
        let q = ConjunctiveQuery::all("survey")
            .and(Predicate::range("age", 17.0, 37.0))
            .and(Predicate::values("sex", ["Male"]));
        let s = q.to_string();
        assert!(s.contains("age ∈ [17, 37]"));
        assert!(s.contains("sex ∈ {'Male'}"));
        assert_eq!(ConjunctiveQuery::all("t").to_string(), "t: all");
    }
}
