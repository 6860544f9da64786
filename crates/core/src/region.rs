//! Regions: one query of a data map, plus its extent.
//!
//! A region's size is read at every later step — the contingency tables of
//! the map distance, the cover entropy of the ranking, the region cap, the
//! composition's partition check, every served reply — so it is counted once,
//! when the region is built, and stored beside the selection. A region's
//! selection is never mutated after construction (nothing in the tree does),
//! which is what keeps the stored count true; debug builds check it on every
//! read.
//!
//! A served answer keeps a region's query and count but not its rows
//! ([`Region::release_rows`]): the selection of a released region ranges over
//! zero rows, so any bitmap operation that meets it fails on its length
//! instead of reading an empty extent. A region whose count was read off
//! statistics is born released ([`Region::released`]).

use atlas_columnar::Bitmap;
use atlas_query::ConjunctiveQuery;
use std::fmt;

/// One region of a data map: a conjunctive query describing it, and the rows
/// of the table it covers (within the current working set).
#[derive(Debug, Clone)]
pub struct Region {
    /// The query describing this region. It always includes the predicates of
    /// the user query it was derived from, so it can be submitted back to the
    /// engine verbatim for drill-down.
    pub query: ConjunctiveQuery,
    /// The rows of the table covered by this region (already intersected with
    /// the working set). Read-only after construction: [`Region::count`] is
    /// taken from it once, in [`Region::new`]. A bitmap over zero rows once
    /// the region is released ([`Region::holds_rows`]).
    pub selection: Bitmap,
    count: usize,
    holds_rows: bool,
}

impl Region {
    /// Create a region from a query and its selection, counting the
    /// selection once.
    pub fn new(query: ConjunctiveQuery, selection: Bitmap) -> Self {
        let count = selection.count();
        Region {
            query,
            selection,
            count,
            holds_rows: true,
        }
    }

    /// A region that holds no rows, only its query and its `count`: one a
    /// served answer counted instead of selecting
    /// ([`crate::CutPlan::counts_from_stats`]), as [`Region::release_rows`]
    /// would leave it.
    pub fn released(query: ConjunctiveQuery, count: usize) -> Self {
        Region {
            query,
            selection: Bitmap::new_empty(0),
            count,
            holds_rows: false,
        }
    }

    /// Drop the region's rows, keeping its query and count: what a served
    /// answer keeps once nothing will intersect it again. The selection
    /// becomes a bitmap over zero rows.
    pub fn release_rows(&mut self) {
        self.selection = Bitmap::new_empty(0);
        self.holds_rows = false;
    }

    /// False once [`Region::release_rows`] dropped the region's rows, and for
    /// a region built [`Region::released`].
    pub fn holds_rows(&self) -> bool {
        self.holds_rows
    }

    /// Number of tuples in the region (stored, not recounted).
    pub fn count(&self) -> usize {
        debug_assert!(
            !self.holds_rows || self.count == self.selection.count(),
            "a region's selection changed after construction"
        );
        self.count
    }

    /// The cover of the region relative to a reference population size
    /// (Section 3: number of items described divided by the total number of
    /// tuples). Returns 0 for an empty reference population.
    pub fn cover(&self, reference_size: usize) -> f64 {
        if reference_size == 0 {
            0.0
        } else {
            self.count() as f64 / reference_size as f64
        }
    }

    /// Number of predicates of the region's query (readability constraint:
    /// the paper targets at most ~3).
    pub fn num_predicates(&self) -> usize {
        self.query.num_predicates()
    }

    /// True if the region covers no tuples.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} tuples)", self.query, self.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_query::Predicate;

    #[test]
    fn count_cover_and_arity() {
        let query = ConjunctiveQuery::all("t")
            .and(Predicate::range("age", 0.0, 40.0))
            .and(Predicate::values("sex", ["F"]));
        let selection = Bitmap::from_indices(10, [1, 3, 5]);
        let region = Region::new(query, selection);
        assert_eq!(region.count(), 3);
        assert!((region.cover(10) - 0.3).abs() < 1e-12);
        assert!((region.cover(6) - 0.5).abs() < 1e-12);
        assert_eq!(region.cover(0), 0.0);
        assert_eq!(region.num_predicates(), 2);
        assert!(!region.is_empty());
        assert!(region.to_string().contains("3 tuples"));
    }

    #[test]
    fn empty_region() {
        let region = Region::new(ConjunctiveQuery::all("t"), Bitmap::new_empty(5));
        assert!(region.is_empty());
        assert_eq!(region.count(), 0);
    }

    #[test]
    fn a_released_region_keeps_its_query_and_count() {
        let query = ConjunctiveQuery::all("t").and(Predicate::values("sex", ["F"]));
        let mut region = Region::new(query.clone(), Bitmap::from_indices(10, [1, 3, 5]));
        assert!(region.holds_rows());
        region.release_rows();
        assert!(!region.holds_rows());
        assert_eq!(region.count(), 3);
        assert_eq!(region.query, query);
        assert_eq!(region.selection.len(), 0);
        assert!(region.to_string().contains("3 tuples"));
    }

    #[test]
    fn a_region_born_released_is_a_released_one() {
        let query = ConjunctiveQuery::all("t").and(Predicate::values("sex", ["F"]));
        let born = Region::released(query.clone(), 3);
        let mut released = Region::new(query, Bitmap::from_indices(10, [1, 3, 5]));
        released.release_rows();
        assert!(!born.holds_rows());
        assert_eq!(born.count(), released.count());
        assert_eq!(born.query, released.query);
        assert_eq!(born.selection, released.selection);
        assert_eq!(born.to_string(), released.to_string());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn a_released_selection_fails_on_its_length() {
        let mut region = Region::new(ConjunctiveQuery::all("t"), Bitmap::new_full(5));
        region.release_rows();
        let _ = region.selection.and(&Bitmap::new_full(5));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "changed after construction")]
    fn a_mutated_selection_fails_the_debug_check() {
        let mut region = Region::new(ConjunctiveQuery::all("t"), Bitmap::new_empty(5));
        region.selection.set(2);
        let _ = region.count();
    }
}
