//! Exact quantiles.
//!
//! Every function here returns the order statistics a full
//! `sort_by(f64::total_cmp)` of the input would put at the requested ranks —
//! bit for bit, ties, `±0.0`, infinities and NaNs included — but finds them
//! by selection in O(n) per rank instead of sorting. They are what every
//! median-based `CUT` splits on: the one median is the exact one.
//!
//! The borrowing forms ([`quantile`], [`quantiles`], [`median`]) leave their
//! input slice untouched (they select on a copy); [`quantiles_in_place`]
//! permutes the caller's buffer instead of copying it, and
//! [`quantiles_of_counts`] reads the same order statistics off a table of
//! distinct values and their counts, without the values.

/// The `p`-quantile (0 ≤ p ≤ 1) of `values`, using linear interpolation
/// between order statistics. Returns `None` for an empty slice.
///
/// The input does not need to be sorted and is not modified.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    quantiles(values, &[p]).map(|qs| qs[0])
}

/// Several quantiles at once, in the order of `ps` (which may be unsorted or
/// repeat), over one copy of the input.
pub fn quantiles(values: &[f64], ps: &[f64]) -> Option<Vec<f64>> {
    quantiles_in_place(&mut values.to_vec(), ps)
}

/// [`quantiles`] without the copy: `values` is left **permuted** (same
/// multiset, unspecified order), which is the price of not allocating a
/// second buffer of the working set's size.
pub fn quantiles_in_place(values: &mut [f64], ps: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() {
        return None;
    }
    Some(select_quantiles(values, ps))
}

/// The median of `values` (`None` for an empty slice).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The sorted positions a `p`-quantile of `n > 0` values interpolates
/// between, and the weight of the upper one: `(lo, hi, frac)` with
/// `hi ∈ {lo, lo + 1}`. `p` is clamped to `[0,1]`.
fn rank(n: usize, p: f64) -> (usize, usize, f64) {
    let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

fn interpolate(at_lo: f64, at_hi: f64, frac: f64) -> f64 {
    at_lo * (1.0 - frac) + at_hi * frac
}

/// Quantile of an already-sorted slice (ascending). `p` is clamped to `[0,1]`.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let (lo, hi, frac) = rank(sorted.len(), p);
    if lo == hi {
        sorted[lo]
    } else {
        interpolate(sorted[lo], sorted[hi], frac)
    }
}

/// [`quantiles`] of a multiset given as `(value, occurrences)` pairs in
/// ascending [`f64::total_cmp`] order: what expanding every pair into that
/// many copies and reading [`quantile_sorted`] off the result would return,
/// bit for bit, in O(pairs) per quantile and without the expansion. `None`
/// when the occurrences sum to zero (or past `usize`).
pub fn quantiles_of_counts(counts: &[(f64, u64)], ps: &[f64]) -> Option<Vec<f64>> {
    let n = counts
        .iter()
        .try_fold(0u64, |n, &(_, c)| n.checked_add(c))?;
    let n = usize::try_from(n).ok().filter(|&n| n > 0)?;
    // The value at a sorted position: the first whose running count passes it.
    let at = |pos: usize| {
        let mut seen = 0u64;
        let passed = counts.iter().find(|pair| {
            seen += pair.1;
            seen > pos as u64
        });
        passed.map(|pair| pair.0)
    };
    ps.iter()
        .map(|&p| {
            let (lo, hi, frac) = rank(n, p);
            let at_lo = at(lo)?;
            Some(if lo == hi {
                at_lo
            } else {
                interpolate(at_lo, at(hi)?, frac)
            })
        })
        .collect()
}

/// `quantile_sorted(sort(values), p)` for every `p` of `ps`, by selection:
/// the one body behind every function of this module.
///
/// Ranks are visited in ascending order. `select_nth_unstable_by` on the tail
/// that earlier selections have not partitioned yet puts `sorted[lo]` in
/// place with everything greater or equal to its right, so `sorted[lo + 1]`
/// is the minimum of that right side — no second selection for the
/// interpolation partner. Under `total_cmp`, equal means same bits, so the
/// values found are exactly the sort's.
fn select_quantiles(values: &mut [f64], ps: &[f64]) -> Vec<f64> {
    let ranks: Vec<_> = ps.iter().map(|&p| rank(values.len(), p)).collect();
    let mut order: Vec<usize> = (0..ps.len()).collect();
    order.sort_by_key(|&i| ranks[i].0);
    let mut out = vec![0.0; ps.len()];
    // `values[..placed]` holds the `placed` smallest values, the largest of
    // them last; `values[placed..]` is the tail no selection has split yet.
    let mut placed = 0;
    for i in order {
        let (lo, hi, frac) = ranks[i];
        if lo >= placed {
            values[placed..].select_nth_unstable_by(lo - placed, f64::total_cmp);
            placed = lo + 1;
        }
        out[i] = if lo == hi {
            values[lo]
        } else {
            let next = values[hi..]
                .iter()
                .copied()
                .min_by(f64::total_cmp)
                .expect("hi = lo + 1 < n whenever the position is fractional");
            interpolate(values[lo], next, frac)
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition the selection routine must reproduce: sort a copy with
    /// `total_cmp`, read the interpolated order statistics off it.
    fn sorted_reference(values: &[f64], ps: &[f64]) -> Vec<f64> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        ps.iter().map(|&p| quantile_sorted(&sorted, p)).collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// Heavy ties, both zeros, infinities, NaNs of both signs, and a
    /// continuous part.
    fn adversarial_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            6 => (-4i64..12).prop_map(|x| x as f64 / 2.0),
            3 => -1.0e6..1.0e6f64,
            1 => Just(0.0),
            1 => Just(-0.0),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
            1 => Just(f64::NAN),
            1 => Just(-f64::NAN),
        ]
    }

    /// Unsorted, repeating, outside `[0,1]`, and NaN.
    fn adversarial_p() -> impl Strategy<Value = f64> {
        prop_oneof![
            6 => -0.5..1.5f64,
            1 => Just(0.0),
            1 => Just(0.5),
            1 => Just(1.0),
            1 => Just(f64::NAN),
        ]
    }

    fn assert_matches_the_sort(values: &[f64], ps: &[f64]) {
        let expected = bits(&sorted_reference(values, ps));
        let before = bits(values);
        assert_eq!(bits(&quantiles(values, ps).unwrap()), expected);
        for (&p, &want) in ps.iter().zip(&expected) {
            assert_eq!(quantile(values, p).unwrap().to_bits(), want, "p = {p}");
        }
        assert_eq!(
            median(values).unwrap().to_bits(),
            sorted_reference(values, &[0.5])[0].to_bits()
        );
        assert_eq!(
            bits(values),
            before,
            "borrowing forms leave the input alone"
        );

        let mut buffer = values.to_vec();
        let in_place = quantiles_in_place(&mut buffer, ps).unwrap();
        assert_eq!(bits(&in_place), expected);
        let (mut left, mut right) = (bits(&buffer), before);
        left.sort_unstable();
        right.sort_unstable();
        assert_eq!(left, right, "the in-place form only permutes");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn selection_matches_the_sort_bit_for_bit(
            values in proptest::collection::vec(adversarial_value(), 1..3000),
            ps in proptest::collection::vec(adversarial_p(), 0..7),
        ) {
            assert_matches_the_sort(&values, &ps);
        }

        #[test]
        fn selection_matches_the_sort_on_tiny_inputs(
            values in proptest::collection::vec(adversarial_value(), 1..4),
            ps in proptest::collection::vec(adversarial_p(), 0..7),
        ) {
            assert_matches_the_sort(&values, &ps);
        }

        #[test]
        fn k_way_splits_match_the_sort(
            values in proptest::collection::vec(adversarial_value(), 1..2000),
            k in 2usize..9,
        ) {
            let ps: Vec<f64> = (1..k).map(|i| i as f64 / k as f64).collect();
            assert_matches_the_sort(&values, &ps);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn counts_match_the_expanded_sort_bit_for_bit(
            values in proptest::collection::vec((adversarial_value(), 0u64..40), 0..300),
            ps in proptest::collection::vec(adversarial_p(), 0..7),
        ) {
            // Distinct values (by bit pattern) in `total_cmp` order, some of
            // them with a zero count.
            let mut counts = values;
            counts.sort_by(|a, b| a.0.total_cmp(&b.0));
            counts.dedup_by_key(|pair| pair.0.to_bits());
            let expanded: Vec<f64> = counts
                .iter()
                .flat_map(|&(x, n)| std::iter::repeat_n(x, n as usize))
                .collect();
            let got = quantiles_of_counts(&counts, &ps);
            if expanded.is_empty() {
                prop_assert!(got.is_none());
            } else {
                let expected: Vec<f64> =
                    ps.iter().map(|&p| quantile_sorted(&expanded, p)).collect();
                prop_assert_eq!(bits(&got.unwrap()), bits(&expected));
                // And so the selection on the expanded values agrees too.
                prop_assert_eq!(bits(&quantiles(&expanded, &ps).unwrap()), bits(&expected));
            }
        }
    }

    #[test]
    fn counts_that_cannot_be_a_population_yield_none() {
        assert!(quantiles_of_counts(&[], &[0.5]).is_none());
        assert!(quantiles_of_counts(&[(1.0, 0), (2.0, 0)], &[0.5]).is_none());
        assert!(quantiles_of_counts(&[(1.0, u64::MAX), (2.0, 1)], &[0.5]).is_none());
        // Interpolation between two counted values, and inside one.
        let counts = [(1.0, 2), (4.0, 2)];
        assert_eq!(
            quantiles_of_counts(&counts, &[0.0, 0.5, 1.0, 0.25]),
            Some(vec![1.0, 2.5, 4.0, 1.0])
        );
    }

    #[test]
    fn empty_inputs() {
        assert!(quantile(&[], 0.5).is_none());
        assert!(median(&[]).is_none());
        assert!(quantiles(&[], &[0.5]).is_none());
        assert!(quantiles_in_place(&mut [], &[0.5]).is_none());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
    }

    #[test]
    fn quantile_endpoints_and_interp() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        assert_eq!(quantile(&v, 0.5), Some(30.0));
        assert_eq!(quantile(&v, 0.25), Some(20.0));
        assert_eq!(quantile(&v, 0.1), Some(14.0));
        // out-of-range p is clamped
        assert_eq!(quantile(&v, 2.0), Some(50.0));
        assert_eq!(quantile(&v, -1.0), Some(10.0));
    }

    #[test]
    fn quantiles_batch_matches_single() {
        let v = [5.0, 1.0, 9.0, 3.0, 7.0];
        let qs = quantiles(&v, &[0.25, 0.5, 0.75]).unwrap();
        assert_eq!(qs[0], quantile(&v, 0.25).unwrap());
        assert_eq!(qs[1], quantile(&v, 0.5).unwrap());
        assert_eq!(qs[2], quantile(&v, 0.75).unwrap());
    }
}
