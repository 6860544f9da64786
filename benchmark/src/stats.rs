//! The order statistics every reported number is built from: medians and
//! percentiles of samples, and the spread measures the self-check compares
//! against the bounds.

/// Percentile `p` (in `0..=1`) of an ascending slice, linearly interpolated
/// between the two neighbouring ranks. NaN on an empty slice, so a missing
/// sample set cannot pass for a measurement.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return f64::NAN;
    };
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let lower = sorted[below];
    let upper = sorted.get(below + 1).copied().unwrap_or(last);
    lower + (upper - lower) * (rank - below as f64)
}

/// `values` in ascending order (the samples are finite by construction).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut copy = values.to_vec();
    copy.sort_by(f64::total_cmp);
    copy
}

/// [`percentile_sorted`] of an unsorted slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// The median: of a request's measurements across epochs, of the requests
/// of a class, of a per-epoch scalar over the epochs.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `(max - min) / median`: how far apart the epochs of one run landed.
pub fn relative_range(values: &[f64]) -> f64 {
    let ordered = sorted(values);
    match (ordered.first(), ordered.last()) {
        (Some(lo), Some(hi)) => (hi - lo) / percentile_sorted(&ordered, 0.5),
        _ => f64::NAN,
    }
}

/// The distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method), which is how the driver judges spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return f64::NAN;
    }
    let quartile = |i: usize| {
        let scaled = i * (len + 1);
        let j = (scaled / 4).clamp(1, len - 1);
        let delta = scaled as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / percentile_sorted(&data, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 0.5), 30.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 0.9), 46.0);
        assert_eq!(percentile_sorted(&[7.0], 0.9), 7.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
        // Unsorted input is ordered first; an even count averages the middle.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn the_run_value_is_the_median_of_its_epochs() {
        // One slow epoch (a sticky slow process) does not move the run.
        let epoch_p50s = [0.74, 0.75, 0.73, 0.91, 0.74];
        assert_eq!(median(&epoch_p50s), 0.74);
        assert!((relative_range(&epoch_p50s) - 0.18 / 0.74).abs() < 1e-12);
    }

    fn sorted_range(n: u32) -> Vec<f64> {
        (1..=n).map(f64::from).collect()
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten = sorted_range(10);
        assert!((quartile_spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!(quartile_spread(&[1.0]).is_nan());
    }
}
