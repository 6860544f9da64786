//! Agreement scores between two partitions.
//!
//! The evaluation experiments compare the region assignment produced by a map
//! against planted ground-truth clusters (experiment E4) or planted attribute
//! groups (E3). The standard scores are the adjusted Rand index, purity, and
//! normalised mutual information.

use crate::contingency::ContingencyTable;

fn cardinality(labels: &[u32]) -> usize {
    labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0)
}

/// The Adjusted Rand Index (Hubert & Arabie) between two labelings.
///
/// 1.0 for identical partitions, ~0 for independent ones, possibly negative
/// for worse-than-chance agreement. Returns 1.0 for degenerate inputs where
/// both partitions are trivial (all-same or all-distinct in the same way).
pub fn adjusted_rand_index(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len(), "label vectors must have equal length");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let table = ContingencyTable::from_labels(a, b, cardinality(a), cardinality(b));
    let choose2 = |x: u64| -> f64 { (x as f64) * (x as f64 - 1.0) / 2.0 };
    let mut index = 0.0;
    for i in 0..table.num_rows() {
        for j in 0..table.num_cols() {
            index += choose2(table.count(i, j));
        }
    }
    let sum_rows: f64 = table.row_marginals().iter().map(|&x| choose2(x)).sum();
    let sum_cols: f64 = table.col_marginals().iter().map(|&x| choose2(x)).sum();
    let total_pairs = choose2(n as u64);
    let expected = sum_rows * sum_cols / total_pairs;
    let max_index = 0.5 * (sum_rows + sum_cols);
    if (max_index - expected).abs() < f64::EPSILON {
        // Both partitions are trivial in the same way.
        return 1.0;
    }
    (index - expected) / (max_index - expected)
}

/// Purity of partition `a` with respect to reference partition `b`, in `[0,1]`.
///
/// For each cluster of `a`, count its most frequent reference label; purity is
/// the fraction of items so accounted for.
pub fn purity(a: &[u32], reference: &[u32]) -> f64 {
    assert_eq!(
        a.len(),
        reference.len(),
        "label vectors must have equal length"
    );
    if a.is_empty() {
        return 1.0;
    }
    let table = ContingencyTable::from_labels(a, reference, cardinality(a), cardinality(reference));
    let mut correct = 0u64;
    for i in 0..table.num_rows() {
        let best = (0..table.num_cols())
            .map(|j| table.count(i, j))
            .max()
            .unwrap_or(0);
        correct += best;
    }
    correct as f64 / a.len() as f64
}

/// Normalised mutual information between two labelings, in `[0, 1]`.
pub fn normalized_mutual_information(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len(), "label vectors must have equal length");
    if a.is_empty() {
        return 1.0;
    }
    ContingencyTable::from_labels(a, b, cardinality(a), cardinality(b)).normalized_mi()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_partitions_are_perfect() {
        let a = [0u32, 0, 1, 1, 2, 2];
        assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-12);
        assert!((purity(&a, &a) - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_information(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relabelled_partitions_are_still_perfect() {
        let a = [0u32, 0, 1, 1, 2, 2];
        let b = [2u32, 2, 0, 0, 1, 1];
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
        assert!((purity(&a, &b) - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_information(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_partitions_score_near_zero_ari() {
        // Balanced independent labelings.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..2u32 {
            for j in 0..2u32 {
                for _ in 0..50 {
                    a.push(i);
                    b.push(j);
                }
            }
        }
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari.abs() < 0.05, "ARI of independent partitions was {ari}");
        assert!(normalized_mutual_information(&a, &b) < 0.05);
    }

    #[test]
    fn purity_of_refinement_is_one_but_not_vice_versa() {
        // a refines b: every a-cluster is inside one b-cluster.
        let a = [0u32, 1, 2, 3, 4, 5];
        let b = [0u32, 0, 0, 1, 1, 1];
        assert!((purity(&a, &b) - 1.0).abs() < 1e-12);
        assert!(purity(&b, &a) < 1.0);
    }

    #[test]
    fn partial_agreement_is_between_zero_and_one() {
        let a = [0u32, 0, 0, 1, 1, 1, 1, 0];
        let b = [0u32, 0, 1, 1, 1, 1, 0, 0];
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari > 0.0 && ari < 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(adjusted_rand_index(&[0], &[0]), 1.0);
        assert_eq!(adjusted_rand_index(&[], &[]), 1.0);
        assert_eq!(purity(&[], &[]), 1.0);
        // all-in-one vs all-in-one
        let ones = [0u32; 10];
        assert!((adjusted_rand_index(&ones, &ones) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        adjusted_rand_index(&[0, 1], &[0]);
    }
}
