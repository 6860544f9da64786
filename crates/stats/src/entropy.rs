//! Entropy, mutual information and the Variation of Information.
//!
//! All quantities are in **bits** (base-2 logarithms). The Variation of
//! Information (Meilă 2007) is the map distance the paper recommends: unlike
//! raw mutual information it is a true metric on partitions, so the
//! agglomerative clustering of candidate maps (Section 3.2) behaves well.

use crate::contingency::ContingencyTable;

/// Shannon entropy (bits) of a discrete distribution given as probabilities.
///
/// Probabilities that are zero or negative are skipped; the input does not
/// need to be normalised (it is renormalised internally).
pub fn entropy(probabilities: &[f64]) -> f64 {
    let total: f64 = probabilities.iter().filter(|&&p| p > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &p in probabilities {
        if p > 0.0 {
            let q = p / total;
            h -= q * q.log2();
        }
    }
    h.max(0.0)
}

/// Shannon entropy (bits) of a discrete distribution given as counts.
pub fn entropy_of_counts(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / total;
            h -= p * p.log2();
        }
    }
    h.max(0.0)
}

/// Joint entropy `H(X, Y)` (bits) of two label vectors.
pub fn joint_entropy(a: &[u32], b: &[u32], a_card: usize, b_card: usize) -> f64 {
    ContingencyTable::from_labels(a, b, a_card, b_card).joint_entropy()
}

/// Mutual information `I(X; Y)` (bits) of two label vectors.
pub fn mutual_information(a: &[u32], b: &[u32], a_card: usize, b_card: usize) -> f64 {
    ContingencyTable::from_labels(a, b, a_card, b_card).mutual_information()
}

/// Variation of Information `VI(X; Y)` (bits) of two label vectors.
pub fn variation_of_information(a: &[u32], b: &[u32], a_card: usize, b_card: usize) -> f64 {
    ContingencyTable::from_labels(a, b, a_card, b_card).variation_of_information()
}

/// Normalised Variation of Information in `[0, 1]` of two label vectors.
pub fn normalized_vi(a: &[u32], b: &[u32], a_card: usize, b_card: usize) -> f64 {
    ContingencyTable::from_labels(a, b, a_card, b_card).normalized_vi()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_uniform_and_point_mass() {
        assert!((entropy(&[0.5, 0.5]) - 1.0).abs() < 1e-12);
        assert!((entropy(&[0.25; 4]) - 2.0).abs() < 1e-12);
        assert!(entropy(&[1.0]) < 1e-12);
        assert!(entropy(&[1.0, 0.0, 0.0]) < 1e-12);
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn entropy_handles_unnormalised_input() {
        // 2:2 ratio is the same distribution as 0.5:0.5
        assert!((entropy(&[2.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!((entropy(&[10.0, 10.0, 10.0, 10.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_counts_matches_probability_version() {
        let counts = [10u64, 30, 60];
        let probs = [0.1, 0.3, 0.6];
        assert!((entropy_of_counts(&counts) - entropy(&probs)).abs() < 1e-12);
        assert_eq!(entropy_of_counts(&[]), 0.0);
        assert_eq!(entropy_of_counts(&[0, 0]), 0.0);
    }

    #[test]
    fn entropy_is_maximised_by_balance() {
        let balanced = entropy(&[0.25; 4]);
        let skewed = entropy(&[0.7, 0.1, 0.1, 0.1]);
        assert!(balanced > skewed);
    }

    #[test]
    fn mi_and_vi_relationship() {
        // Y = X deterministically => VI = 0, I = H(X).
        let x = [0u32, 1, 0, 1, 0, 1, 1, 0];
        assert!(variation_of_information(&x, &x, 2, 2) < 1e-12);
        assert!((mutual_information(&x, &x, 2, 2) - 1.0).abs() < 1e-9);

        // Independence => I = 0 and VI = H(X) + H(Y).
        let a = [0u32, 0, 1, 1];
        let b = [0u32, 1, 0, 1];
        assert!(mutual_information(&a, &b, 2, 2) < 1e-12);
        assert!((variation_of_information(&a, &b, 2, 2) - 2.0).abs() < 1e-9);
        assert!((joint_entropy(&a, &b, 2, 2) - 2.0).abs() < 1e-9);
        assert!((normalized_vi(&a, &b, 2, 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn vi_triangle_inequality_spot_check() {
        // VI is a metric: check the triangle inequality on a few partitions.
        let x = [0u32, 0, 0, 1, 1, 1, 2, 2, 2];
        let y = [0u32, 0, 1, 1, 1, 2, 2, 2, 0];
        let z = [0u32, 1, 2, 0, 1, 2, 0, 1, 2];
        let d_xy = variation_of_information(&x, &y, 3, 3);
        let d_yz = variation_of_information(&y, &z, 3, 3);
        let d_xz = variation_of_information(&x, &z, 3, 3);
        assert!(d_xz <= d_xy + d_yz + 1e-9);
        assert!(d_xy <= d_xz + d_yz + 1e-9);
        assert!(d_yz <= d_xy + d_xz + 1e-9);
    }
}
