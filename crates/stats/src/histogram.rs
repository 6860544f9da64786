//! Equi-width histograms.
//!
//! The simplest cutting strategy in the paper is equi-width binning of an
//! ordinal attribute ("fast and intuitive"): bin edges plus per-bin counts.
//! The server's latency report (`atlas-serve::metrics`) is built on it.

/// An equi-width histogram over a numeric sample.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiWidthHistogram {
    /// Bin edges, `num_bins + 1` of them, strictly increasing (except for the
    /// degenerate single-value case where all edges coincide).
    pub edges: Vec<f64>,
    /// Number of observations per bin.
    pub counts: Vec<usize>,
}

impl EquiWidthHistogram {
    /// Build an equi-width histogram with `num_bins` bins. Returns `None` for
    /// empty input or `num_bins == 0`.
    pub fn build(values: &[f64], num_bins: usize) -> Option<Self> {
        if values.is_empty() || num_bins == 0 {
            return None;
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut edges = Vec::with_capacity(num_bins + 1);
        if min == max {
            edges = vec![min; num_bins + 1];
            let mut counts = vec![0usize; num_bins];
            counts[0] = values.len();
            return Some(EquiWidthHistogram { edges, counts });
        }
        let width = (max - min) / num_bins as f64;
        for i in 0..=num_bins {
            edges.push(min + width * i as f64);
        }
        let mut counts = vec![0usize; num_bins];
        for &v in values {
            let mut bin = ((v - min) / width) as usize;
            if bin >= num_bins {
                bin = num_bins - 1;
            }
            counts[bin] += 1;
        }
        Some(EquiWidthHistogram { edges, counts })
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.counts.len()
    }

    /// Total number of observations.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The interior split points (edges without the outermost two).
    pub fn split_points(&self) -> Vec<f64> {
        if self.edges.len() <= 2 {
            Vec::new()
        } else {
            self.edges[1..self.edges.len() - 1].to_vec()
        }
    }

    /// The bin index a value falls into.
    pub fn bin_of(&self, value: f64) -> usize {
        let n = self.num_bins();
        if n == 0 {
            return 0;
        }
        let min = self.edges[0];
        let max = self.edges[self.edges.len() - 1];
        if max == min {
            return 0;
        }
        let width = (max - min) / n as f64;
        let bin = ((value - min) / width).floor();
        (bin.max(0.0) as usize).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_width_basics() {
        let v: Vec<f64> = (0..100).map(|x| x as f64).collect();
        let h = EquiWidthHistogram::build(&v, 4).unwrap();
        assert_eq!(h.num_bins(), 4);
        assert_eq!(h.total(), 100);
        assert_eq!(h.counts, vec![25, 25, 25, 25]);
        assert_eq!(h.edges.len(), 5);
        assert_eq!(h.split_points().len(), 3);
        assert_eq!(h.bin_of(0.0), 0);
        assert_eq!(h.bin_of(99.0), 3);
        assert_eq!(h.bin_of(-5.0), 0);
        assert_eq!(h.bin_of(1000.0), 3);
    }

    #[test]
    fn equi_width_degenerate_single_value() {
        let v = vec![3.0; 10];
        let h = EquiWidthHistogram::build(&v, 4).unwrap();
        assert_eq!(h.total(), 10);
        assert_eq!(h.counts[0], 10);
        assert_eq!(h.bin_of(3.0), 0);
    }

    #[test]
    fn equi_width_rejects_bad_input() {
        assert!(EquiWidthHistogram::build(&[], 3).is_none());
        assert!(EquiWidthHistogram::build(&[1.0], 0).is_none());
    }
}
