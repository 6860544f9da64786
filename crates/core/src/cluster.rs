//! Agglomerative clustering of candidate maps (step 2b of the framework).
//!
//! The paper favours agglomerative hierarchical methods (and cites SLINK)
//! because (a) the number of clusters is unknown a priori, ruling out
//! centroid methods, and (b) a hierarchy makes it easy to control the size of
//! the clusters and hence the complexity of the merged maps.
//!
//! [`cluster_maps`] is a generic agglomerative algorithm supporting single,
//! complete and average linkage, with the stopping rules Atlas needs
//! (distance threshold and maximum cluster size). With at most a few dozen
//! candidate maps, its `O(n³)` is never a bottleneck. SLINK (Sibson 1973),
//! `O(n²)` and single linkage only, lives in the tests as the oracle the
//! single-linkage clustering is held to.

use crate::distance::DistanceMatrix;
use crate::error::{AtlasError, Result};
use minirayon::ThreadPool;

/// Linkage criterion for the generic agglomerative algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Linkage {
    /// Distance between clusters = minimum pairwise distance (SLINK-style).
    #[default]
    Single,
    /// Distance between clusters = maximum pairwise distance.
    Complete,
    /// Distance between clusters = unweighted average pairwise distance.
    Average,
}

/// Configuration of the map-clustering step.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringConfig {
    /// Linkage criterion.
    pub linkage: Linkage,
    /// Two clusters are only merged while their linkage distance is at most
    /// this threshold. `None` disables the threshold (merging is then limited
    /// only by `max_cluster_size`).
    pub distance_threshold: Option<f64>,
    /// Maximum number of candidate maps per cluster. Because candidate maps
    /// are one attribute each, this bounds the number of predicates a merged
    /// region query adds to the user query: one per attribute ("we target
    /// less than 3"; the default is 3).
    pub max_cluster_size: usize,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            // The threshold is calibrated for the normalised VI distance:
            // genuinely independent attributes score ≈ 1.0 (up to sampling
            // noise), while even dependencies that binary cuts coarsen heavily
            // stay below ≈ 0.95.
            linkage: Linkage::Single,
            distance_threshold: Some(0.95),
            max_cluster_size: 3,
        }
    }
}

impl ClusteringConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.max_cluster_size == 0 {
            return Err(AtlasError::InvalidConfig(
                "max_cluster_size must be at least 1".to_string(),
            ));
        }
        if let Some(t) = self.distance_threshold {
            if t < 0.0 {
                return Err(AtlasError::InvalidConfig(
                    "distance_threshold must be non-negative".to_string(),
                ));
            }
        }
        Ok(())
    }
}

/// Generic agglomerative clustering with the Atlas stopping rules.
///
/// Starting from one cluster per candidate map, repeatedly merge the two
/// closest clusters (under the chosen linkage) while:
///
/// * the linkage distance does not exceed `distance_threshold` (if set), and
/// * the merged cluster would not exceed `max_cluster_size` maps.
///
/// Returns the clusters as lists of candidate indices, each sorted, ordered by
/// their smallest member.
pub fn cluster_maps(
    distances: &DistanceMatrix,
    config: &ClusteringConfig,
) -> Result<Vec<Vec<usize>>> {
    cluster_maps_with_pool(distances, config, ThreadPool::sequential())
}

/// [`cluster_maps`] with the closest-pair search of each round split across a
/// thread pool (row-blocked over the first cluster index).
///
/// The selected pair — smallest linkage distance, ties broken by the smallest
/// `(a, b)` index pair — is a pure function of the matrix, so the clustering
/// is **identical at every thread count**. Small instances (fewer than
/// [`PARALLEL_SEARCH_THRESHOLD`] clusters) search sequentially; the scan is
/// memory-bound and not worth task dispatch below that.
pub fn cluster_maps_with_pool(
    distances: &DistanceMatrix,
    config: &ClusteringConfig,
    pool: &ThreadPool,
) -> Result<Vec<Vec<usize>>> {
    config.validate()?;
    let n = distances.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    loop {
        // Find the closest admissible pair of clusters.
        let best = if pool.threads() > 1 && clusters.len() >= PARALLEL_SEARCH_THRESHOLD {
            let clusters = &clusters;
            pool.par_map_indexed(clusters.len(), 4, |a| {
                best_partner_of(distances, clusters, config, a)
            })
            .into_iter()
            .flatten()
            .min_by(|x, y| pair_order(*x, *y))
        } else {
            let mut best: Option<(f64, usize, usize)> = None;
            for a in 0..clusters.len() {
                if let Some(candidate) = best_partner_of(distances, &clusters, config, a) {
                    if best.is_none_or(|b| pair_order(candidate, b).is_lt()) {
                        best = Some(candidate);
                    }
                }
            }
            best
        };
        match best {
            Some((_, a, b)) => {
                let merged: Vec<usize> = {
                    let mut m = clusters[a].clone();
                    m.extend_from_slice(&clusters[b]);
                    m
                };
                // Remove b first (it has the larger index).
                clusters.remove(b);
                clusters.remove(a);
                clusters.push(merged);
            }
            None => break,
        }
    }
    for cluster in &mut clusters {
        cluster.sort_unstable();
    }
    clusters.sort_by_key(|c| c[0]);
    Ok(clusters)
}

/// Minimum number of clusters before the closest-pair search of a round is
/// split across the thread pool.
pub const PARALLEL_SEARCH_THRESHOLD: usize = 24;

/// The best admissible merge partner for cluster `a` among clusters `a+1..`:
/// `(distance, a, b)` of the closest pair passing the size and threshold
/// constraints, or `None` if no pair is admissible.
fn best_partner_of(
    distances: &DistanceMatrix,
    clusters: &[Vec<usize>],
    config: &ClusteringConfig,
    a: usize,
) -> Option<(f64, usize, usize)> {
    let mut best: Option<(f64, usize, usize)> = None;
    for b in (a + 1)..clusters.len() {
        if clusters[a].len() + clusters[b].len() > config.max_cluster_size {
            continue;
        }
        let d = linkage_distance(distances, &clusters[a], &clusters[b], config.linkage);
        if let Some(threshold) = config.distance_threshold {
            if d > threshold {
                continue;
            }
        }
        let candidate = (d, a, b);
        if best.is_none_or(|current| pair_order(candidate, current).is_lt()) {
            best = Some(candidate);
        }
    }
    best
}

/// Total order on merge candidates: by distance, ties broken by the smaller
/// `(a, b)` index pair — exactly the pair the sequential lexicographic scan
/// with a strict `<` distance test would keep.
fn pair_order(x: (f64, usize, usize), y: (f64, usize, usize)) -> std::cmp::Ordering {
    x.0.total_cmp(&y.0)
        .then_with(|| x.1.cmp(&y.1))
        .then_with(|| x.2.cmp(&y.2))
}

fn linkage_distance(distances: &DistanceMatrix, a: &[usize], b: &[usize], linkage: Linkage) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    let mut count = 0usize;
    for &i in a {
        for &j in b {
            let d = distances.get(i, j);
            min = min.min(d);
            max = max.max(d);
            sum += d;
            count += 1;
        }
    }
    match linkage {
        Linkage::Single => min,
        Linkage::Complete => max,
        Linkage::Average => {
            if count == 0 {
                0.0
            } else {
                sum / count as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // SLINK (Sibson 1973), the single-linkage algorithm the paper cites: the
    // independent oracle `cluster_maps` under `Linkage::Single` is held to.

    /// One merge step of a dendrogram: the two clusters merged (identified by
    /// their representative item index) and the linkage distance at which the
    /// merge happened.
    #[derive(Debug, Clone, PartialEq)]
    struct MergeStep {
        /// Representative of the first cluster merged.
        left: usize,
        /// Representative of the second cluster merged.
        right: usize,
        /// Linkage distance of the merge.
        distance: f64,
    }

    /// A single-linkage dendrogram as produced by [`slink`].
    #[derive(Debug, Clone)]
    struct Dendrogram {
        /// Merge steps in order of increasing distance.
        steps: Vec<MergeStep>,
        /// Number of items clustered.
        num_items: usize,
    }

    impl Dendrogram {
        /// Cut the dendrogram at a distance threshold: merges with a distance
        /// strictly greater than `threshold` are ignored. Returns the resulting
        /// clusters as lists of item indices.
        fn cut_at(&self, threshold: f64) -> Vec<Vec<usize>> {
            let mut uf = UnionFind::new(self.num_items);
            for step in &self.steps {
                if step.distance <= threshold {
                    uf.union(step.left, step.right);
                }
            }
            uf.clusters()
        }
    }

    /// The SLINK algorithm (Sibson 1973): optimally efficient single-linkage
    /// hierarchical clustering from a distance matrix.
    ///
    /// Returns the dendrogram (pointer representation converted to merge steps).
    fn slink(distances: &DistanceMatrix) -> Dendrogram {
        let n = distances.len();
        if n == 0 {
            return Dendrogram {
                steps: Vec::new(),
                num_items: 0,
            };
        }
        // Pointer representation: lambda[i] = distance at which i is last merged,
        // pi[i] = the representative it merges into.
        let mut lambda = vec![f64::INFINITY; n];
        let mut pi = vec![0usize; n];
        let mut m = vec![0.0f64; n];
        for i in 0..n {
            pi[i] = i;
            lambda[i] = f64::INFINITY;
            for (j, mj) in m.iter_mut().enumerate().take(i) {
                *mj = distances.get(i, j);
            }
            for j in 0..i {
                if lambda[j] >= m[j] {
                    m[pi[j]] = m[pi[j]].min(lambda[j]);
                    lambda[j] = m[j];
                    pi[j] = i;
                } else {
                    m[pi[j]] = m[pi[j]].min(m[j]);
                }
            }
            for j in 0..i {
                if lambda[j] >= lambda[pi[j]] {
                    pi[j] = i;
                }
            }
        }
        // Convert the pointer representation into merge steps sorted by distance.
        let mut steps: Vec<MergeStep> = (0..n)
            .filter(|&i| lambda[i].is_finite())
            .map(|i| MergeStep {
                left: i,
                right: pi[i],
                distance: lambda[i],
            })
            .collect();
        steps.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        Dendrogram {
            steps,
            num_items: n,
        }
    }

    /// Minimal union–find used to cut dendrograms.
    struct UnionFind {
        parent: Vec<usize>,
    }

    impl UnionFind {
        fn new(n: usize) -> Self {
            UnionFind {
                parent: (0..n).collect(),
            }
        }

        fn find(&mut self, x: usize) -> usize {
            if self.parent[x] != x {
                let root = self.find(self.parent[x]);
                self.parent[x] = root;
            }
            self.parent[x]
        }

        fn union(&mut self, a: usize, b: usize) {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra != rb {
                self.parent[rb] = ra;
            }
        }

        fn clusters(&mut self) -> Vec<Vec<usize>> {
            let n = self.parent.len();
            let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
                std::collections::BTreeMap::new();
            for i in 0..n {
                let root = self.find(i);
                groups.entry(root).or_default().push(i);
            }
            groups.into_values().collect()
        }
    }

    /// A distance matrix with two tight groups {0,1,2} and {3,4}, far apart.
    fn two_group_matrix() -> DistanceMatrix {
        let mut m = DistanceMatrix::zeros(5);
        let close = 0.1;
        let far = 0.9;
        for i in 0..5 {
            for j in (i + 1)..5 {
                let same_group = (i < 3) == (j < 3);
                m.set(i, j, if same_group { close } else { far });
            }
        }
        m
    }

    #[test]
    fn recovers_planted_groups() {
        let m = two_group_matrix();
        let clusters = cluster_maps(&m, &ClusteringConfig::default()).unwrap();
        assert_eq!(clusters, vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    fn distance_threshold_blocks_far_merges() {
        let m = two_group_matrix();
        let cfg = ClusteringConfig {
            distance_threshold: Some(0.05),
            ..ClusteringConfig::default()
        };
        let clusters = cluster_maps(&m, &cfg).unwrap();
        assert_eq!(clusters.len(), 5, "nothing should merge below 0.05");
        // Without any threshold everything merges up to the size cap.
        let cfg = ClusteringConfig {
            distance_threshold: None,
            max_cluster_size: 5,
            ..ClusteringConfig::default()
        };
        let clusters = cluster_maps(&m, &cfg).unwrap();
        assert_eq!(clusters.len(), 1);
    }

    #[test]
    fn max_cluster_size_is_enforced() {
        let m = two_group_matrix();
        let cfg = ClusteringConfig {
            max_cluster_size: 2,
            ..ClusteringConfig::default()
        };
        let clusters = cluster_maps(&m, &cfg).unwrap();
        for cluster in &clusters {
            assert!(cluster.len() <= 2);
        }
        // All five items are still present exactly once.
        let mut all: Vec<usize> = clusters.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn linkages_differ_on_chain_shaped_data() {
        // A chain: 0-1 close, 1-2 close, 0-2 far. Single linkage merges all
        // three; complete linkage (with a threshold below the far distance)
        // keeps the chain ends apart.
        let mut m = DistanceMatrix::zeros(3);
        m.set(0, 1, 0.2);
        m.set(1, 2, 0.2);
        m.set(0, 2, 0.9);
        let single = cluster_maps(
            &m,
            &ClusteringConfig {
                linkage: Linkage::Single,
                distance_threshold: Some(0.5),
                max_cluster_size: 3,
            },
        )
        .unwrap();
        assert_eq!(single.len(), 1);
        let complete = cluster_maps(
            &m,
            &ClusteringConfig {
                linkage: Linkage::Complete,
                distance_threshold: Some(0.5),
                max_cluster_size: 3,
            },
        )
        .unwrap();
        assert_eq!(complete.len(), 2);
        let average = cluster_maps(
            &m,
            &ClusteringConfig {
                linkage: Linkage::Average,
                distance_threshold: Some(0.5),
                max_cluster_size: 3,
            },
        )
        .unwrap();
        // Average of {0,1}+{2} distances = (0.9 + 0.2)/2 = 0.55 > 0.5: stays split.
        assert_eq!(average.len(), 2);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let clusters =
            cluster_maps(&DistanceMatrix::zeros(0), &ClusteringConfig::default()).unwrap();
        assert!(clusters.is_empty());
        let clusters =
            cluster_maps(&DistanceMatrix::zeros(1), &ClusteringConfig::default()).unwrap();
        assert_eq!(clusters, vec![vec![0]]);
        let dendro = slink(&DistanceMatrix::zeros(0));
        assert!(dendro.steps.is_empty());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = ClusteringConfig {
            max_cluster_size: 0,
            ..ClusteringConfig::default()
        };
        assert!(cluster_maps(&DistanceMatrix::zeros(2), &cfg).is_err());
        let cfg = ClusteringConfig {
            distance_threshold: Some(-1.0),
            ..ClusteringConfig::default()
        };
        assert!(cluster_maps(&DistanceMatrix::zeros(2), &cfg).is_err());
    }

    #[test]
    fn slink_matches_naive_single_linkage_cut() {
        let m = two_group_matrix();
        let dendro = slink(&m);
        assert_eq!(dendro.num_items, 5);
        assert_eq!(dendro.steps.len(), 4, "n-1 merges in a full dendrogram");
        // Cutting at 0.5 recovers the two planted groups.
        let mut clusters = dendro.cut_at(0.5);
        clusters.sort_by_key(|c| c[0]);
        assert_eq!(clusters, vec![vec![0, 1, 2], vec![3, 4]]);
        // Cutting below every distance keeps singletons; cutting above merges all.
        assert_eq!(dendro.cut_at(0.01).len(), 5);
        assert_eq!(dendro.cut_at(1.0).len(), 1);
        // Merge distances are non-decreasing.
        for w in dendro.steps.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn pooled_clustering_is_identical_to_sequential_on_large_matrices() {
        // Large enough to cross PARALLEL_SEARCH_THRESHOLD.
        let n = 40;
        let mut m = DistanceMatrix::zeros(n);
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, next());
            }
        }
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let cfg = ClusteringConfig {
                linkage,
                distance_threshold: Some(0.5),
                max_cluster_size: 6,
            };
            let sequential = cluster_maps(&m, &cfg).unwrap();
            let pool = minirayon::ThreadPool::new(4);
            let pooled = cluster_maps_with_pool(&m, &cfg, &pool).unwrap();
            assert_eq!(sequential, pooled, "{linkage:?}");
        }
    }

    #[test]
    fn slink_agrees_with_generic_single_linkage_on_random_matrices() {
        // Deterministic pseudo-random distances.
        for seed in 0..5u64 {
            let n = 8;
            let mut m = DistanceMatrix::zeros(n);
            let mut state = seed * 2654435761 + 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64) / (u32::MAX as f64)
            };
            for i in 0..n {
                for j in (i + 1)..n {
                    m.set(i, j, next());
                }
            }
            let threshold = 0.4;
            let mut from_slink = slink(&m).cut_at(threshold);
            from_slink.sort_by_key(|c| c[0]);
            let from_generic = cluster_maps(
                &m,
                &ClusteringConfig {
                    linkage: Linkage::Single,
                    distance_threshold: Some(threshold),
                    max_cluster_size: n,
                },
            )
            .unwrap();
            assert_eq!(from_slink, from_generic, "seed {seed}");
        }
    }
}
