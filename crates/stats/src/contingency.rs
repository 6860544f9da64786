//! Contingency tables between two discrete labelings.
//!
//! A candidate map assigns every tuple of the working set to one of its
//! regions, i.e. it defines a discrete random variable (Definition 2 of the
//! paper). The dependency between two maps is computed from the contingency
//! table of their two label vectors — or, much faster, directly from the
//! region selection bitmaps via [`ContingencyTable::from_selections`], which
//! never materialises a label per row. When both maps partition one set (no
//! NULL rows missing from either), [`ContingencyTable::from_partitions`]
//! intersects only the `(r−1)(c−1)` head cells and completes the last row
//! and column from the region counts.

use atlas_columnar::Bitmap;

/// A dense `r × c` contingency table between two label vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct ContingencyTable {
    rows: usize,
    cols: usize,
    counts: Vec<u64>,
    total: u64,
}

impl ContingencyTable {
    /// Build a contingency table from two equally long label vectors.
    ///
    /// Labels must be dense indices (`0..rows`, `0..cols`); `rows`/`cols` are
    /// the number of categories of each labeling. Pairs where either label is
    /// `>= rows`/`>= cols` are ignored (they represent rows that fall outside
    /// the map, e.g. NULLs).
    ///
    /// # Panics
    /// Panics if the label vectors have different lengths.
    pub fn from_labels(a: &[u32], b: &[u32], rows: usize, cols: usize) -> Self {
        assert_eq!(a.len(), b.len(), "label vectors must have equal length");
        let mut counts = vec![0u64; rows * cols];
        let mut total = 0u64;
        for (&x, &y) in a.iter().zip(b.iter()) {
            let (x, y) = (x as usize, y as usize);
            if x < rows && y < cols {
                counts[x * cols + y] += 1;
                total += 1;
            }
        }
        ContingencyTable {
            rows,
            cols,
            counts,
            total,
        }
    }

    /// Build a contingency table directly from per-category selection
    /// bitmaps: cell `(i, j)` is the population of `rows[i] ∩ cols[j]`.
    ///
    /// This is the fused columnar form of
    /// [`ContingencyTable::from_labels`]: for two partitions given as region
    /// bitmaps over the same row range it produces the **same table** (rows
    /// outside every region of either side are ignored), but the cost is
    /// `O(r·c·words)` word-level popcounts instead of a per-row label pass —
    /// no `Vec<u32>` label vector, no `Vec<usize>` index vector.
    ///
    /// The bitmaps of each side must be pairwise disjoint (they are for every
    /// map produced by `CUT` and the merge operators); overlapping bitmaps
    /// would double-count rows.
    ///
    /// The default fold is word-level: each cell is one streaming
    /// [`Bitmap::intersection_count`] pass (AND + popcount over the word
    /// arrays, 64 rows per step — the layout a compiler turns into wide
    /// vector popcounts). `ATLAS_FORCE_SCALAR=1` routes through the per-row
    /// reference instead, which tests every `(row, region-pair)` combination
    /// one bit at a time; both sum the same indicator values, so the table
    /// is identical.
    ///
    /// # Panics
    /// Panics if the bitmaps do not all range over the same number of rows.
    pub fn from_selections(rows: &[&Bitmap], cols: &[&Bitmap]) -> Self {
        let r = rows.len();
        let c = cols.len();
        let mut counts = vec![0u64; r * c];
        let mut total = 0u64;
        if atlas_columnar::force_scalar() {
            if r > 0 && c > 0 {
                let len = rows[0].len();
                for bm in rows.iter().chain(cols.iter()) {
                    assert_eq!(bm.len(), len, "bitmap length mismatch");
                }
                for k in 0..len {
                    for (i, row) in rows.iter().enumerate() {
                        if !row.get(k) {
                            continue;
                        }
                        for (j, col) in cols.iter().enumerate() {
                            if col.get(k) {
                                counts[i * c + j] += 1;
                                total += 1;
                            }
                        }
                    }
                }
            }
        } else {
            for (i, row) in rows.iter().enumerate() {
                for (j, col) in cols.iter().enumerate() {
                    let n = row.intersection_count(col) as u64;
                    counts[i * c + j] = n;
                    total += n;
                }
            }
        }
        ContingencyTable {
            rows: r,
            cols: c,
            counts,
            total,
        }
    }

    /// [`ContingencyTable::from_selections`] for two **partitions of one
    /// set**: each side's bitmaps are pairwise disjoint and both sides cover
    /// the same rows, so `row_counts[i] = |rows[i]|` and
    /// `col_counts[j] = |cols[j]|` sum to the same total.
    ///
    /// Then each row of the table sums to its region's count and each column
    /// to its, so only the `(r−1)(c−1)` head cells are intersected: the last
    /// column is `row_counts[i]` minus the row's head cells, and the last row
    /// is `col_counts[j]` minus the column's cells above it. Integer
    /// arithmetic, so the table is the one
    /// [`ContingencyTable::from_selections`] counts, cell for cell — for two
    /// two-region maps, one intersection instead of four. Under
    /// `ATLAS_FORCE_SCALAR=1` the head cells are counted by the software
    /// popcount fold.
    ///
    /// # Panics
    /// Panics if a side has a different number of counts than bitmaps, if the
    /// two sides' counts sum to different totals, or if the bitmaps do not
    /// all range over the same number of rows.
    pub fn from_partitions(
        rows: &[&Bitmap],
        row_counts: &[u64],
        cols: &[&Bitmap],
        col_counts: &[u64],
    ) -> Self {
        assert_eq!(rows.len(), row_counts.len(), "one count per row region");
        assert_eq!(cols.len(), col_counts.len(), "one count per column region");
        let total: u64 = row_counts.iter().sum();
        assert_eq!(
            total,
            col_counts.iter().sum::<u64>(),
            "both sides must partition one set"
        );
        let (r, c) = (rows.len(), cols.len());
        if r == 0 || c == 0 {
            return ContingencyTable::from_selections(rows, cols);
        }
        let mut counts = vec![0u64; r * c];
        // What each column still holds for the rows not yet filled in.
        let mut col_left = col_counts.to_vec();
        let (head, last) = counts.split_at_mut((r - 1) * c);
        for ((cells, row), &row_count) in head.chunks_exact_mut(c).zip(rows).zip(row_counts) {
            let mut row_left = row_count;
            for ((cell, col), left) in cells.iter_mut().zip(cols).zip(&mut col_left).take(c - 1) {
                *cell = row.intersection_count(col) as u64;
                row_left -= *cell;
                *left -= *cell;
            }
            cells[c - 1] = row_left;
            col_left[c - 1] -= row_left;
        }
        last.copy_from_slice(&col_left);
        ContingencyTable {
            rows: r,
            cols: c,
            counts,
            total,
        }
    }

    /// Build a contingency table from a prebuilt row-major `rows × cols`
    /// count matrix (the total is derived).
    ///
    /// This is the gather half of a distributed contingency computation:
    /// per-shard partial tables over disjoint row ranges sum cell-wise into
    /// exactly the counts [`ContingencyTable::from_selections`] computes over
    /// the whole table (integer addition is exact), so the entropies — and
    /// every distance derived from them — come out bit-identical.
    ///
    /// # Panics
    /// Panics if `counts.len() != rows * cols`.
    pub fn from_counts(rows: usize, cols: usize, counts: Vec<u64>) -> Self {
        assert_eq!(
            counts.len(),
            rows * cols,
            "count matrix must be rows × cols"
        );
        let total = counts.iter().sum();
        ContingencyTable {
            rows,
            cols,
            counts,
            total,
        }
    }

    /// The row-major cell counts (`rows × cols` values).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of row categories.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of column categories.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Total number of counted pairs.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The count in cell `(i, j)`.
    pub fn count(&self, i: usize, j: usize) -> u64 {
        self.counts[i * self.cols + j]
    }

    /// Row marginals (one per row category).
    pub fn row_marginals(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.rows];
        for (i, row_total) in out.iter_mut().enumerate() {
            for j in 0..self.cols {
                *row_total += self.count(i, j);
            }
        }
        out
    }

    /// Column marginals (one per column category).
    pub fn col_marginals(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.cols];
        for (j, col_total) in out.iter_mut().enumerate() {
            for i in 0..self.rows {
                *col_total += self.count(i, j);
            }
        }
        out
    }

    /// Entropy of the row variable, `H(X)`, in bits.
    pub fn row_entropy(&self) -> f64 {
        crate::entropy::entropy_of_counts(&self.row_marginals())
    }

    /// Entropy of the column variable, `H(Y)`, in bits.
    pub fn col_entropy(&self) -> f64 {
        crate::entropy::entropy_of_counts(&self.col_marginals())
    }

    /// Joint entropy `H(X, Y)` in bits.
    pub fn joint_entropy(&self) -> f64 {
        crate::entropy::entropy_of_counts(&self.counts)
    }

    /// Mutual information `I(X; Y) = H(X) + H(Y) − H(X, Y)` in bits.
    ///
    /// Clamped at zero to absorb floating-point noise.
    pub fn mutual_information(&self) -> f64 {
        (self.row_entropy() + self.col_entropy() - self.joint_entropy()).max(0.0)
    }

    /// Variation of Information `VI(X; Y) = H(X,Y) − I(X;Y)` in bits.
    ///
    /// VI is a true metric on partitions (Meilă 2007), which is why the paper
    /// prefers it over raw mutual information as a map distance.
    pub fn variation_of_information(&self) -> f64 {
        (2.0 * self.joint_entropy() - self.row_entropy() - self.col_entropy()).max(0.0)
    }

    /// Normalised VI in `[0, 1]`: `VI / H(X,Y)` (0 when the joint entropy is 0).
    pub fn normalized_vi(&self) -> f64 {
        let joint = self.joint_entropy();
        if joint <= f64::EPSILON {
            0.0
        } else {
            (self.variation_of_information() / joint).clamp(0.0, 1.0)
        }
    }

    /// Normalised mutual information in `[0, 1]` (arithmetic-mean
    /// normalisation). 0 when either marginal entropy is 0.
    pub fn normalized_mi(&self) -> f64 {
        let hx = self.row_entropy();
        let hy = self.col_entropy();
        let denom = 0.5 * (hx + hy);
        if denom <= f64::EPSILON {
            0.0
        } else {
            (self.mutual_information() / denom).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_counts_and_marginals() {
        let a = [0u32, 0, 1, 1, 1];
        let b = [0u32, 1, 0, 1, 1];
        let t = ContingencyTable::from_labels(&a, &b, 2, 2);
        assert_eq!(t.total(), 5);
        assert_eq!(t.count(0, 0), 1);
        assert_eq!(t.count(0, 1), 1);
        assert_eq!(t.count(1, 0), 1);
        assert_eq!(t.count(1, 1), 2);
        assert_eq!(t.row_marginals(), vec![2, 3]);
        assert_eq!(t.col_marginals(), vec![2, 3]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_cols(), 2);
    }

    #[test]
    fn out_of_range_labels_are_ignored() {
        let a = [0u32, 5, 1];
        let b = [0u32, 0, 9];
        let t = ContingencyTable::from_labels(&a, &b, 2, 2);
        assert_eq!(t.total(), 1);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        ContingencyTable::from_labels(&[0], &[0, 1], 2, 2);
    }

    #[test]
    fn identical_labelings_have_zero_vi_and_full_nmi() {
        let a = [0u32, 1, 2, 0, 1, 2, 0, 1];
        let t = ContingencyTable::from_labels(&a, &a, 3, 3);
        assert!(t.variation_of_information() < 1e-9);
        assert!((t.normalized_mi() - 1.0).abs() < 1e-9);
        assert!(t.normalized_vi() < 1e-9);
        assert!((t.mutual_information() - t.row_entropy()).abs() < 1e-9);
    }

    #[test]
    fn independent_labelings_have_zero_mi() {
        // Perfectly independent: every (a, b) combination appears equally often.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..2u32 {
            for j in 0..2u32 {
                for _ in 0..25 {
                    a.push(i);
                    b.push(j);
                }
            }
        }
        let t = ContingencyTable::from_labels(&a, &b, 2, 2);
        assert!(t.mutual_information() < 1e-9);
        assert!((t.variation_of_information() - 2.0).abs() < 1e-9);
        assert!(t.normalized_mi() < 1e-9);
        assert!((t.normalized_vi() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_labeling_edge_case() {
        let a = [0u32; 10];
        let b = [0u32; 10];
        let t = ContingencyTable::from_labels(&a, &b, 1, 1);
        assert_eq!(t.mutual_information(), 0.0);
        assert_eq!(t.variation_of_information(), 0.0);
        assert_eq!(t.normalized_vi(), 0.0);
        assert_eq!(t.normalized_mi(), 0.0);
    }

    /// Region bitmaps equivalent to a label vector (one bitmap per label).
    fn selections_of(labels: &[u32], card: usize) -> Vec<Bitmap> {
        (0..card as u32)
            .map(|region| {
                Bitmap::from_indices(
                    labels.len(),
                    labels
                        .iter()
                        .enumerate()
                        .filter(|&(_, &l)| l == region)
                        .map(|(i, _)| i),
                )
            })
            .collect()
    }

    #[test]
    fn from_selections_matches_from_labels() {
        // Includes out-of-range (no-region) labels, which become rows covered
        // by no bitmap.
        let a = [0u32, 1, 2, 0, 1, 9, 2, 0, 9, 1, 1, 0];
        let b = [1u32, 0, 1, 1, 0, 0, 9, 1, 9, 0, 1, 1];
        let from_labels = ContingencyTable::from_labels(&a, &b, 3, 2);
        let sa = selections_of(&a, 3);
        let sb = selections_of(&b, 2);
        let ra: Vec<&Bitmap> = sa.iter().collect();
        let rb: Vec<&Bitmap> = sb.iter().collect();
        let from_sel = ContingencyTable::from_selections(&ra, &rb);
        assert_eq!(from_sel, from_labels);
        assert_eq!(from_sel.total(), from_labels.total());
        assert_eq!(
            from_sel.variation_of_information().to_bits(),
            from_labels.variation_of_information().to_bits(),
            "identical counts must give bit-identical entropies"
        );
    }

    #[test]
    fn from_selections_with_empty_sides() {
        let bm = Bitmap::from_indices(10, 0..5);
        let t = ContingencyTable::from_selections(&[], &[&bm]);
        assert_eq!(t.total(), 0);
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.normalized_vi(), 0.0);
    }

    #[test]
    fn from_counts_matches_from_selections_cell_for_cell() {
        let a = [0u32, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 1];
        let b = [1u32, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0];
        let whole = ContingencyTable::from_labels(&a, &b, 3, 2);
        // Split the rows in two halves, sum the partial count matrices.
        let first = ContingencyTable::from_labels(&a[..6], &b[..6], 3, 2);
        let second = ContingencyTable::from_labels(&a[6..], &b[6..], 3, 2);
        let summed: Vec<u64> = first
            .counts()
            .iter()
            .zip(second.counts())
            .map(|(x, y)| x + y)
            .collect();
        let gathered = ContingencyTable::from_counts(3, 2, summed);
        assert_eq!(gathered, whole);
        assert_eq!(
            gathered.normalized_vi().to_bits(),
            whole.normalized_vi().to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "rows × cols")]
    fn from_counts_rejects_a_misshapen_matrix() {
        ContingencyTable::from_counts(2, 2, vec![1, 2, 3]);
    }

    #[test]
    fn from_selections_word_fold_matches_the_scalar_reference() {
        use atlas_columnar::{with_kernel_path, KernelPath};
        // Irregular length (trailing partial word) and sparse/empty regions.
        let n = 200;
        let ra: Vec<Bitmap> = (0..3)
            .map(|g| Bitmap::from_indices(n, (0..n).filter(move |i| i % 3 == g)))
            .collect();
        let rb: Vec<Bitmap> = vec![
            Bitmap::from_indices(n, (0..n).filter(|i| i % 5 < 2)),
            Bitmap::from_indices(n, (0..n).filter(|i| i % 5 >= 2 && i % 7 != 0)),
            Bitmap::new_empty(n),
        ];
        let ra: Vec<&Bitmap> = ra.iter().collect();
        let rb: Vec<&Bitmap> = rb.iter().collect();
        let word = with_kernel_path(KernelPath::WordParallel, || {
            ContingencyTable::from_selections(&ra, &rb)
        });
        let scalar = with_kernel_path(KernelPath::Scalar, || {
            ContingencyTable::from_selections(&ra, &rb)
        });
        assert_eq!(word, scalar);
        assert_eq!(
            word.normalized_vi().to_bits(),
            scalar.normalized_vi().to_bits()
        );
    }

    #[test]
    fn from_partitions_matches_from_selections_on_both_paths() {
        use atlas_columnar::{with_kernel_path, KernelPath};
        // Every side partitions the same rows (not all of them: some are in
        // no region, as NULLs are); the shapes run from 1×1 to 4×4, and the
        // 4-region side has an empty region.
        let n = 203;
        let covered: Vec<usize> = (0..n).filter(|i| i % 11 != 4).collect();
        let side = |k: usize, assign: &dyn Fn(usize) -> usize| -> Vec<Bitmap> {
            (0..k)
                .map(|g| {
                    Bitmap::from_indices(n, covered.iter().copied().filter(|&i| assign(i) == g))
                })
                .collect()
        };
        let sides = [
            side(1, &|_| 0),
            side(2, &|i| i % 2),
            side(3, &|i| (i / 5) % 3),
            side(4, &|i| [0, 1, 3][(i * 7) % 3]),
        ];
        let count =
            |side: &[&Bitmap]| -> Vec<u64> { side.iter().map(|bm| bm.count() as u64).collect() };
        for a in &sides {
            for b in &sides {
                let ra: Vec<&Bitmap> = a.iter().collect();
                let rb: Vec<&Bitmap> = b.iter().collect();
                let (ca, cb) = (count(&ra), count(&rb));
                let every_cell = ContingencyTable::from_selections(&ra, &rb);
                for path in [KernelPath::WordParallel, KernelPath::Scalar] {
                    let derived = with_kernel_path(path, || {
                        ContingencyTable::from_partitions(&ra, &ca, &rb, &cb)
                    });
                    assert_eq!(derived, every_cell, "{}×{} {path:?}", ra.len(), rb.len());
                }
            }
        }
        let none = ContingencyTable::from_partitions(&[], &[], &[], &[]);
        assert_eq!(none.total(), 0);
    }

    #[test]
    #[should_panic(expected = "partition one set")]
    fn from_partitions_rejects_sides_of_different_totals() {
        let a = Bitmap::from_indices(10, 0..5);
        let b = Bitmap::from_indices(10, 0..6);
        ContingencyTable::from_partitions(&[&a], &[5], &[&b], &[6]);
    }

    #[test]
    fn vi_is_symmetric() {
        let a = [0u32, 0, 1, 2, 1, 0, 2, 2, 1, 0];
        let b = [1u32, 0, 1, 1, 0, 0, 1, 0, 1, 1];
        let t_ab = ContingencyTable::from_labels(&a, &b, 3, 2);
        let t_ba = ContingencyTable::from_labels(&b, &a, 2, 3);
        assert!((t_ab.variation_of_information() - t_ba.variation_of_information()).abs() < 1e-12);
        assert!((t_ab.mutual_information() - t_ba.mutual_information()).abs() < 1e-12);
    }
}
