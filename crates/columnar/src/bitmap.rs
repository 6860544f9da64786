//! Packed selection bitmaps.
//!
//! A [`Bitmap`] represents a subset of the rows of a table: the result of a
//! conjunctive query, the extent of a map region, or an intermediate selection.
//! Atlas manipulates these constantly (every `CUT` produces one bitmap per
//! region, covers are bitmap cardinalities, region intersection for the product
//! operator is a bitmap AND), so the representation is a packed `u64` word
//! vector with the usual bit-twiddling kernels. The two counting kernels
//! ([`Bitmap::count`], [`Bitmap::intersection_count`]) run a `popcnt`
//! compilation on CPUs that have the instruction.
//!
//! # The buffer pool
//!
//! A whole-table selection is as long as the table: 122 KiB of words at 1M
//! rows, and one explore builds a few dozen of them (one per region of every
//! candidate cut, one per product cell). Freed, buffers that size go back to
//! the kernel, and the next explore faults every page in again. So the word
//! buffers of large bitmaps — at least 64 KiB, a bitmap over 524 288 rows —
//! are recycled through one process-wide pool: [`Bitmap::new_empty`],
//! [`Bitmap::new_full`] and `clone` (so also [`Bitmap::and`] and
//! [`Bitmap::or`]) take a buffer of the exact length from it and
//! zero, fill or copy it, and dropping a bitmap returns its buffer.
//!
//! The pool holds buffers of **one length only**, the length of the last
//! buffer released: releasing a buffer of another length (the table grew by
//! an append, or another table is being explored) empties it first, so
//! buffers of a length nothing asks for any more are never stranded. Two
//! large tables of different lengths explored in turn therefore empty it at
//! every switch, and their bitmaps come from the allocator, as without a
//! pool.
//!
//! One length is exempt: that of a bitmap over a gathered table
//! ([`crate::Table::gather`]; an explore of a working set of at most an
//! eighth of the table runs over a compact copy of its rows). The explore
//! holds a [`PoolBypass`] on the copy's length, and a buffer of that length
//! is freed and displaces nothing. From about 4.2M rows up such a bitmap is
//! long enough to pool: were it allowed to replace the table-length buffers,
//! every switch between a gathered explore and a whole-table one would
//! empty the pool. The compact bitmaps themselves come from the allocator.
//!
//! The pool is bounded in bytes, not buffers: it keeps at most 6 MB, about
//! the full-length bitmaps one explore holds at once over a 1M-row table
//! (48 buffers). A longer table keeps proportionally fewer (4 at 10M rows),
//! and a table whose one bitmap exceeds the bound is not pooled at all. The
//! bound was measured for one 1M-row table per process. The pool is never
//! drained: after the last explore it keeps up to that bound until a bitmap
//! of another length is dropped.

use std::fmt;
use std::sync::Mutex;

const WORD_BITS: usize = 64;

/// The shortest word buffer the pool recycles: 64 KiB, i.e. a bitmap over at
/// least 524 288 rows. Smaller buffers are left to the allocator, which
/// reuses them from its free lists.
const POOL_MIN_WORDS: usize = 64 * 1024 / std::mem::size_of::<u64>();

/// The most bytes of buffers the pool keeps: the 48 full-length bitmaps one
/// explore holds at once over a 1M-row table (125 000 bytes each).
const POOL_BYTES: usize = 6_000_000;

/// Word buffers of one length, ready for reuse (see the module docs).
struct BufferPool {
    words: usize,
    buffers: Vec<Vec<u64>>,
    /// The lengths, in words, the live [`PoolBypass`]es name (one entry per
    /// bypass).
    bypassed: Vec<usize>,
}

impl BufferPool {
    const fn new() -> Self {
        BufferPool {
            words: 0,
            buffers: Vec::new(),
            bypassed: Vec::new(),
        }
    }

    /// A buffer of exactly `words` words with unspecified contents, if the
    /// pool holds one.
    fn take(&mut self, words: usize) -> Option<Vec<u64>> {
        if words == self.words {
            self.buffers.pop()
        } else {
            None
        }
    }

    /// Keep `buffer` for reuse if it fits within [`POOL_BYTES`]. A buffer
    /// of another length than the pooled ones replaces them all, unless a
    /// bypass names its length: then it is not kept and displaces nothing.
    /// The buffers not kept are returned so the caller frees them outside
    /// the lock.
    fn give(&mut self, buffer: Vec<u64>) -> Vec<Vec<u64>> {
        let mut displaced = Vec::new();
        if buffer.len() != self.words {
            if self.bypassed.contains(&buffer.len()) {
                return vec![buffer];
            }
            displaced = std::mem::take(&mut self.buffers);
            self.words = buffer.len();
        }
        let bytes = (self.buffers.len() + 1) * buffer.len() * std::mem::size_of::<u64>();
        if bytes <= POOL_BYTES {
            self.buffers.push(buffer);
        } else {
            displaced.push(buffer);
        }
        displaced
    }
}

static POOL: Mutex<BufferPool> = Mutex::new(BufferPool::new());

fn pool() -> std::sync::MutexGuard<'static, BufferPool> {
    // The pool's state is valid after any panic (a take or give never
    // leaves it half updated), so a poisoned lock is simply reused.
    POOL.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A pooled buffer of exactly `words` words, contents unspecified, if the
/// length is poolable and the pool holds one.
fn pooled(words: usize) -> Option<Vec<u64>> {
    (words >= POOL_MIN_WORDS)
        .then(|| pool().take(words))
        .flatten()
}

/// While it lives, a dropped bitmap over exactly one number of rows leaves
/// the pool's buffers in place instead of replacing them (see the module
/// docs): an explore over a gathered table ([`crate::Table::gather`]) holds
/// one on the gathered table's rows for as long as it runs.
#[derive(Debug)]
#[must_use = "the bypass ends when it is dropped"]
pub struct PoolBypass {
    words: usize,
}

impl PoolBypass {
    /// Exempt bitmaps over `len` rows from the pool until the bypass is
    /// dropped.
    pub fn new(len: usize) -> PoolBypass {
        let words = len.div_ceil(WORD_BITS);
        pool().bypassed.push(words);
        PoolBypass { words }
    }
}

impl Drop for PoolBypass {
    fn drop(&mut self) {
        let mut pool = pool();
        if let Some(at) = pool.bypassed.iter().position(|&w| w == self.words) {
            pool.bypassed.swap_remove(at);
        }
    }
}

/// A buffer of `words` words, every one `fill`: a pooled one if there is
/// one, a fresh allocation otherwise.
fn filled_words(words: usize, fill: u64) -> Vec<u64> {
    match pooled(words) {
        Some(mut buffer) => {
            buffer.fill(fill);
            buffer
        }
        None => vec![fill; words],
    }
}

/// A bitmap over the rows `0..len` of a table.
#[derive(PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Clone for Bitmap {
    fn clone(&self) -> Self {
        let words = match pooled(self.words.len()) {
            Some(mut buffer) => {
                buffer.copy_from_slice(&self.words);
                buffer
            }
            None => self.words.clone(),
        };
        Bitmap {
            words,
            len: self.len,
        }
    }
}

impl Drop for Bitmap {
    fn drop(&mut self) {
        if self.words.len() >= POOL_MIN_WORDS {
            // The guard is a temporary of this statement, so the displaced
            // buffers are freed after the lock is released.
            let displaced = pool().give(std::mem::take(&mut self.words));
            drop(displaced);
        }
    }
}

impl Bitmap {
    /// Create an empty (all-zero) bitmap over `len` rows.
    pub fn new_empty(len: usize) -> Self {
        Bitmap {
            words: filled_words(len.div_ceil(WORD_BITS), 0),
            len,
        }
    }

    /// Create a full (all-one) bitmap over `len` rows.
    pub fn new_full(len: usize) -> Self {
        let mut bm = Bitmap {
            words: filled_words(len.div_ceil(WORD_BITS), u64::MAX),
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Build a bitmap over `len` rows from an iterator of set row indices.
    ///
    /// Indices `>= len` are ignored.
    pub fn from_indices<I: IntoIterator<Item = usize>>(len: usize, indices: I) -> Self {
        let mut bm = Bitmap::new_empty(len);
        for idx in indices {
            if idx < len {
                bm.set(idx);
            }
        }
        bm
    }

    /// Rebuild a bitmap over `len` rows from its packed word vector (the
    /// exact inverse of [`Bitmap::words`], e.g. after a wire transfer).
    ///
    /// The vector is truncated or zero-extended to `len.div_ceil(64)` words
    /// and bits past `len` are cleared, so any input yields a well-formed
    /// bitmap.
    pub fn from_words(len: usize, mut words: Vec<u64>) -> Self {
        words.resize(len.div_ceil(WORD_BITS), 0);
        let mut bm = Bitmap { words, len };
        bm.mask_tail();
        bm
    }

    /// The packed `u64` words backing this bitmap, least-significant bit
    /// first (`len.div_ceil(64)` words; bits past `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The number of rows this bitmap ranges over (not the number of set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap ranges over zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    pub fn set(&mut self, idx: usize) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
    }

    /// Clear bit `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    pub fn clear(&mut self, idx: usize) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words[idx / WORD_BITS] &= !(1u64 << (idx % WORD_BITS));
    }

    /// Get bit `idx`. Out-of-range indices return `false`.
    pub fn get(&self, idx: usize) -> bool {
        if idx >= self.len {
            return false;
        }
        (self.words[idx / WORD_BITS] >> (idx % WORD_BITS)) & 1 == 1
    }

    /// The number of set bits (the *cover count* in Atlas terms).
    ///
    /// One `popcnt` instruction per word on a CPU that has it. Baseline
    /// x86-64 has none, so the portable fold there is a software bit count;
    /// it also runs on other targets and under `ATLAS_FORCE_SCALAR`.
    pub fn count(&self) -> usize {
        #[cfg(target_arch = "x86_64")]
        if hardware_popcount() {
            // SAFETY: `count_popcnt` is safe Rust whose only precondition is
            // a CPU that executes POPCNT, which `hardware_popcount` just
            // confirmed at run time.
            return unsafe { count_popcnt(&self.words) };
        }
        count_fold(&self.words)
    }

    /// The cover of this selection: fraction of rows selected, in `[0, 1]`.
    ///
    /// This is the `C(Q)` of the paper when the bitmap is the extent of query
    /// `Q` over the whole table. Returns 0 for an empty table.
    pub fn cover(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count() as f64 / self.len as f64
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    /// Panics if the two bitmaps range over different numbers of rows.
    pub fn intersect_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= *o;
        }
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    /// Panics if the two bitmaps range over different numbers of rows.
    pub fn union_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= *o;
        }
    }

    /// Returns the intersection of two bitmaps as a new bitmap.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns the union of two bitmaps as a new bitmap.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns the complement of this bitmap (over the same row range).
    pub fn not(&self) -> Bitmap {
        let mut out = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// True if no bits are set.
    pub fn is_all_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if the two bitmaps have no set bit in common.
    pub fn is_disjoint(&self, other: &Bitmap) -> bool {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == 0)
    }

    /// The number of set bits in the intersection, without materialising it.
    /// Dispatches like [`Bitmap::count`].
    pub fn intersection_count(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        #[cfg(target_arch = "x86_64")]
        if hardware_popcount() {
            // SAFETY: `intersection_count_popcnt` is safe Rust whose only
            // precondition is a CPU that executes POPCNT, which
            // `hardware_popcount` just confirmed at run time.
            return unsafe { intersection_count_popcnt(&self.words, &other.words) };
        }
        intersection_count_fold(&self.words, &other.words)
    }

    /// Iterate over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            bitmap: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Call `f` with the index of every set bit, in increasing order.
    ///
    /// This is the streaming form of [`Bitmap::iter_ones`]: it skips all-zero
    /// words a whole `u64` at a time and compiles to a tight loop, so scan
    /// kernels can visit a selection without materialising an index vector.
    #[inline]
    pub fn for_each_one(&self, mut f: impl FnMut(usize)) {
        for (word_idx, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                f(word_idx * WORD_BITS + bit);
                bits &= bits - 1;
            }
        }
    }

    /// [`Bitmap::for_each_one`] restricted to the half-open row range
    /// `start..end`: call `f` with the index of every set bit inside the
    /// range, in increasing order.
    ///
    /// This is the kernel segmented tables scan with — each segment walks only
    /// its own slice of a table-wide selection, skipping all-zero words a
    /// whole `u64` at a time and masking the two boundary words, so the union
    /// of the per-segment walks visits exactly the bits the global walk would.
    #[inline]
    pub fn for_each_one_in(&self, start: usize, end: usize, mut f: impl FnMut(usize)) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        let first_word = start / WORD_BITS;
        let last_word = (end - 1) / WORD_BITS;
        for word_idx in first_word..=last_word {
            let mut bits = self.words[word_idx];
            if word_idx == first_word {
                bits &= !0u64 << (start % WORD_BITS);
            }
            if word_idx == last_word {
                let rem = end - word_idx * WORD_BITS;
                if rem < WORD_BITS {
                    bits &= (1u64 << rem) - 1;
                }
            }
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                f(word_idx * WORD_BITS + bit);
                bits &= bits - 1;
            }
        }
    }

    /// Build a bitmap over `len` rows from a per-row predicate, assembling
    /// whole words at a time (the fused form of [`Bitmap::from_indices`] for
    /// dense constructions like null masks).
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Bitmap {
        let mut bm = Bitmap::new_empty(len);
        for (word_idx, word) in bm.words.iter_mut().enumerate() {
            let base = word_idx * WORD_BITS;
            let top = WORD_BITS.min(len - base);
            let mut acc = 0u64;
            for bit in 0..top {
                if f(base + bit) {
                    acc |= 1u64 << bit;
                }
            }
            *word = acc;
        }
        bm
    }

    /// Append one bit, growing the bitmap by a row.
    ///
    /// Amortised O(1): a new word is allocated only every 64 pushes. This is
    /// the builder primitive validity masks use while a column is ingested.
    pub fn push(&mut self, bit: bool) {
        let rem = self.len % WORD_BITS;
        if rem == 0 {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / WORD_BITS] |= 1u64 << rem;
        }
        self.len += 1;
    }

    /// The 64-bit window of this bitmap starting at bit `start`: bit `b` of
    /// the result is `self.get(start + b)`. Bits past the end read as zero,
    /// so any `start` is legal.
    ///
    /// This is the gather primitive of the word-parallel kernels: a segment
    /// whose global offset is not word-aligned reads its validity mask in
    /// 64-row windows aligned to the *selection* words, one shift-and-or per
    /// window instead of 64 `get` calls.
    #[inline]
    pub fn word_at(&self, start: usize) -> u64 {
        let q = start / WORD_BITS;
        let r = start % WORD_BITS;
        let lo = self.words.get(q).copied().unwrap_or(0);
        if r == 0 {
            lo
        } else {
            let hi = self.words.get(q + 1).copied().unwrap_or(0);
            (lo >> r) | (hi << (WORD_BITS - r))
        }
    }

    /// The inverse of gathering `rows`: the bitmap over `rows.len()` rows in
    /// which the `i`-th set row of `rows` is set iff bit `i` of `self` is.
    /// `self` ranges over `rows.count()` rows — a selection over a table
    /// gathered by `rows` ([`crate::Table::gather`]), mapped back to the
    /// rows of the table it was gathered from.
    ///
    /// One pass over the words of `rows`, without a branch: each word
    /// deposits the next `popcount` bits of `self` at its set rows (`pdep`
    /// on a CPU with BMI2, a loop otherwise). A walk of `self`'s bits would
    /// need each bit's row, which takes the same pass over `rows` to rank,
    /// so it is never the cheaper body; an empty or a full `self` takes
    /// neither.
    ///
    /// # Panics
    /// Panics if `self.len() != rows.count()`.
    pub fn expand(&self, rows: &Bitmap) -> Bitmap {
        assert_eq!(self.len, rows.count(), "bitmap length mismatch");
        match self.count() {
            0 => return Bitmap::new_empty(rows.len),
            ones if ones == self.len => return rows.clone(),
            _ => {}
        }
        let mut out = Bitmap::new_empty(rows.len);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("bmi2") && !crate::kernels::force_scalar() {
            // SAFETY: `expand_bmi2` is safe Rust whose only precondition is
            // a CPU that executes BMI2 instructions, which the runtime
            // detection above just confirmed.
            unsafe { expand_bmi2(&self.words, &rows.words, &mut out.words) };
            return out;
        }
        expand_words(&self.words, &rows.words, &mut out.words, deposit_portable);
        out
    }

    /// OR a whole 64-bit word of new bits into word `word_idx` (covering rows
    /// `word_idx * 64 ..`). Bits past `len` are masked off, so the tail
    /// invariant holds for any input. Words entirely past the end are
    /// ignored.
    ///
    /// This is the word-level writer of the partition kernels: one store per
    /// 64 rows instead of 64 `set` calls.
    #[inline]
    pub fn or_word(&mut self, word_idx: usize, bits: u64) {
        if let Some(word) = self.words.get_mut(word_idx) {
            *word |= bits;
            let rem = self.len % WORD_BITS;
            if rem != 0 && word_idx == self.len / WORD_BITS {
                *word &= (1u64 << rem) - 1;
            }
        }
    }

    /// Collect the indices of set bits into a vector.
    pub fn to_indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count());
        self.for_each_one(|idx| out.push(idx));
        out
    }

    /// Zero out any bits beyond `len` in the last word so `count` stays exact.
    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// True when [`Bitmap::count`] and [`Bitmap::intersection_count`] may run
/// their `popcnt` compilation: the CPU has the instruction (the detection
/// macro caches) and the scalar reference path is not in effect.
#[cfg(target_arch = "x86_64")]
#[inline]
fn hardware_popcount() -> bool {
    std::arch::is_x86_feature_detected!("popcnt") && !crate::kernels::force_scalar()
}

#[inline(always)]
fn count_fold(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

#[inline(always)]
fn intersection_count_fold(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(a, b)| (a & b).count_ones() as usize)
        .sum()
}

/// The `popcnt` compilation of [`count_fold`]: identical safe Rust, one
/// instruction per word where baseline x86-64 emits a dozen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn count_popcnt(words: &[u64]) -> usize {
    count_fold(words)
}

/// The `popcnt` compilation of [`intersection_count_fold`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn intersection_count_popcnt(a: &[u64], b: &[u64]) -> usize {
    intersection_count_fold(a, b)
}

/// The deposit loop of [`Bitmap::expand`]: each word of `rows` takes the
/// next `popcount` bits of `bits`, deposited at its set rows by `deposit`
/// (which reads as many low bits as its mask has set). `inline(always)` so
/// each caller stamps out a copy under its own instruction set.
#[inline(always)]
fn expand_words(bits: &[u64], rows: &[u64], out: &mut [u64], deposit: impl Fn(u64, u64) -> u64) {
    let mut taken = 0;
    for (out, &mask) in out.iter_mut().zip(rows) {
        let (q, r) = (taken / WORD_BITS, taken % WORD_BITS);
        let lo = bits.get(q).copied().unwrap_or(0) >> r;
        // The next word's low bits above `lo`'s; none when `r == 0`.
        let hi = (bits.get(q + 1).copied().unwrap_or(0) << 1) << (WORD_BITS - 1 - r);
        *out = deposit(lo | hi, mask);
        taken += mask.count_ones() as usize;
    }
}

/// `pdep` in software: the low bits of `x`, in order, at the set bits of
/// `mask`.
#[inline(always)]
fn deposit_portable(x: u64, mask: u64) -> u64 {
    let (mut out, mut rest, mut from) = (0u64, mask, x);
    while rest != 0 && from != 0 {
        let low = rest & rest.wrapping_neg();
        if from & 1 != 0 {
            out |= low;
        }
        from >>= 1;
        rest ^= low;
    }
    out
}

/// The BMI2 compilation of [`expand_words`]: one `pdep` per word.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2,popcnt")]
fn expand_bmi2(bits: &[u64], rows: &[u64], out: &mut [u64]) {
    use std::arch::x86_64::_pdep_u64;
    expand_words(bits, rows, out, |x, mask| _pdep_u64(x, mask));
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap(len={}, ones={})", self.len, self.count())
    }
}

/// Iterator over set-bit indices of a [`Bitmap`].
pub struct OnesIter<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip_and_tail_masking() {
        let bm = Bitmap::from_indices(70, [0, 3, 63, 64, 69]);
        let rebuilt = Bitmap::from_words(70, bm.words().to_vec());
        assert_eq!(rebuilt, bm);
        // Stray bits past `len` are cleared, short vectors zero-extend.
        let dirty = Bitmap::from_words(70, vec![u64::MAX, u64::MAX]);
        assert_eq!(dirty.count(), 70);
        let short = Bitmap::from_words(70, vec![1]);
        assert_eq!(short.count(), 1);
        assert_eq!(short.words().len(), 2);
    }

    #[test]
    fn empty_and_full() {
        let e = Bitmap::new_empty(130);
        assert_eq!(e.count(), 0);
        assert_eq!(e.len(), 130);
        assert!(e.is_all_clear());
        let f = Bitmap::new_full(130);
        assert_eq!(f.count(), 130);
        assert!(f.get(0));
        assert!(f.get(129));
        assert!(!f.get(130));
        assert!((f.cover() - 1.0).abs() < 1e-12);
        assert_eq!(Bitmap::new_empty(0).cover(), 0.0);
    }

    #[test]
    fn set_clear_get() {
        let mut bm = Bitmap::new_empty(100);
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(99);
        assert_eq!(bm.count(), 4);
        assert!(bm.get(63));
        assert!(bm.get(64));
        bm.clear(63);
        assert!(!bm.get(63));
        assert_eq!(bm.count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut bm = Bitmap::new_empty(10);
        bm.set(10);
    }

    #[test]
    fn from_indices_ignores_out_of_range_indices() {
        let bm = Bitmap::from_indices(10, [1, 3, 5, 99]);
        assert_eq!(bm.to_indices(), vec![1, 3, 5]);
        assert_eq!(bm.len(), 10);
    }

    #[test]
    fn boolean_algebra() {
        let a = Bitmap::from_indices(200, [1, 2, 3, 100, 150]);
        let b = Bitmap::from_indices(200, [2, 3, 4, 150, 199]);
        assert_eq!(a.and(&b).to_indices(), vec![2, 3, 150]);
        assert_eq!(a.or(&b).to_indices(), vec![1, 2, 3, 4, 100, 150, 199]);
        assert_eq!(a.and(&b.not()).to_indices(), vec![1, 100]);
        assert_eq!(a.intersection_count(&b), 3);
        assert!(!a.is_disjoint(&b));
        assert!(a.is_disjoint(&Bitmap::new_empty(200)));
    }

    #[test]
    fn hardware_and_software_popcounts_agree() {
        use crate::kernels::{with_kernel_path, KernelPath};
        for len in [0usize, 1, 63, 64, 65, 1000] {
            let a = Bitmap::from_fn(len, |i| i % 3 == 0 || i % 7 == 1);
            let b = Bitmap::from_fn(len, |i| i % 5 < 2);
            let counts = || (a.count(), a.intersection_count(&b));
            let expected = (
                a.iter_ones().count(),
                a.iter_ones().filter(|&i| b.get(i)).count(),
            );
            for path in [KernelPath::WordParallel, KernelPath::Scalar] {
                assert_eq!(
                    with_kernel_path(path, counts),
                    expected,
                    "{path:?} len={len}"
                );
            }
        }
    }

    #[test]
    fn complement_respects_tail() {
        let a = Bitmap::from_indices(70, [0, 69]);
        let not_a = a.not();
        assert_eq!(not_a.count(), 68);
        assert!(!not_a.get(0));
        assert!(!not_a.get(69));
        assert!(not_a.get(1));
        // Complementing twice round-trips.
        assert_eq!(not_a.not(), a);
    }

    #[test]
    fn iter_ones_matches_indices() {
        let idx = vec![0, 7, 63, 64, 65, 127, 128, 199];
        let bm = Bitmap::from_indices(200, idx.clone());
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn iter_ones_on_empty_full_and_zero_length_bitmaps() {
        assert_eq!(Bitmap::new_empty(0).iter_ones().count(), 0);
        assert_eq!(Bitmap::new_empty(200).iter_ones().count(), 0);
        let full = Bitmap::new_full(200);
        assert_eq!(
            full.iter_ones().collect::<Vec<_>>(),
            (0..200).collect::<Vec<_>>()
        );
    }

    #[test]
    fn iter_ones_handles_word_boundaries_and_trailing_partial_word() {
        // Bits on both sides of every word boundary of a 3-word bitmap.
        let idx = vec![0, 62, 63, 64, 65, 126, 127, 128, 129];
        let bm = Bitmap::from_indices(130, idx.clone());
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), idx);
        // A bitmap whose length is an exact multiple of the word size.
        let exact = Bitmap::new_full(128);
        assert_eq!(exact.iter_ones().count(), 128);
        assert_eq!(exact.iter_ones().last(), Some(127));
        // The last set bit of a trailing partial word is reachable.
        let tail = Bitmap::from_indices(70, [69]);
        assert_eq!(tail.iter_ones().collect::<Vec<_>>(), vec![69]);
        // Bits masked off beyond `len` never appear (full + not round-trips).
        let full = Bitmap::new_full(70);
        assert_eq!(full.not().iter_ones().count(), 0);
    }

    #[test]
    fn for_each_one_matches_iter_ones() {
        for len in [0usize, 1, 63, 64, 65, 128, 200] {
            let bm = Bitmap::from_indices(len, (0..len).filter(|i| i % 7 == 3));
            let mut streamed = Vec::new();
            bm.for_each_one(|idx| streamed.push(idx));
            assert_eq!(streamed, bm.iter_ones().collect::<Vec<_>>(), "len={len}");
        }
    }

    #[test]
    fn from_fn_matches_from_indices() {
        for len in [0usize, 1, 64, 65, 130] {
            assert_eq!(
                Bitmap::from_fn(len, |i| i % 3 == 1),
                Bitmap::from_indices(len, (0..len).filter(|i| i % 3 == 1)),
                "len={len}"
            );
        }
    }

    #[test]
    fn range_kernels_match_their_global_forms() {
        // Split points on and off word boundaries, including empty ranges.
        let bm = Bitmap::from_indices(300, (0..300).filter(|i| i % 3 == 0 || i % 7 == 0));
        for &(a, b) in &[
            (0usize, 300usize),
            (0, 64),
            (1, 63),
            (63, 65),
            (100, 100),
            (128, 200),
        ] {
            let mut ranged = Vec::new();
            bm.for_each_one_in(a, b, |idx| ranged.push(idx));
            let expected: Vec<usize> = bm.iter_ones().filter(|&i| i >= a && i < b).collect();
            assert_eq!(ranged, expected, "range {a}..{b}");
        }
        // Covering splits reassemble the global walk exactly.
        for splits in [
            vec![0usize, 300],
            vec![0, 1, 65, 130, 300],
            vec![0, 64, 128, 192, 300],
        ] {
            let mut assembled = Vec::new();
            for pair in splits.windows(2) {
                bm.for_each_one_in(pair[0], pair[1], |idx| assembled.push(idx));
            }
            assert_eq!(
                assembled,
                bm.iter_ones().collect::<Vec<_>>(),
                "splits {splits:?}"
            );
        }
        // Out-of-range ends are clamped.
        let mut clamped = Vec::new();
        bm.for_each_one_in(290, 10_000, |idx| clamped.push(idx));
        assert!(clamped.iter().all(|&i| (290..300).contains(&i)));
    }

    #[test]
    fn push_matches_from_fn() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let mut pushed = Bitmap::new_empty(0);
            for i in 0..len {
                pushed.push(i % 3 != 1);
            }
            assert_eq!(pushed, Bitmap::from_fn(len, |i| i % 3 != 1), "len={len}");
            assert_eq!(pushed.words().len(), len.div_ceil(WORD_BITS));
        }
    }

    #[test]
    fn word_at_reads_any_offset() {
        let bm = Bitmap::from_indices(150, (0..150).filter(|i| i % 5 == 0 || i % 7 == 2));
        for start in [0usize, 1, 37, 63, 64, 65, 127, 128, 140, 149, 150, 200] {
            let got = bm.word_at(start);
            for b in 0..WORD_BITS {
                let want = bm.get(start + b);
                assert_eq!((got >> b) & 1 == 1, want, "start={start} bit={b}");
            }
        }
    }

    #[test]
    fn or_word_masks_the_tail_and_ignores_out_of_range_words() {
        let mut bm = Bitmap::new_empty(70);
        bm.or_word(0, 1 | (1 << 63));
        bm.or_word(1, u64::MAX); // only bits 64..70 survive
        bm.or_word(9, u64::MAX); // entirely past the end: ignored
        assert_eq!(bm.count(), 2 + 6);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(69));
        assert!(!bm.get(70));
        // Equivalent to per-bit sets.
        let mut scalar = Bitmap::new_empty(70);
        for idx in [0usize, 63, 64, 65, 66, 67, 68, 69] {
            scalar.set(idx);
        }
        assert_eq!(bm, scalar);
    }

    /// The pool is process-wide: tests that assert which buffer it hands
    /// out hold this lock so they do not interleave.
    static POOL_TESTS: Mutex<()> = Mutex::new(());

    /// A poolable length whose last word is partial.
    const POOLED_LEN: usize = POOL_MIN_WORDS * WORD_BITS + 37;

    fn pool_tests() -> std::sync::MutexGuard<'static, ()> {
        POOL_TESTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn recycled_buffers_give_bitmaps_identical_to_fresh_ones() {
        let _serial = pool_tests();
        let dirty = || {
            let mut bm = Bitmap::new_full(POOLED_LEN);
            bm.clear(5);
            bm
        };
        drop(dirty());
        let empty = Bitmap::new_empty(POOLED_LEN);
        assert!(empty.is_all_clear());
        assert_eq!(empty.words().len(), POOLED_LEN.div_ceil(WORD_BITS));

        drop(Bitmap::new_empty(POOLED_LEN));
        let full = Bitmap::new_full(POOLED_LEN);
        assert_eq!(full.count(), POOLED_LEN, "the tail word is masked");
        assert_eq!(full, Bitmap::from_fn(POOLED_LEN, |_| true));

        let source = Bitmap::from_fn(POOLED_LEN, |i| i % 3 == 1 || i % 11 == 0);
        drop(dirty());
        let copy = source.clone();
        assert_eq!(copy, source);
        drop(dirty());
        let other = Bitmap::from_fn(POOLED_LEN, |i| i % 2 == 0);
        assert_eq!(
            source.and(&other).to_indices(),
            source
                .iter_ones()
                .filter(|i| i % 2 == 0)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_buffer_dropped_on_another_thread_is_reused() {
        let _serial = pool_tests();
        let bm = Bitmap::new_full(POOLED_LEN);
        let buffer = bm.words().as_ptr() as usize;
        std::thread::spawn(move || drop(bm)).join().unwrap();
        let reused = Bitmap::new_empty(POOLED_LEN);
        assert_eq!(reused.words().as_ptr() as usize, buffer);
        assert!(reused.is_all_clear());
    }

    #[test]
    fn small_bitmaps_bypass_the_pool() {
        let _serial = pool_tests();
        drop(Bitmap::new_full(POOLED_LEN));
        drop(Bitmap::new_full(POOLED_LEN - WORD_BITS * 2));
        let pooled = pool().take(POOLED_LEN.div_ceil(WORD_BITS));
        assert!(pooled.is_some(), "a small buffer leaves the pool alone");
    }

    #[test]
    fn a_length_change_empties_the_pool() {
        let _serial = pool_tests();
        let (short, long) = (POOL_MIN_WORDS, POOL_MIN_WORDS + 1);
        let mut pool = BufferPool::new();
        assert!(pool.give(vec![1; short]).is_empty());
        assert!(pool.give(vec![2; short]).is_empty());
        let displaced = pool.give(vec![3; long]);
        assert_eq!(displaced.len(), 2);
        assert!(displaced.iter().all(|buffer| buffer.len() == short));
        assert!(pool.take(short).is_none(), "no buffer of the old length");
        assert_eq!(pool.take(long).map(|buffer| buffer.len()), Some(long));
        assert!(pool.take(long).is_none());
        // The pool is bounded in bytes: the longer the buffers, the fewer
        // it keeps, and one longer than the bound is not kept at all.
        for words in [long, 4 * long] {
            for _ in 0..POOL_BYTES / (words * 8) + 5 {
                pool.give(vec![0; words]);
            }
            assert_eq!(pool.buffers.len(), POOL_BYTES / (words * 8));
        }
        let too_long = POOL_BYTES / 8 + 1;
        assert_eq!(
            pool.give(vec![0; too_long]).len(),
            1 + POOL_BYTES / (4 * long * 8)
        );
        assert!(pool.take(too_long).is_none());
        // Through bitmaps: after the pool switched lengths, a bitmap of the
        // old length is still well formed.
        drop(Bitmap::new_full(POOLED_LEN));
        drop(Bitmap::new_full(POOLED_LEN + WORD_BITS));
        assert!(super::pool().take(POOLED_LEN.div_ceil(WORD_BITS)).is_none());
        let old = Bitmap::new_empty(POOLED_LEN);
        assert!(old.is_all_clear());
        assert_eq!(old.len(), POOLED_LEN);
    }

    #[test]
    fn a_gathered_bitmap_never_displaces_the_table_length_buffers() {
        let _serial = pool_tests();
        // From ~4.2M rows an eighth of the table is long enough to pool.
        let table_rows: usize = 4_200_000;
        let (table, compact) = (table_rows.div_ceil(64), (table_rows / 8).div_ceil(64));
        assert!(compact >= POOL_MIN_WORDS);
        let mut pool = BufferPool::new();
        for _ in 0..3 {
            assert!(pool.give(vec![0; table]).is_empty());
        }
        // The explore over the gathered table bypasses the pool on its
        // length: a compact buffer is freed, and the pool keeps its three.
        pool.bypassed.push(compact);
        assert_eq!(pool.give(vec![0; compact]).len(), 1);
        assert_eq!(pool.buffers.len(), 3);
        assert!(pool.take(compact).is_none(), "nothing is lent");
        // Once the bypass ends, a buffer of that length is an ordinary one
        // of another length again.
        pool.bypassed.clear();
        assert_eq!(pool.give(vec![0; compact]).len(), 3);
        assert_eq!(pool.take(compact).map(|buffer| buffer.len()), Some(compact));
        // Through bitmaps: a bypass on a length lives as long as its guard.
        let short = POOLED_LEN + WORD_BITS;
        drop(Bitmap::new_full(POOLED_LEN));
        let bypass = PoolBypass::new(short);
        drop(Bitmap::new_full(short));
        drop(bypass);
        assert!(super::pool().take(POOLED_LEN.div_ceil(WORD_BITS)).is_some());
        assert!(super::pool().bypassed.is_empty());
    }

    #[test]
    fn expand_is_the_inverse_of_gathering_on_either_path() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (len, rows_in, bits_in) in [
            (1000, 2, 2),
            (1000, 2, 50),
            (4096, 16, 1),
            (777, 1, 3),
            (130, 1, 1),
            (3000, 64, 64),
        ] {
            let rows = Bitmap::from_fn(len, |_| next() % 64 < rows_in);
            let count = rows.count();
            let bits = Bitmap::from_fn(count, |_| next() % 64 < bits_in);
            let positions = rows.to_indices();
            let expected = Bitmap::from_indices(len, bits.iter_ones().map(|i| positions[i]));
            for path in [crate::KernelPath::WordParallel, crate::KernelPath::Scalar] {
                let got = crate::with_kernel_path(path, || bits.expand(&rows));
                assert_eq!(got, expected, "{len} rows, {count} set, {path:?}");
            }
            assert_eq!(Bitmap::new_full(count).expand(&rows), rows);
            assert!(Bitmap::new_empty(count).expand(&rows).is_all_clear());
        }
    }

    #[test]
    fn cover_fraction() {
        let bm = Bitmap::from_indices(8, [0, 1]);
        assert!((bm.cover() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn debug_format_is_compact() {
        let bm = Bitmap::from_indices(10, [1, 2]);
        assert_eq!(format!("{bm:?}"), "Bitmap(len=10, ones=2)");
    }
}
