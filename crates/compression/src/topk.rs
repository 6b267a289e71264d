//! Magnitude top-k sparsification.
//!
//! [`top_k`] is an exact radix select. For every non-NaN `x` the 31-bit key
//! `x.to_bits() & 0x7fff_ffff` orders exactly like `|x|` (±0.0 share key
//! 0, subnormals sit below the normals, ±inf on top), so the `k`-th largest
//! magnitude is the key of rank `k`. It is found digit by digit (11 + 11 +
//! 9 bits), each digit a histogram pass over the keys that share the
//! digits above it, until the threshold bucket is small enough to select
//! within. One in-order, branch-free output pass then keeps every key
//! above the threshold and, of the keys equal to it, the lowest-indexed
//! ones — exactly the coordinates, order and values of the partial sort
//! it replaced, which [`oracle::top_k`] keeps. A NaN has no place in that
//! order: an input holding one takes the oracle's path, whose order the
//! golden traces pin. Nothing is allocated beyond the two output vectors.

use crate::SparseUpdate;

/// Width of the first two radix digits; the third takes the last 9 bits.
const DIGIT_BITS: u32 = 11;
/// Key of `±inf`; every larger key is a NaN.
const INF_KEY: u32 = 0x7f80_0000;

/// The magnitude key of `x`: its bits without the sign.
#[inline(always)]
fn key(x: f32) -> u32 {
    x.to_bits() & 0x7fff_ffff
}

/// Keeps the `k` largest-magnitude elements of `dense`, returning them as a
/// [`SparseUpdate`].
///
/// Ties at the threshold magnitude are broken by index order (lower indices
/// win), so the result is deterministic. `k = 0` yields an empty update;
/// `k ≥ len` yields a dense-equivalent update.
///
/// # Examples
///
/// ```
/// use adafl_compression::top_k;
///
/// let u = top_k(&[0.1, -5.0, 3.0, 0.0], 2);
/// assert_eq!(u.indices(), &[1, 2]);
/// assert_eq!(u.values(), &[-5.0, 3.0]);
/// ```
pub fn top_k(dense: &[f32], k: usize) -> SparseUpdate {
    let n = dense.len();
    if k == 0 || n == 0 {
        return SparseUpdate::zero(n);
    }
    if dense.iter().fold(0, |m, &x| m.max(key(x))) > INF_KEY {
        return oracle::top_k(dense, k);
    }
    if k >= n {
        return SparseUpdate::new((0..n as u32).collect(), dense.to_vec(), n);
    }
    let (bar, cut) = threshold(dense, k);
    keep_ranked(dense, k, bar, cut)
}

/// Digit widths, most significant first: 11 + 11 + 9 = the 31 key bits.
const DIGITS: [u32; 3] = [DIGIT_BITS, DIGIT_BITS, 31 - 2 * DIGIT_BITS];

/// Most keys [`gathered`] collects by index (on the stack) to finish the
/// descent on.
const GATHER: usize = 8192;

/// Where the digit descent stands: the leading key bits fixed so far and
/// how many of the keys that share them are still to be kept.
struct Descent {
    prefix: u32,
    matched: u32,
    need: usize,
}

impl Descent {
    /// Bits below the fixed prefix.
    fn shift(&self) -> u32 {
        31 - self.matched
    }

    /// Fixes the next `bits`-wide digit from its histogram: counting down
    /// from the top bucket, the first one that reaches `need`. Returns the
    /// size of that bucket.
    fn fix(&mut self, bits: u32, hist: &[u32]) -> usize {
        let mut digit = (1usize << bits) - 1;
        while (hist[digit] as usize) < self.need {
            self.need -= hist[digit] as usize;
            digit -= 1;
        }
        self.prefix = (self.prefix << bits) | digit as u32;
        self.matched += bits;
        hist[digit] as usize
    }
}

/// Finds the rank-`k` threshold among `dense`'s keys (no NaN, `0 < k <
/// len`). Returns `(bar, cut)`: the kept coordinates are those below index
/// `cut` with `key ≥ bar` and those from `cut` on with `key > bar`.
///
/// Descends one digit at a time, each a histogram pass over the keys that
/// share the digits above it. It stops as soon as the threshold bucket is
/// kept whole (`cut = len`), and hands over to [`gathered`] once that
/// bucket is small enough to collect. Past the last digit only equal keys
/// remain, and `cut` lands after the last of them that is kept.
fn threshold(dense: &[f32], k: usize) -> (u32, usize) {
    let n = dense.len();
    let mut at = Descent {
        prefix: 0,
        matched: 0,
        need: k,
    };
    let mut hist = [0u32; 1 << DIGIT_BITS];
    let mut in_prefix = n; // keys that share the prefix
    for (level, bits) in DIGITS.into_iter().enumerate() {
        if in_prefix <= GATHER {
            return gathered(dense, &mut at, &DIGITS[level..], &mut hist);
        }
        let prefix = at.prefix;
        match level {
            0 => count_digits::<{ 31 - DIGIT_BITS }, DIGIT_BITS>(dense, prefix, &mut hist),
            1 => count_digits::<{ 31 - 2 * DIGIT_BITS }, DIGIT_BITS>(dense, prefix, &mut hist),
            _ => count_digits::<0, { 31 - 2 * DIGIT_BITS }>(dense, prefix, &mut hist),
        }
        in_prefix = at.fix(bits, &hist);
        if in_prefix == at.need {
            return (at.prefix << at.shift(), n);
        }
    }
    // `prefix` is the whole key now, held by more than `need` coordinates.
    let cut = dense
        .iter()
        .enumerate()
        .filter(|&(_, &x)| key(x) == at.prefix)
        .nth(at.need - 1)
        .map_or(n, |(i, _)| i + 1);
    (at.prefix, cut)
}

/// Counts into `hist` the `BITS`-wide key digit at `SHIFT` of every key
/// whose bits above that digit equal `prefix` (all keys for the first
/// digit). Past the first digit this runs only for a bucket too big to
/// gather, so a filter branch would mispredict often: keys outside the
/// prefix add zero to their own bucket instead.
fn count_digits<const SHIFT: u32, const BITS: u32>(
    dense: &[f32],
    prefix: u32,
    hist: &mut [u32; 1 << DIGIT_BITS],
) {
    let digit = |kx: u32| ((kx >> SHIFT) & ((1 << BITS) - 1)) as usize;
    hist.fill(0);
    if SHIFT + BITS == 31 {
        for &x in dense {
            hist[digit(key(x))] += 1;
        }
    } else {
        for &x in dense {
            let kx = key(x);
            hist[digit(kx)] += u32::from(kx >> (SHIFT + BITS) == prefix);
        }
    }
}

/// Finishes [`threshold`]'s descent on the indices of the keys that share
/// `at`'s prefix (at most [`GATHER`]), collected in one pass; `digits`
/// are the digits left. Each digit narrows the collected indices to its
/// threshold bucket, in place and in index order, so once the whole key is
/// fixed the `need`-th of them is the last tie kept.
fn gathered(
    dense: &[f32],
    at: &mut Descent,
    digits: &[u32],
    hist: &mut [u32; 1 << DIGIT_BITS],
) -> (u32, usize) {
    let mut members = [0u32; GATHER + LANES];
    let (shift, prefix) = (at.shift(), at.prefix);
    let count = compact(dense, 0, |kx| kx >> shift == prefix, &mut members, None, 0);
    let mut members = &mut members[..count];
    for &bits in digits {
        let (shift, mask) = (at.shift() - bits, (1u32 << bits) - 1);
        let digit = |i: u32| ((key(dense[i as usize]) >> shift) & mask) as usize;
        hist.fill(0);
        for &i in members.iter() {
            hist[digit(i)] += 1;
        }
        let in_prefix = at.fix(bits, hist);
        if in_prefix == at.need {
            return (at.prefix << at.shift(), dense.len());
        }
        let bucket = (at.prefix & mask) as usize;
        let mut kept = 0;
        for read in 0..members.len() {
            let i = members[read];
            members[kept] = i;
            kept += usize::from(digit(i) == bucket);
        }
        members = &mut members[..kept];
    }
    (at.prefix, members[at.need - 1] as usize + 1)
}

/// Coordinates per block of the output pass.
const LANES: usize = 8;

/// For each 8-bit keep mask, the kept lanes in order (then zeros).
static COMPACT: [[u8; LANES]; 1 << LANES] = compaction_table();

const fn compaction_table() -> [[u8; LANES]; 1 << LANES] {
    let mut table = [[0u8; LANES]; 1 << LANES];
    let mut mask = 0;
    while mask < 1 << LANES {
        let (mut lane, mut out) = (0, 0);
        while lane < LANES {
            if (mask >> lane) & 1 == 1 {
                table[mask][out] = lane as u8;
                out += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
}

/// The output pass: every key at least `bar` before index `cut`, every key
/// above it from there on, in index order.
fn keep_ranked(dense: &[f32], k: usize, bar: u32, cut: usize) -> SparseUpdate {
    let mut indices = vec![0u32; k + LANES];
    let mut values = vec![0.0f32; k + LANES];
    let (head, rest) = dense.split_at(cut);
    let pos = compact(head, 0, |kx| kx >= bar, &mut indices, Some(&mut values), 0);
    let pos = compact(
        rest,
        cut,
        |kx| kx > bar,
        &mut indices,
        Some(&mut values),
        pos,
    );
    debug_assert_eq!(pos, k, "the threshold keeps exactly k");
    indices.truncate(k);
    values.truncate(k);
    SparseUpdate::new(indices, values, dense.len())
}

/// Coordinates whose keep flags [`compact`] forms in one go.
const CHUNK: usize = 64;

/// Writes from slot `pos` on the index (counted from `base`) of every
/// coordinate of `dense` whose key passes `keep`, and its value when
/// `values` is given; returns the next free slot. Free of data-dependent
/// branches: per chunk it forms the keep flags, then per block of
/// [`LANES`] it writes the block's kept lanes (by [`COMPACT`]) to the next
/// `LANES` slots and advances by their count, so each output needs `LANES`
/// spare slots past the last keep.
fn compact(
    dense: &[f32],
    base: usize,
    keep: impl Fn(u32) -> bool + Copy,
    indices: &mut [u32],
    mut values: Option<&mut [f32]>,
    mut pos: usize,
) -> usize {
    let (chunks, tail) = dense.as_chunks::<CHUNK>();
    for (c, chunk) in chunks.iter().enumerate() {
        let at = base + c * CHUNK;
        pos = compact_chunk(chunk, CHUNK, at, keep, indices, values.as_deref_mut(), pos);
    }
    let mut last = [0.0f32; CHUNK];
    last[..tail.len()].copy_from_slice(tail);
    let at = base + chunks.len() * CHUNK;
    compact_chunk(&last, tail.len(), at, keep, indices, values, pos)
}

/// [`compact`] on one chunk, of which only the first `live` coordinates
/// count.
#[inline(always)]
fn compact_chunk(
    chunk: &[f32; CHUNK],
    live: usize,
    base: usize,
    keep: impl Fn(u32) -> bool,
    indices: &mut [u32],
    mut values: Option<&mut [f32]>,
    mut pos: usize,
) -> usize {
    let mut flags = [0u8; CHUNK];
    for (lane, (f, &x)) in flags.iter_mut().zip(chunk).enumerate() {
        *f = u8::from(keep(key(x)) & (lane < live));
    }
    let (flags, _) = flags.as_chunks::<LANES>();
    let (blocks, _) = chunk.as_chunks::<LANES>();
    for (b, (block, &flags)) in blocks.iter().zip(flags).enumerate() {
        // The 0/1 byte of lane `l` lands on bit `56 + l` of the product.
        let mask = (u64::from_le_bytes(flags).wrapping_mul(0x0102_0408_1020_4080) >> 56) as usize;
        let lanes = &COMPACT[mask];
        let at = base + b * LANES;
        for (i, &lane) in indices[pos..pos + LANES].iter_mut().zip(lanes) {
            *i = (at + usize::from(lane)) as u32;
        }
        if let Some(values) = values.as_deref_mut() {
            for (v, &lane) in values[pos..pos + LANES].iter_mut().zip(lanes) {
                *v = block[usize::from(lane) % LANES];
            }
        }
        pos += mask.count_ones() as usize;
    }
    pos
}

/// The partial sort [`top_k`] replaced, kept as its reference: tests
/// require the radix select to match it **bitwise**, and `top_k` itself
/// falls back to it when the input holds a NaN (the comparator then treats
/// a NaN as tied with everything, an order no key reproduces).
pub mod oracle {
    use crate::SparseUpdate;

    /// Top-`k` by `select_nth_unstable_by` over all indices with an
    /// `|x|`-descending, index-ascending comparator, then an index sort.
    pub fn top_k(dense: &[f32], k: usize) -> SparseUpdate {
        let n = dense.len();
        if k == 0 || n == 0 {
            return SparseUpdate::zero(n);
        }
        let k = k.min(n);
        // Find the k-th largest magnitude with a partial sort of index keys.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.select_nth_unstable_by(k - 1, |&a, &b| {
            let ma = dense[a as usize].abs();
            let mb = dense[b as usize].abs();
            mb.partial_cmp(&ma)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });
        let mut keep: Vec<u32> = order[..k].to_vec();
        keep.sort_unstable();
        let values: Vec<f32> = keep.iter().map(|&i| dense[i as usize]).collect();
        SparseUpdate::new(keep, values, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_largest_magnitudes() {
        let u = top_k(&[1.0, -10.0, 5.0, -2.0], 2);
        assert_eq!(u.indices(), &[1, 2]);
        assert_eq!(u.values(), &[-10.0, 5.0]);
    }

    #[test]
    fn k_zero_is_empty() {
        let u = top_k(&[1.0, 2.0], 0);
        assert_eq!(u.nnz(), 0);
        assert_eq!(u.dense_len(), 2);
    }

    #[test]
    fn k_larger_than_len_keeps_everything() {
        let u = top_k(&[1.0, 2.0], 10);
        assert_eq!(u.nnz(), 2);
        assert_eq!(u.to_dense(), vec![1.0, 2.0]);
    }

    #[test]
    fn ties_resolve_to_lower_indices() {
        let u = top_k(&[1.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(u.indices(), &[0, 1]);
    }

    #[test]
    fn empty_input_is_fine() {
        let u = top_k(&[], 3);
        assert_eq!(u.nnz(), 0);
        assert_eq!(u.dense_len(), 0);
    }

    #[test]
    fn signed_zeros_tie_and_keep_their_sign() {
        let u = top_k(&[-0.0, 0.0, -0.0, 0.0], 3);
        assert_eq!(u.indices(), &[0, 1, 2]);
        let bits: Vec<u32> = u.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [(-0.0f32).to_bits(), 0, (-0.0f32).to_bits()]);
    }

    #[test]
    fn infinities_and_subnormals_order_by_magnitude() {
        let tiny = f32::from_bits(1);
        let dense = [
            tiny,
            f32::NEG_INFINITY,
            -tiny,
            0.0,
            f32::MIN_POSITIVE,
            f32::INFINITY,
        ];
        assert_eq!(top_k(&dense, 3).indices(), &[1, 4, 5]);
        assert_eq!(top_k(&dense, 4).indices(), &[0, 1, 4, 5]);
        assert_eq!(top_k(&dense, 5).indices(), &[0, 1, 2, 4, 5]);
    }

    #[test]
    fn nan_inputs_take_the_oracle_path() {
        let dense = [1.0, f32::NAN, -3.0, 2.0, f32::NAN, 0.5];
        for k in 0..8 {
            let (got, want) = (top_k(&dense, k), oracle::top_k(&dense, k));
            assert_eq!(got.indices(), want.indices());
            let bits =
                |u: &SparseUpdate| u.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn every_digit_depth_matches_the_oracle() {
        // Keys that share their first digit, then their first two, so the
        // select has to descend to the last digit to split the ties.
        let base = 1.5f32.to_bits();
        let dense: Vec<f32> = (0..600u32)
            .map(|i| f32::from_bits(base + (i * 7919) % 1024) * if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        for k in [1, 2, 37, 299, 300, 301, 599, 600] {
            let (got, want) = (top_k(&dense, k), oracle::top_k(&dense, k));
            assert_eq!(got.indices(), want.indices(), "k = {k}");
            assert_eq!(got.values(), want.values(), "k = {k}");
        }
    }

    #[test]
    fn long_inputs_match_the_oracle_on_every_digit_pass() {
        // Every `wide`-th key shares the top digit, every `tied`-th (from
        // the second on) the top two, in 509 exact values; the rest sit
        // below. Both buckets are too big to gather, so every digit is a
        // pass over all keys before exact ties are split; smaller `k`
        // gather after the first or second digit.
        let top = 0x3f80_0000u32; // 1.0
        let mid = 1024u32 << 9;
        for (n, wide, tied) in [(100_000usize, 50, 12), (40_000, 4, 4)] {
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u32
            };
            let dense: Vec<f32> = (0..n)
                .map(|i| {
                    let r = next();
                    let key = if i % wide == 0 {
                        top + r % (1 << 20)
                    } else if i % tied == 1 {
                        top + mid + r % 509
                    } else {
                        r % top
                    };
                    f32::from_bits(key | (r & 1) << 31)
                })
                .collect();
            for k in [
                1,
                100,
                1_000,
                2_000,
                4_000,
                6_000,
                8_000,
                9_000,
                12_000,
                n / 2,
                n - 1,
            ] {
                let (got, want) = (top_k(&dense, k), oracle::top_k(&dense, k));
                assert_eq!(got.indices(), want.indices(), "n = {n}, k = {k}");
                assert_eq!(got.values(), want.values(), "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn buckets_at_the_gather_limit_match_the_oracle() {
        // The top digit's bucket holds exactly `GATHER` keys (gathered
        // into a full buffer), then one more (counted by a full pass).
        for members in [GATHER, GATHER + 1] {
            let dense: Vec<f32> = (0..20_000u32)
                .map(|i| {
                    let spread = i.wrapping_mul(2_654_435_761) >> 12;
                    let top = if (i as usize) < members {
                        0x3f80_0000
                    } else {
                        0
                    };
                    f32::from_bits(top + spread % (1 << 20))
                })
                .collect();
            for k in [1, 100, members / 2, members - 1, members, members + 1] {
                let (got, want) = (top_k(&dense, k), oracle::top_k(&dense, k));
                assert_eq!(got.indices(), want.indices(), "{members} members, k = {k}");
                assert_eq!(got.values(), want.values(), "{members} members, k = {k}");
            }
        }
    }

    #[test]
    fn reconstruction_error_shrinks_with_k() {
        let dense: Vec<f32> = (0..100).map(|i| ((i * 37) % 19) as f32 - 9.0).collect();
        let err = |k: usize| {
            let d = top_k(&dense, k).to_dense();
            dense
                .iter()
                .zip(&d)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f32>()
        };
        assert!(err(50) < err(10));
        assert!(err(100) < 1e-9);
    }
}
