//! Validity bitmaps for nullable columns.

/// A packed bitmap tracking which rows of a column are valid (non-null).
///
/// Bit `i` lives in word `i / 64` at position `i % 64` (LSB first) and set
/// means row `i` holds a real value. Bits at positions `>= len` in the last
/// word are always zero, so popcounts and the derived `PartialEq` need no
/// masking. The words' little-endian bytes are exactly the packed LSB-first
/// validity bytes the DCB1 block format stores
/// ([`Bitmap::from_le_bytes`] / [`Bitmap::write_le_bytes`]).
///
/// Every bulk operation moves whole words (shift-and-merge across the word
/// boundary), following the Arrow/DataFusion representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all valid.
    pub fn new_valid(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    /// A bitmap of `len` bits, all null.
    pub fn new_null(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Build from a bool slice (`true` = valid).
    pub fn from_bools(bits: &[bool]) -> Self {
        Bitmap {
            words: bits
                .chunks(64)
                .map(|chunk| pack_word(chunk.iter().copied()))
                .collect(),
            len: bits.len(),
        }
    }

    /// Build `len` bits from packed LSB-first bytes (bit `i` is
    /// `bytes[i / 8] >> (i % 8) & 1`), the DCB1 on-disk layout. `bytes`
    /// must hold at least `len.div_ceil(8)` bytes; bits beyond `len` are
    /// ignored.
    pub fn from_le_bytes(bytes: &[u8], len: usize) -> Self {
        let words = bytes[..len.div_ceil(8)]
            .chunks(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect();
        let mut b = Bitmap { words, len };
        b.mask_tail();
        b
    }

    /// Append the packed LSB-first bytes (`len.div_ceil(8)` of them) to
    /// `out`: the inverse of [`Bitmap::from_le_bytes`].
    pub fn write_le_bytes(&self, out: &mut Vec<u8>) {
        out.extend(
            self.words
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .take(self.len.div_ceil(8)),
        );
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Write bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, valid: bool) {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, i % 64);
        if valid {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Append a bit.
    pub fn push(&mut self, valid: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if valid {
            self.set(self.len - 1, true);
        }
    }

    /// Reserve room for `additional` more bits.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let words = (self.len + additional).div_ceil(64);
        self.words.reserve(words.saturating_sub(self.words.len()));
    }

    /// Count of valid bits.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Count of null bits.
    pub fn count_null(&self) -> usize {
        self.len - self.count_valid()
    }

    /// Whether every bit is valid (fast path used by kernels to skip null
    /// checks entirely).
    pub fn all_valid(&self) -> bool {
        self.count_valid() == self.len
    }

    /// Bitwise AND of two bitmaps (null if either is null).
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Gather the bits at `indices` into a new bitmap. A source without
    /// nulls gathers to all-valid without looking at the indices.
    pub fn take(&self, indices: &[usize]) -> Bitmap {
        if self.all_valid() {
            return Bitmap::new_valid(indices.len());
        }
        Bitmap {
            words: indices
                .chunks(64)
                .map(|chunk| pack_word(chunk.iter().map(|&i| self.get(i))))
                .collect(),
            len: indices.len(),
        }
    }

    /// Gather the bits at `indices`, null for `None`, a word at a time.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> Bitmap {
        let all = self.all_valid();
        let bit = |ix: &Option<usize>| ix.is_some_and(|i| all || self.get(i));
        Bitmap {
            words: indices
                .chunks(64)
                .map(|chunk| pack_word(chunk.iter().map(bit)))
                .collect(),
            len: indices.len(),
        }
    }

    /// Extend with the contents of another bitmap.
    pub fn extend(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            // Both tails are zero, so OR-ing the shifted words in is enough.
            self.words.reserve(other.words.len());
            for &w in &other.words {
                *self.words.last_mut().expect("shift != 0 implies a word") |= w << shift;
                self.words.push(w >> (64 - shift));
            }
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(64));
    }

    /// A contiguous slice `[start, start+count)` as a new bitmap.
    pub fn slice(&self, start: usize, count: usize) -> Bitmap {
        assert!(start + count <= self.len, "bitmap slice out of range");
        let (first, shift) = (start / 64, start % 64);
        let words = (first..first + count.div_ceil(64))
            .map(|k| {
                let lo = self.words[k] >> shift;
                match self.words.get(k + 1) {
                    Some(next) if shift != 0 => lo | next << (64 - shift),
                    _ => lo,
                }
            })
            .collect();
        let mut out = Bitmap { words, len: count };
        out.mask_tail();
        out
    }

    /// Iterate validity bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.words
            .iter()
            .flat_map(|&w| (0..64).map(move |b| (w >> b) & 1 == 1))
            .take(self.len)
    }

    /// Positions of the null bits in ascending order. All-valid words are
    /// skipped whole, so kernels can compute over every slot and then
    /// visit only the nulls.
    pub fn null_indices(&self) -> impl Iterator<Item = usize> + '_ {
        let len = self.len;
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| {
                let mut zeros = !w;
                std::iter::from_fn(move || {
                    (zeros != 0).then(|| {
                        let b = zeros.trailing_zeros() as usize;
                        zeros &= zeros - 1;
                        wi * 64 + b
                    })
                })
            })
            .take_while(move |&i| i < len)
    }

    /// Clear any garbage bits beyond `len` in the last word so popcounts
    /// stay correct.
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Up to 64 bits as one word, first bit lowest.
fn pack_word(bits: impl Iterator<Item = bool>) -> u64 {
    bits.enumerate().fold(0, |w, (j, b)| w | (b as u64) << j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_valid_counts() {
        let b = Bitmap::new_valid(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_valid(), 130);
        assert!(b.all_valid());
    }

    #[test]
    fn new_null_counts() {
        let b = Bitmap::new_null(70);
        assert_eq!(b.count_valid(), 0);
        assert_eq!(b.count_null(), 70);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::new_null(100);
        b.set(0, true);
        b.set(63, true);
        b.set(64, true);
        b.set(99, true);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(99));
        assert!(!b.get(1) && !b.get(65));
        assert_eq!(b.count_valid(), 4);
        b.set(63, false);
        assert!(!b.get(63));
        assert_eq!(b.count_valid(), 3);
    }

    #[test]
    fn push_across_word_boundary() {
        let mut b = Bitmap::new_null(0);
        for i in 0..200 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 200);
        assert_eq!(b.count_valid(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn and_combines() {
        let a = Bitmap::from_bools(&[true, true, false, false]);
        let b = Bitmap::from_bools(&[true, false, true, false]);
        let c = a.and(&b);
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            vec![true, false, false, false]
        );
    }

    #[test]
    fn take_gathers() {
        let b = Bitmap::from_bools(&[true, false, true, false, true]);
        let t = b.take(&[4, 1, 0]);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![true, false, true]);
    }

    #[test]
    fn slice_window() {
        let b = Bitmap::from_bools(&[true, false, true, true, false]);
        let s = b.slice(1, 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![false, true, true]);
    }

    /// Bit-at-a-time reference: a bitmap is its `Vec<bool>`.
    fn reference(bits: &[bool]) -> Bitmap {
        let mut b = Bitmap::new_null(bits.len());
        for (i, &v) in bits.iter().enumerate() {
            b.set(i, v);
        }
        b
    }

    /// Deterministic pseudo-random bits (splitmix64), about `1/8` null.
    fn bits(len: usize, seed: u64) -> Vec<bool> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                !(z ^ (z >> 31)).is_multiple_of(8)
            })
            .collect()
    }

    /// Equal to the reference, bit for bit, and nothing set beyond `len`.
    fn assert_same(got: &Bitmap, want: &[bool], what: &str) {
        assert_eq!(got, &reference(want), "{what}");
        assert_eq!(got.iter().collect::<Vec<_>>(), want, "{what}: iter");
        assert_eq!(got.words.len(), want.len().div_ceil(64), "{what}: words");
        let set = want.iter().filter(|&&b| b).count();
        assert_eq!(got.count_valid(), set, "{what}: bits beyond len");
    }

    const EDGES: [usize; 10] = [0, 1, 7, 8, 63, 64, 65, 127, 128, 203];

    #[test]
    fn wordwise_ops_match_the_bit_at_a_time_reference() {
        for (k, &len) in EDGES.iter().enumerate() {
            let a = bits(len, k as u64);
            let ba = Bitmap::from_bools(&a);
            assert_same(&ba, &a, "from_bools");

            let mut packed = Vec::new();
            ba.write_le_bytes(&mut packed);
            assert_eq!(packed.len(), len.div_ceil(8));
            for (i, &v) in a.iter().enumerate() {
                assert_eq!(packed[i / 8] >> (i % 8) & 1 == 1, v, "byte layout");
            }
            // Garbage after the last bit must not leak into the words.
            let mut dirty = packed.clone();
            if len % 8 != 0 {
                *dirty.last_mut().unwrap() |= !0u8 << (len % 8);
            }
            dirty.push(0xFF);
            assert_same(&Bitmap::from_le_bytes(&dirty, len), &a, "from_le_bytes");

            let nulls: Vec<usize> = (0..len).filter(|&i| !a[i]).collect();
            assert_eq!(ba.null_indices().collect::<Vec<_>>(), nulls);

            for (j, &other) in EDGES.iter().enumerate() {
                let b = bits(other, 100 + j as u64);
                let mut ext = ba.clone();
                ext.extend(&Bitmap::from_bools(&b));
                assert_same(&ext, &[a.clone(), b].concat(), "extend");
            }
            for &start in EDGES.iter().filter(|&&s| s <= len) {
                for &count in EDGES.iter().filter(|&&c| start + c <= len) {
                    let got = ba.slice(start, count);
                    assert_same(&got, &a[start..start + count], "slice");
                }
            }
            if len > 0 {
                let idx: Vec<usize> = (0..len + 70).map(|i| (i * 37 + k) % len).collect();
                let want: Vec<bool> = idx.iter().map(|&i| a[i]).collect();
                assert_same(&ba.take(&idx), &want, "take");
                assert_same(
                    &Bitmap::new_valid(len).take(&idx),
                    &vec![true; idx.len()],
                    "take",
                );
            }
        }
    }

    #[test]
    fn tail_masked_after_new_valid() {
        // 65 valid bits must not report 128 from an unmasked last word.
        let b = Bitmap::new_valid(65);
        assert_eq!(b.count_valid(), 65);
    }
}
