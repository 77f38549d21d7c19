//! Bit/byte packing helpers.
//!
//! Both standards involved here are LSB-first on the air (802.11 serializes
//! each octet least-significant bit first; Bluetooth likewise transmits LSB
//! first), so the conversions here are LSB-first.
//!
//! [`BitVec`] carries the long bit streams of the synthesis chain — the
//! coded stream from the quantizer, the FEC decode and its checkpoint —
//! as LSB-first `u64` words in the same order.

/// The low `n` bits set, for `n ≤ 64`.
#[inline]
fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// A packed bit vector: bit `i` is bit `i mod 64` of word `i / 64`
/// (LSB-first, the order of [`bytes_to_bits_lsb`]). The bits of the last
/// word past `len` are always zero, so equality and word loads never see
/// stale bits.
///
/// Word-level access ([`BitVec::load`], [`BitVec::store`]) reads and
/// writes 64 bits at any bit offset, which is how the hot loops keep their
/// loop-carried state in registers: they gather a word's worth of bits and
/// write it once, instead of a read-modify-write per bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An empty vector.
    pub fn new() -> BitVec {
        BitVec::default()
    }

    /// `len` zero bits.
    pub fn zeros(len: usize) -> BitVec {
        BitVec { words: vec![0; len.div_ceil(64)], len }
    }

    /// Packs a `bool` slice.
    pub fn from_bools(bits: &[bool]) -> BitVec {
        let mut v = BitVec::zeros(bits.len());
        v.store_bools(0, bits);
        v
    }

    /// Writes `bits` to bits `at..at + bits.len()`, packing them 64 at a
    /// time and storing each word once ([`BitVec::store`]); every other
    /// bit is left as it was.
    pub fn store_bools(&mut self, at: usize, bits: &[bool]) {
        for (i, chunk) in bits.chunks(64).enumerate() {
            let mut bytes = chunk.chunks_exact(8);
            let mut v = 0;
            for (i, eight) in bytes.by_ref().enumerate() {
                v |= u64::from(pack8(eight)) << (8 * i);
            }
            let done = chunk.len() / 8 * 8;
            for (j, &bit) in bytes.remainder().iter().enumerate() {
                v |= u64::from(bit) << (done + j);
            }
            self.store(at + 64 * i, v, chunk.len());
        }
    }

    /// Unpacks into `out` (resized to `len`), allocating only when `out`
    /// must grow.
    pub fn unpack_into(&self, out: &mut Vec<bool>) {
        crate::contracts::ensure_len(out, self.len, false);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.words[i / 64] >> (i % 64) & 1 == 1;
        }
    }

    /// The bits as a `bool` vector.
    pub fn to_bools(&self) -> Vec<bool> {
        let mut out = Vec::new();
        self.unpack_into(&mut out);
        out
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words (`⌈len/64⌉` of them).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap footprint, in bytes.
    pub fn bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// Resizes to `len` bits. Bits below both the old and the new length
    /// keep their values; bits past the old length read zero. Reports to
    /// the allocation probe only when the words must grow.
    pub fn resize(&mut self, len: usize) {
        let n = len.div_ceil(64);
        if self.words.capacity() < n {
            crate::contracts::probe_alloc();
        }
        self.words.resize(n, 0);
        self.len = len;
        if !len.is_multiple_of(64) {
            self.words[n - 1] &= low_mask(len % 64);
        }
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of {} bits", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit {i} out of {} bits", self.len);
        let m = 1 << (i % 64);
        if v {
            self.words[i / 64] |= m;
        } else {
            self.words[i / 64] &= !m;
        }
    }

    /// The 64 bits from bit `i` on: bit `k` of the word is bit `i + k`,
    /// and bits past the end read zero.
    #[inline]
    pub fn load(&self, i: usize) -> u64 {
        let (w, s) = (i / 64, i % 64);
        let lo = self.words.get(w).copied().unwrap_or(0);
        if s == 0 {
            return lo;
        }
        let hi = self.words.get(w + 1).copied().unwrap_or(0);
        lo >> s | hi << (64 - s)
    }

    /// Writes the low `n ≤ 64` bits of `word` to bits `at..at + n`,
    /// leaving every other bit as it was: at most two word writes.
    #[inline]
    pub fn store(&mut self, at: usize, word: u64, n: usize) {
        assert!(n <= 64 && at + n <= self.len, "store of {n} bits at {at} past {}", self.len);
        if n == 0 {
            return;
        }
        let word = word & low_mask(n);
        let (w, s) = (at / 64, at % 64);
        let m = low_mask(n) << s;
        self.words[w] = self.words[w] & !m | word << s;
        if s + n > 64 {
            let m = low_mask(s + n - 64);
            self.words[w + 1] = self.words[w + 1] & !m | word >> (64 - s);
        }
    }

    /// Copies bits `0..n` of `src` into the same positions of `self`,
    /// leaving the rest of `self` as it was. Both must hold `n` bits.
    pub fn copy_prefix_from(&mut self, src: &BitVec, n: usize) {
        assert!(n <= self.len && n <= src.len, "prefix of {n} bits exceeds a length");
        let full = n / 64;
        self.words[..full].copy_from_slice(&src.words[..full]);
        if !n.is_multiple_of(64) {
            self.store(64 * full, src.words[full], n % 64);
        }
    }

    /// Positions of the set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors(Some(word), |&x| Some(x & x.wrapping_sub(1)))
                .take_while(|&x| x != 0)
                .map(move |x| 64 * w + x.trailing_zeros() as usize)
        })
    }

    /// Packs bits `from..from + 8·out.len()` into `out`, LSB-first, one
    /// word load per 8 bytes; bits past the end read zero.
    pub fn bytes_into(&self, from: usize, out: &mut [u8]) {
        for (k, chunk) in out.chunks_mut(8).enumerate() {
            let bytes = self.load(from + 64 * k).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Packs 8 bools LSB-first into a byte with one multiply: read as the
/// bytes of a little-endian `u64`, bool `j` sits at bit `8j`, and the
/// constant's taps `2^(56−7j)` move it to bit `56 + j` — every partial
/// product lands on a distinct bit, so nothing carries.
#[inline]
fn pack8(eight: &[bool]) -> u8 {
    let x = u64::from_le_bytes(std::array::from_fn(|j| u8::from(eight[j])));
    (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// Unpacks bytes into bits, least-significant bit of each byte first
/// (the over-the-air order for both 802.11 and Bluetooth).
pub fn bytes_to_bits_lsb(bytes: &[u8]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in 0..8 {
            out.push((b >> i) & 1 == 1);
        }
    }
    out
}

/// Packs bits into bytes, LSB-first; the final partial byte (if any) is
/// zero-padded in its high bits.
pub fn bits_to_bytes_lsb(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Extracts `width` bits of `value` as a bit vector, LSB first.
pub fn u64_to_bits_lsb(value: u64, width: usize) -> Vec<bool> {
    assert!(width <= 64);
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

/// Packs up to 64 LSB-first bits back into an integer.
pub fn bits_to_u64_lsb(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64);
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsb_roundtrip() {
        let bytes = [0x0Fu8, 0xA5, 0x00, 0xFF, 0x3C];
        assert_eq!(bits_to_bytes_lsb(&bytes_to_bits_lsb(&bytes)), bytes);
    }

    #[test]
    fn lsb_order_is_lsb_first() {
        let bits = bytes_to_bits_lsb(&[0b0000_0001]);
        assert!(bits[0]);
        assert!(!bits[7]);
    }

    #[test]
    fn u64_roundtrip() {
        for v in [0u64, 1, 0xDEADBEEF, u64::MAX] {
            assert_eq!(bits_to_u64_lsb(&u64_to_bits_lsb(v, 64)), v);
        }
        assert_eq!(bits_to_u64_lsb(&u64_to_bits_lsb(0b1011, 4)), 0b1011);
    }

    #[test]
    fn partial_byte_is_zero_padded() {
        let bits = [true, false, true]; // 0b101 LSB-first = 0x05
        assert_eq!(bits_to_bytes_lsb(&bits), vec![0x05]);
    }
}
