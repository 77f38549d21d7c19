//! Bluetooth BR payload/header FEC.
//!
//! * **Rate 1/3**: each header bit is simply repeated three times
//!   (Vol 2 Part B 7.4); decoded by majority vote.
//! * **Rate 2/3**: a (15,10) shortened Hamming code with generator
//!   `g(D) = (D+1)(D⁴+D+1) = D⁵+D⁴+D²+1` (Vol 2 Part B 7.5). Ten data bits
//!   produce five parity bits; single errors in each 15-bit block are
//!   corrected, double errors detected.

/// Generator polynomial for the (15,10) code, coefficients of
/// D⁵+D⁴+D²+1 below the leading term excluded: 0b10101 — see `encode15_10`.
const G15_10: u16 = 0b1_0101; // D^4 + D^2 + 1 terms below D^5

/// Encodes exactly 10 data bits into a 15-bit codeword
/// (10 data bits followed by 5 parity bits). Thin shim over
/// [`encode15_10_into`].
pub fn encode15_10(data: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(15);
    encode15_10_into(data, &mut out);
    out
}

/// Appends the 15-bit codeword for exactly 10 data bits to `out` — the
/// allocation-free core of [`encode15_10`], used per block by
/// [`encode_r23_fec`] so the stream encoder never allocates inside its
/// block loop.
pub fn encode15_10_into(data: &[bool], out: &mut Vec<bool>) {
    assert_eq!(data.len(), 10);
    // Systematic encoding by polynomial division: parity = (data · D⁵) mod g.
    let mut reg: u16 = 0; // 5-bit remainder register
    for &d in data {
        let fb = ((reg >> 4) & 1 == 1) ^ d;
        reg = (reg << 1) & 0x1F;
        if fb {
            reg ^= G15_10 & 0x1F;
        }
    }
    out.extend_from_slice(data);
    for i in (0..5).rev() {
        out.push((reg >> i) & 1 == 1);
    }
}

/// Encodes an arbitrary bit stream with the rate-2/3 FEC. The stream is
/// zero-padded to a multiple of 10 bits first (the caller should track the
/// true length), matching the Bluetooth convention of appending "don't
/// care" bits.
pub fn encode_r23_fec(bits: &[bool]) -> Vec<bool> {
    let mut padded = bits.to_vec();
    while !padded.len().is_multiple_of(10) {
        padded.push(false);
    }
    let mut out = Vec::with_capacity(padded.len() * 3 / 2);
    for block in padded.chunks_exact(10) {
        encode15_10_into(block, &mut out);
    }
    out
}

/// Decode outcome for one (15,10) block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockStatus {
    /// Codeword was clean.
    Clean,
    /// One bit error corrected.
    Corrected,
    /// Syndrome matched no single-bit error: uncorrectable.
    Failed,
}

/// Decodes one 15-bit block; returns the 10 data bits and the status.
/// Thin shim over [`decode15_10_into`].
pub fn decode15_10(block: &[bool]) -> (Vec<bool>, BlockStatus) {
    let mut out = Vec::with_capacity(10);
    let status = decode15_10_into(block, &mut out);
    (out, status)
}

/// Appends the 10 decoded data bits of one 15-bit block to `out` and
/// returns the block status — the allocation-free core of
/// [`decode15_10`], used per block by [`decode_r23_fec`]. On
/// [`BlockStatus::Failed`] the raw (uncorrected) data bits are appended,
/// matching the shim's behavior.
pub fn decode15_10_into(block: &[bool], out: &mut Vec<bool>) -> BlockStatus {
    assert_eq!(block.len(), 15);
    // Compute the syndrome: divide the entire received word by g.
    let mut reg: u16 = 0;
    for &d in block {
        let fb = ((reg >> 4) & 1 == 1) ^ d;
        reg = (reg << 1) & 0x1F;
        if fb {
            reg ^= G15_10 & 0x1F;
        }
    }
    let start = out.len();
    out.extend_from_slice(&block[..10]);
    if reg == 0 {
        return BlockStatus::Clean;
    }
    // Single-error syndromes: flipping position p yields the syndrome of
    // the unit vector at p. Precompute by running a unit vector through the
    // same division. 15 candidates; tiny, so compute inline.
    let mut hit = None;
    for p in 0..15 {
        let mut r: u16 = 0;
        for i in 0..15 {
            let fb = ((r >> 4) & 1 == 1) ^ (i == p);
            r = (r << 1) & 0x1F;
            if fb {
                r ^= G15_10 & 0x1F;
            }
        }
        if r == reg {
            hit = Some(p);
            break;
        }
    }
    if let Some(p) = hit {
        // A parity-position error (p >= 10) leaves the data bits intact.
        if p < 10 {
            out[start + p] = !out[start + p];
        }
        return BlockStatus::Corrected;
    }
    BlockStatus::Failed
}

/// Decodes a rate-2/3 FEC stream; returns data bits and `true` when all
/// blocks were clean or corrected.
pub fn decode_r23_fec(bits: &[bool]) -> (Vec<bool>, bool) {
    assert_eq!(bits.len() % 15, 0, "rate-2/3 FEC stream must be 15-bit blocks");
    let mut out = Vec::with_capacity(bits.len() / 15 * 10);
    let mut ok = true;
    for block in bits.chunks_exact(15) {
        if decode15_10_into(block, &mut out) == BlockStatus::Failed {
            ok = false;
        }
    }
    (out, ok)
}

/// Rate-1/3 repetition encoding (each bit three times, consecutively).
pub fn encode_r13(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len() * 3);
    for &b in bits {
        out.extend([b, b, b]);
    }
    out
}

/// Rate-1/3 majority decoding.
pub fn decode_r13(bits: &[bool]) -> Vec<bool> {
    assert_eq!(bits.len() % 3, 0);
    bits.chunks_exact(3)
        .map(|c| (c[0] as u8 + c[1] as u8 + c[2] as u8) >= 2)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(n: usize, k: usize) -> Vec<bool> {
        (0..n).map(|i| (i * k + 1).is_multiple_of(3)).collect()
    }

    #[test]
    fn codewords_have_zero_syndrome() {
        for k in 1..8 {
            let data = pattern(10, k);
            let cw = encode15_10(&data);
            let (dec, st) = decode15_10(&cw);
            assert_eq!(st, BlockStatus::Clean);
            assert_eq!(dec, data);
        }
    }

    #[test]
    fn corrects_any_single_bit_error() {
        let data = pattern(10, 3);
        let cw = encode15_10(&data);
        for p in 0..15 {
            let mut rx = cw.clone();
            rx[p] = !rx[p];
            let (dec, st) = decode15_10(&rx);
            assert_eq!(st, BlockStatus::Corrected, "pos {p}");
            assert_eq!(dec, data, "pos {p}");
        }
    }

    #[test]
    fn minimum_distance_is_four() {
        // g = (D+1)(D⁴+D+1): the factor (D+1) adds overall parity, giving
        // d_min = 4 — every pair of distinct codewords differs in ≥4 bits.
        let mut min_d = usize::MAX;
        for v in 1u16..1024 {
            let data: Vec<bool> = (0..10).map(|i| (v >> i) & 1 == 1).collect();
            let w = encode15_10(&data).iter().filter(|&&b| b).count();
            min_d = min_d.min(w);
        }
        assert_eq!(min_d, 4);
    }

    #[test]
    fn stream_roundtrip_with_padding() {
        let bits = pattern(23, 5); // not a multiple of 10
        let enc = encode_r23_fec(&bits);
        assert_eq!(enc.len(), 45); // padded to 30 -> 3 blocks
        let (dec, ok) = decode_r23_fec(&enc);
        assert!(ok);
        assert_eq!(&dec[..23], &bits[..]);
    }

    #[test]
    fn repetition_roundtrip_and_majority() {
        let bits = pattern(17, 2);
        let enc = encode_r13(&bits);
        assert_eq!(enc.len(), 51);
        assert_eq!(decode_r13(&enc), bits);
        // One error per triplet is always corrected.
        let mut rx = enc.clone();
        for i in (0..rx.len()).step_by(3) {
            rx[i] = !rx[i];
        }
        assert_eq!(decode_r13(&rx), bits);
    }

    #[test]
    fn double_error_is_not_miscorrected_to_clean() {
        let data = pattern(10, 7);
        let cw = encode15_10(&data);
        let mut rx = cw.clone();
        rx[0] = !rx[0];
        rx[7] = !rx[7];
        let (_, st) = decode15_10(&rx);
        // d_min = 4: two errors are never mistaken for a clean codeword.
        assert_ne!(st, BlockStatus::Clean);
    }
}
