//! An SBC-framed subband audio codec.
//!
//! A2DP's mandatory codec is SBC: a cosine-modulated filterbank (4 or 8
//! subbands), block-adaptive PCM quantization driven by per-subband scale
//! factors, and a compact frame format (syncword 0x9C). This module
//! implements that architecture with the same frame structure, parameters
//! and rates.
//!
//! **Substitution note (DESIGN.md):** the analysis/synthesis prototype
//! filter is a Kaiser-windowed design rather than the SBC specification's
//! tabulated `proto_8_80` coefficients, and the bit allocator is a
//! simplified loudness allocator. Frames are therefore not bit-exact with
//! reference SBC, but sizes, rates and audio quality behaviour match —
//! which is what the PHY evaluation (slot occupancy, Fig 10) depends on.

use std::f64::consts::PI;

/// Codec parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbcParams {
    /// Number of subbands (4 or 8).
    pub subbands: usize,
    /// Blocks per frame (4, 8, 12 or 16).
    pub blocks: usize,
    /// Bit pool (controls quality/bitrate).
    pub bitpool: usize,
    /// Sampling rate, Hz (16000/32000/44100/48000).
    pub sample_rate_hz: u32,
}

impl Default for SbcParams {
    fn default() -> SbcParams {
        // The common A2DP "high quality" mono configuration.
        SbcParams { subbands: 8, blocks: 16, bitpool: 35, sample_rate_hz: 44_100 }
    }
}

impl SbcParams {
    /// PCM samples consumed per frame.
    pub fn samples_per_frame(&self) -> usize {
        self.subbands * self.blocks
    }

    /// Encoded frame length in bytes (header + scale factors + payload).
    pub fn frame_bytes(&self) -> usize {
        let sf_bits = 4 * self.subbands;
        let payload_bits = self.blocks * self.bitpool;
        4 + sf_bits.div_ceil(8) + payload_bits.div_ceil(8)
    }
}

/// The codec (mono; A2DP stereo runs two instances or joint coding).
///
/// Encoder and decoder are stateful: the analysis filterbank keeps a
/// history window across frames and the synthesis side overlap-adds filter
/// tails, exactly like real SBC — reset state with [`SbcCodec::reset`] when
/// starting a new stream. End-to-end latency is roughly the prototype
/// length (`10·subbands` samples).
#[derive(Debug, Clone)]
pub struct SbcCodec {
    params: SbcParams,
    /// Per-subband analysis filters, `proto_len` taps each.
    filters: Vec<Vec<f64>>,
    /// Per-subband synthesis filters (pseudo-QMF: the −π/4 phase pair of
    /// the analysis bank, which is what cancels adjacent-band aliasing).
    synth_filters: Vec<Vec<f64>>,
    /// Encoder history: the last `taps` input samples.
    enc_hist: Vec<f64>,
    /// Decoder overlap-add tail.
    dec_tail: Vec<f64>,
    /// Cascade gain correction measured at construction.
    gain: f64,
}

/// Kaiser-windowed cosine-modulated filterbank prototype.
fn prototype(subbands: usize) -> Vec<f64> {
    let len = subbands * 10;
    let beta = 8.0;
    let cutoff = 1.0 / (2.0 * subbands as f64);
    let mid = (len - 1) as f64 / 2.0;
    let i0 = |x: f64| {
        // Modified Bessel I0 by series.
        let mut sum = 1.0;
        let mut term = 1.0;
        for k in 1..25 {
            term *= (x / (2.0 * k as f64)) * (x / (2.0 * k as f64));
            sum += term;
        }
        sum
    };
    let denom = i0(beta);
    (0..len)
        .map(|n| {
            let t = n as f64 - mid;
            let sinc = if t == 0.0 {
                2.0 * cutoff
            } else {
                (2.0 * PI * cutoff * t).sin() / (PI * t)
            };
            let r = 2.0 * n as f64 / (len - 1) as f64 - 1.0;
            sinc * i0(beta * (1.0 - r * r).sqrt()) / denom
        })
        .collect()
}

impl SbcCodec {
    /// Builds a codec.
    pub fn new(params: SbcParams) -> SbcCodec {
        assert!(params.subbands == 4 || params.subbands == 8);
        assert!(matches!(params.blocks, 4 | 8 | 12 | 16));
        assert!((2..=250).contains(&params.bitpool));
        let m = params.subbands;
        let proto = prototype(m);
        let taps = m * 10;
        // Pseudo-QMF modulation: analysis uses phase +(−1)^k·π/4,
        // synthesis −(−1)^k·π/4, both centered on the prototype's midpoint.
        // The opposite phases make adjacent-band aliasing cancel in the
        // cascade — a generic (Kaiser) prototype reconstructs cleanly.
        let d = (taps - 1) as f64 / 2.0;
        let bank = |sign: f64| -> Vec<Vec<f64>> {
            (0..m)
                .map(|k| {
                    let phi = if k % 2 == 0 { PI / 4.0 } else { -PI / 4.0 } * sign;
                    proto
                        .iter()
                        .enumerate()
                        .map(|(n, &h)| {
                            h * 2.0
                                * ((2 * k + 1) as f64 * PI / (2.0 * m as f64)
                                    * (n as f64 - d)
                                    + phi)
                                    .cos()
                        })
                        .collect()
                })
                .collect()
        };
        let filters = bank(1.0);
        let synth_filters = bank(-1.0);
        let mut codec = SbcCodec {
            params,
            filters,
            synth_filters,
            enc_hist: vec![0.0; taps],
            dec_tail: vec![0.0; taps],
            gain: 1.0,
        };
        // Calibrate the cascade gain with an in-band tone (quantization
        // bypassed): Kaiser prototypes are near- but not perfectly
        // power-complementary.
        let n = params.samples_per_frame() * 4;
        let tone: Vec<f64> =
            (0..n).map(|i| (2.0 * PI * i as f64 / (4.0 * m as f64)).sin()).collect();
        let bands = codec.analyze_stateless(&tone);
        let rec = codec.synthesize_stateless(&bands);
        let d = taps - 1;
        let mid = n / 2..n * 3 / 4;
        let e_ref: f64 = mid.clone().map(|i| tone[i] * tone[i]).sum();
        let e_rec: f64 = mid.map(|i| rec[i + d] * rec[i + d]).sum();
        if e_rec > 1e-12 {
            codec.gain = (e_ref / e_rec).sqrt();
        }
        codec
    }

    /// Parameters.
    pub fn params(&self) -> &SbcParams {
        &self.params
    }

    /// Clears encoder/decoder filter state (start of a new stream).
    pub fn reset(&mut self) {
        for v in self.enc_hist.iter_mut() {
            *v = 0.0;
        }
        for v in self.dec_tail.iter_mut() {
            *v = 0.0;
        }
    }

    /// One-shot analysis over a standalone buffer (calibration/tests).
    fn analyze_stateless(&self, pcm: &[f64]) -> Vec<Vec<f64>> {
        let m = self.params.subbands;
        let taps = m * 10;
        let mut full = vec![0.0; taps];
        full.extend_from_slice(pcm);
        self.analyze_window(&full, pcm.len() / m)
    }

    fn synthesize_stateless(&self, bands: &[Vec<f64>]) -> Vec<f64> {
        let m = self.params.subbands;
        let taps = m * 10;
        let n_out = bands[0].len() * m + taps;
        let mut pcm = vec![0.0; n_out];
        self.synth_into(bands, &mut pcm);
        pcm
    }

    /// Analysis over `full = history ++ fresh`: output t consumes the M
    /// fresh samples ending at `full[taps + (t+1)·M − 1]`.
    fn analyze_window(&self, full: &[f64], n_out: usize) -> Vec<Vec<f64>> {
        let m = self.params.subbands;
        let taps = m * 10;
        (0..m)
            .map(|k| {
                (0..n_out)
                    .map(|t| {
                        let newest = taps + (t + 1) * m - 1;
                        let mut acc = 0.0;
                        for (j, &h) in self.filters[k].iter().enumerate() {
                            acc += h * full[newest - j];
                        }
                        acc
                    })
                    .collect()
            })
            .collect()
    }

    /// Adds each subband sample's upsampled filter contribution into `out`
    /// (length ≥ blocks·M + taps).
    fn synth_into(&self, bands: &[Vec<f64>], out: &mut [f64]) {
        let m = self.params.subbands;
        for (k, band) in bands.iter().enumerate() {
            for (t, &v) in band.iter().enumerate() {
                let base = t * m;
                let g = v * m as f64 * self.gain;
                for (j, &h) in self.synth_filters[k].iter().enumerate() {
                    out[base + j] += h * g;
                }
            }
        }
    }

    /// Encodes exactly one frame's worth of PCM (`samples_per_frame()`
    /// mono samples in ±1.0). Stateful: continues the analysis filterbank
    /// from the previous frame.
    pub fn encode_frame(&mut self, pcm: &[f64]) -> Vec<u8> {
        let p = self.params;
        assert_eq!(pcm.len(), p.samples_per_frame());
        let taps = p.subbands * 10;
        let mut full = self.enc_hist.clone();
        full.extend_from_slice(pcm);
        let bands = self.analyze_window(&full, p.blocks);
        self.enc_hist = full[full.len() - taps..].to_vec();

        // Scale factors: 4-bit exponents so samples fit in (−2^sf, 2^sf).
        let sfs: Vec<u8> = bands
            .iter()
            .map(|b| {
                let peak = b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
                let mut sf = 0u8;
                while (1 << sf) as f64 * 1e-4 < peak && sf < 15 {
                    sf += 1;
                }
                sf
            })
            .collect();
        let alloc = self.allocate_bits(&sfs);

        let mut bits = BitWriter::new();
        bits.byte(0x9C);
        bits.byte(config_byte(&p));
        bits.byte(p.bitpool as u8);
        bits.byte(0); // reserved/CRC placeholder (not bit-exact SBC)
        for &sf in &sfs {
            bits.put(sf as u32, 4);
        }
        bits.align();
        #[allow(clippy::needless_range_loop)]
        for t in 0..p.blocks {
            for k in 0..p.subbands {
                let b = alloc[k];
                if b == 0 {
                    continue;
                }
                let scale = (1u32 << sfs[k]) as f64 * 1e-4;
                let v = (bands[k][t] / scale).clamp(-1.0, 1.0);
                let q = (((v + 1.0) / 2.0) * ((1u32 << b) - 1) as f64).round() as u32;
                bits.put(q, b);
            }
        }
        bits.align();
        let mut out = bits.into_bytes();
        // Frames are fixed-size: pad to the declared length so the stream
        // framing never depends on the allocator's leftovers.
        out.resize(p.frame_bytes(), 0);
        out
    }

    /// Decodes one frame back to PCM (stateful overlap-add; output is
    /// delayed by roughly the prototype length). Returns `None` on a bad
    /// syncword or config mismatch.
    pub fn decode_frame(&mut self, frame: &[u8]) -> Option<Vec<f64>> {
        let p = self.params;
        if frame.len() < 4 || frame[0] != 0x9C || frame[1] != config_byte(&p) {
            return None;
        }
        if frame[2] as usize != p.bitpool {
            return None;
        }
        let mut bits = BitReader::new(&frame[4..]);
        let sfs: Vec<u8> = (0..p.subbands).map(|_| bits.take(4) as u8).collect();
        bits.align();
        let alloc = self.allocate_bits(&sfs);
        let mut bands: Vec<Vec<f64>> = vec![vec![0.0; p.blocks]; p.subbands];
        #[allow(clippy::needless_range_loop)]
        for t in 0..p.blocks {
            for k in 0..p.subbands {
                let b = alloc[k];
                if b == 0 {
                    continue;
                }
                let q = bits.take(b);
                let scale = (1u32 << sfs[k]) as f64 * 1e-4;
                let v = (q as f64 / ((1u32 << b) - 1) as f64) * 2.0 - 1.0;
                bands[k][t] = v * scale;
            }
        }
        // Overlap-add with the previous frame's tail.
        let m = p.subbands;
        let taps = m * 10;
        let n_fresh = p.blocks * m;
        let mut out = self.dec_tail.clone();
        out.resize(n_fresh + taps, 0.0);
        self.synth_into(&bands, &mut out);
        self.dec_tail = out[n_fresh..].to_vec();
        out.truncate(n_fresh);
        Some(out)
    }

    /// Simplified loudness allocation: distribute the bitpool
    /// proportionally to scale factors, ≥ 2 bits for active bands, ≤ 16.
    fn allocate_bits(&self, sfs: &[u8]) -> Vec<u32> {
        let p = &self.params;
        let total: u32 = sfs.iter().map(|&s| s as u32 + 1).sum();
        let mut alloc: Vec<u32> = sfs
            .iter()
            .map(|&s| {
                let share = (p.bitpool as u32 * (s as u32 + 1)) / total.max(1);
                share.clamp(if s == 0 { 0 } else { 2 }, 16)
            })
            .collect();
        // Trim/pad to exactly fit blocks*bitpool? The frame reserves
        // blocks·bitpool bits; keep Σ alloc ≤ bitpool.
        let mut sum: u32 = alloc.iter().sum();
        let mut k = 0;
        while sum > p.bitpool as u32 {
            if alloc[k] > 2 {
                alloc[k] -= 1;
                sum -= 1;
            }
            k = (k + 1) % alloc.len();
        }
        alloc
    }
}

fn config_byte(p: &SbcParams) -> u8 {
    let sb = if p.subbands == 8 { 1 } else { 0 };
    let bl = match p.blocks {
        4 => 0u8,
        8 => 1,
        12 => 2,
        _ => 3,
    };
    let sr = match p.sample_rate_hz {
        16_000 => 0u8,
        32_000 => 1,
        44_100 => 2,
        _ => 3,
    };
    (sr << 6) | (bl << 4) | sb
}

struct BitWriter {
    bytes: Vec<u8>,
    nbits: usize,
}

impl BitWriter {
    fn new() -> BitWriter {
        BitWriter { bytes: Vec::new(), nbits: 0 }
    }
    fn byte(&mut self, b: u8) {
        assert_eq!(self.nbits % 8, 0);
        self.bytes.push(b);
        self.nbits += 8;
    }
    fn put(&mut self, v: u32, width: u32) {
        for i in (0..width).rev() {
            if self.nbits.is_multiple_of(8) {
                self.bytes.push(0);
            }
            let bit = (v >> i) & 1;
            let idx = self.bytes.len() - 1;
            self.bytes[idx] |= (bit as u8) << (7 - (self.nbits % 8));
            self.nbits += 1;
        }
    }
    fn align(&mut self) {
        while !self.nbits.is_multiple_of(8) {
            self.nbits += 1;
        }
    }
    fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }
    fn take(&mut self, width: u32) -> u32 {
        let mut v = 0u32;
        for _ in 0..width {
            let byte = self.bytes.get(self.pos / 8).copied().unwrap_or(0);
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            v = (v << 1) | bit as u32;
            self.pos += 1;
        }
        v
    }
    fn align(&mut self) {
        while !self.pos.is_multiple_of(8) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize, freq: f64, rate: f64) -> Vec<f64> {
        (0..n).map(|i| (2.0 * PI * freq * i as f64 / rate).sin() * 0.5).collect()
    }

    #[test]
    fn frame_geometry_matches_sbc() {
        let p = SbcParams::default();
        assert_eq!(p.samples_per_frame(), 128);
        // 4 header + 4 scalefactor bytes + 70 payload bytes.
        assert_eq!(p.frame_bytes(), 4 + 4 + 70);
    }

    #[test]
    fn encode_produces_frames_of_the_declared_size() {
        let mut c = SbcCodec::new(SbcParams::default());
        let pcm = sine(128, 1000.0, 44_100.0);
        let f = c.encode_frame(&pcm);
        assert_eq!(f.len(), c.params().frame_bytes());
        assert_eq!(f[0], 0x9C);
    }

    #[test]
    fn roundtrip_reconstructs_a_tone() {
        let mut c = SbcCodec::new(SbcParams::default());
        let rate = 44_100.0;
        let pcm = sine(128 * 8, 1000.0, rate);
        let mut out = Vec::new();
        for chunk in pcm.chunks_exact(128) {
            let frame = c.encode_frame(chunk);
            out.extend(c.decode_frame(&frame).expect("decode"));
        }
        // The cascade has a fixed latency of roughly the prototype length;
        // find the best alignment and measure mid-stream SNR there.
        let mut best_snr = f64::MIN;
        for lag in 0..240usize {
            if 256 + lag + 512 > out.len() {
                break;
            }
            let num: f64 = (0..512)
                .map(|i| (out[256 + lag + i] - pcm[256 + i]).powi(2))
                .sum();
            let den: f64 = (0..512).map(|i| pcm[256 + i].powi(2)).sum();
            best_snr = best_snr.max(-10.0 * (num / den).log10());
        }
        assert!(best_snr > 8.0, "roundtrip SNR {best_snr} dB");
    }

    #[test]
    fn silence_is_compact_noise_free() {
        let mut c = SbcCodec::new(SbcParams::default());
        let frame = c.encode_frame(&vec![0.0; 128]);
        let out = c.decode_frame(&frame).unwrap();
        let peak = out.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        assert!(peak < 0.02, "silence decoded to {peak}");
    }

    #[test]
    fn bad_frames_are_rejected() {
        let mut c = SbcCodec::new(SbcParams::default());
        let pcm = sine(128, 500.0, 44_100.0);
        let mut f = c.encode_frame(&pcm);
        f[0] = 0x00;
        assert!(c.decode_frame(&f).is_none());
        let mut g = c.encode_frame(&pcm);
        g[2] = 99; // wrong bitpool
        assert!(c.decode_frame(&g).is_none());
    }

    #[test]
    fn four_subband_mode_works() {
        let p = SbcParams { subbands: 4, blocks: 8, bitpool: 20, sample_rate_hz: 32_000 };
        let mut c = SbcCodec::new(p);
        let pcm = sine(p.samples_per_frame(), 800.0, 32_000.0);
        let f = c.encode_frame(&pcm);
        assert_eq!(f.len(), p.frame_bytes());
        assert!(c.decode_frame(&f).is_some());
    }

    #[test]
    fn bit_allocation_respects_the_pool() {
        let c = SbcCodec::new(SbcParams::default());
        let alloc = c.allocate_bits(&[10, 8, 6, 4, 3, 2, 1, 0]);
        let sum: u32 = alloc.iter().sum();
        assert!(sum <= 35, "allocated {sum} of 35");
        assert_eq!(alloc[7], 0, "silent band gets nothing");
    }

    #[test]
    fn bitwriter_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0x3FF, 10);
        w.put(1, 1);
        w.align();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.take(3), 0b101);
        assert_eq!(r.take(10), 0x3FF);
        assert_eq!(r.take(1), 1);
    }
}
