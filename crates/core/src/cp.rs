//! Cyclic-prefix and windowing compensation (paper Sec 2.4, Figs 2–3).
//!
//! The CP-insertion block overwrites the first `L` samples of every OFDM
//! symbol with a copy of its tail, and COTS chips additionally window each
//! symbol boundary by averaging an extension sample with the next symbol's
//! first sample. Instead of fighting those operations, BlueFi designs a
//! phase signal θ̂ that is a *fixed point* of both:
//!
//! * within every `(L + 64)`-sample block the first `L` samples equal the
//!   last `L` (so CP insertion reproduces them exactly), and
//! * the sample that follows each block's CP equals the next block's first
//!   sample (so the windowing average changes nothing).
//!
//! The price is that a handful of samples around each symbol boundary carry
//! the *wrong part* of the Bluetooth waveform — a ≤ 250 ns glitch per
//! boundary at SGI, mostly above 4 MHz, which the Bluetooth receiver's
//! channel filter removes.

/// How the CP/tail "pocket" samples — the L positions that must appear
/// twice per block — are filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PocketMode {
    /// The paper's Fig 3 construction: the CP head keeps the true phase up
    /// to `split`, the rest is copied verbatim from ±64 samples away. One
    /// of the two appearances of each pocket sample carries the full phase
    /// offset `Δ = θ[n+64] − θ[n]` (wrapped).
    PaperSplit,
    /// Geodesic-midpoint alternative: each pocket sample carries
    /// `θ[n] + wrap(Δ)/2`, so *both* appearances are off by only `Δ/2` —
    /// but for twice as many samples. Empirically WORSE than the paper's
    /// split (kept for the ablation bench): after the Bluetooth channel
    /// filter, closely-spaced opposite-sign glitch impulses cancel, so
    /// shorter full-offset pockets beat longer half-offset ones.
    Midpoint,
}

/// The θ̂ construction for a given CP length.
#[derive(Debug, Clone, Copy)]
pub struct CpCompat {
    /// CP length in samples (8 for SGI, 16 for long GI).
    pub cp_len: usize,
    /// For [`PocketMode::PaperSplit`]: how many leading CP samples keep
    /// their true phase; the remaining are copied from the tail region. The
    /// paper's SGI construction uses 5 (samples 0–4 true, 5–8 copied).
    pub split: usize,
    /// Pocket fill strategy.
    pub pocket: PocketMode,
}

impl CpCompat {
    /// The paper's Fig 3 construction for short guard intervals — the
    /// default.
    pub fn sgi() -> CpCompat {
        CpCompat { cp_len: 8, split: 5, pocket: PocketMode::PaperSplit }
    }

    /// The midpoint-pocket variant (tried and rejected; see
    /// [`PocketMode::Midpoint`]).
    pub fn sgi_midpoint() -> CpCompat {
        CpCompat { cp_len: 8, split: 5, pocket: PocketMode::Midpoint }
    }

    /// The equivalent construction for long guard intervals (the Sec 5.1
    /// 802.11g discussion: twice the distortion).
    pub fn lgi() -> CpCompat {
        CpCompat { cp_len: 16, split: 9, pocket: PocketMode::PaperSplit }
    }

    /// Block (symbol) length: CP + 64.
    pub fn block_len(&self) -> usize {
        self.cp_len + 64
    }

    /// Number of OFDM symbols needed to carry `n` phase samples.
    pub fn n_blocks(&self, n: usize) -> usize {
        n.div_ceil(self.block_len())
    }

    /// Builds θ̂ from θ. The input is conceptually extended by `extend_into`
    /// (below) to a whole number of blocks.
    ///
    /// Per block at offset `N` (paper's equations, generalized from L=8):
    ///
    /// ```text
    /// θ̂[N+n] = θ[N+n]        0 ≤ n < split          (true CP head)
    /// θ̂[N+n] = θ[N+n+64]     split ≤ n ≤ L          (CP tail copied from
    ///                                                 the symbol's end)
    /// θ̂[N+n] = θ[N+n]        L < n < 64+split       (body, true)
    /// θ̂[N+n] = θ̂[N+n-64]     64+split ≤ n < 64+L    (tail = CP copy — these
    ///                                                 carry θ[N+n-64], the
    ///                                                 glitch)
    /// ```
    ///
    /// Note the index sets: samples `split..=L` of the CP region and
    /// `64+split..64+L` of the tail are the only ones differing from θ.
    pub fn make_compatible(&self, theta: &[f64], extend_freq_cps: f64) -> Vec<f64> {
        let mut ext = Vec::new();
        let mut out = Vec::new();
        self.make_compatible_into(theta, extend_freq_cps, &mut ext, &mut out);
        out
    }

    /// Scratch-buffer variant of [`CpCompat::make_compatible`]: extends θ
    /// through `ext` and builds θ̂ into `out`, allocating only when a buffer
    /// must grow.
    pub fn make_compatible_into(
        &self,
        theta: &[f64],
        extend_freq_cps: f64,
        ext: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        // One extra lookahead sample: the last block's CP tail references
        // θ[N+64+L], the sample just past the block.
        self.extend_into(theta, extend_freq_cps, 0, ext);
        self.pocket_map_into(ext, 0, out);
    }

    /// The per-block pocket mapping alone: builds θ̂ from an
    /// already-extended θ (whole blocks plus one lookahead sample, as
    /// produced by [`CpCompat::extend_into`]), from block `first_block`
    /// on; earlier blocks of `out` are left as they were. Block `b` reads only
    /// `ext[b·bl ..= (b+1)·bl]`, so the template cache's patch path
    /// re-maps just the blocks its mutation reaches, with the exact same
    /// copy semantics as the cold path.
    pub fn pocket_map_into(&self, ext: &[f64], first_block: usize, out: &mut Vec<f64>) {
        let theta = ext;
        let bl = self.block_len();
        debug_assert_eq!((theta.len() - 1) % bl, 0);
        bluefi_dsp::contracts::ensure_len_keeping(out, theta.len() - 1, 0.0);
        for block in first_block..out.len() / bl {
            let base = block * bl;
            for n in 0..bl {
                out[base + n] = match self.pocket {
                    PocketMode::PaperSplit => {
                        if n < self.split {
                            theta[base + n]
                        } else if n <= self.cp_len {
                            theta[base + n + 64]
                        } else if n < 64 {
                            theta[base + n]
                        } else {
                            // The last L samples mirror the CP region so
                            // that CP insertion reproduces the block.
                            out[base + n - 64]
                        }
                    }
                    PocketMode::Midpoint => {
                        if n == 0 {
                            // Geodesic midpoint between the two true phases
                            // this sample must stand in for; later pocket
                            // samples stay on the same branch (below).
                            let a = theta[base];
                            let b = theta[base + 64];
                            a + bluefi_dsp::phase::wrap_angle(b - a) * 0.5
                        } else if n < self.cp_len {
                            // Keep the offset branch-coherent across the
                            // pocket: follow Δ's drift from the previous
                            // sample instead of re-wrapping (a re-wrap flips
                            // sign when Δ crosses ±π mid-pocket and shreds
                            // the waveform).
                            let a = theta[base + n];
                            let prev_off = out[base + n - 1] - theta[base + n - 1];
                            let d_prev = theta[base + n - 1 + 64] - theta[base + n - 1];
                            let d_cur = theta[base + n + 64] - theta[base + n];
                            a + prev_off + (d_cur - d_prev) * 0.5
                        } else if n < 64 {
                            theta[base + n]
                        } else {
                            out[base + n - 64]
                        }
                    }
                };
            }
        }
    }

    /// Extends θ into `out`: a whole number of blocks *plus one lookahead
    /// sample*, continuing at a constant frequency `extend_freq_cps`
    /// (cycles/sample — normally the Bluetooth channel's offset, so the
    /// carrier just keeps spinning). Writes θ from sample `from` on and the
    /// extension past θ's end, and leaves earlier samples as they were, for
    /// a caller that reads only the suffix. `out` is resized in
    /// place, allocating only when it must grow.
    pub fn extend_into(&self, theta: &[f64], extend_freq_cps: f64, from: usize, out: &mut Vec<f64>) {
        let bl = self.block_len();
        let target = self.n_blocks(theta.len().max(1)) * bl + 1;
        bluefi_dsp::contracts::ensure_len_keeping(out, target, 0.0);
        let from = from.min(theta.len());
        out[from..theta.len()].copy_from_slice(&theta[from..]);
        let mut last = theta.last().copied().unwrap_or(0.0);
        for slot in out[theta.len()..].iter_mut() {
            last += 2.0 * std::f64::consts::PI * extend_freq_cps;
            *slot = last;
        }
    }

    /// Which sample indices of a block may differ from the true phase — the
    /// glitch positions (for diagnostics/tests).
    ///
    /// * `PaperSplit`: the copied CP tail (`split..=L`, carrying future
    ///   phase at full offset) and the start of the symbol tail
    ///   (`64..64+split`, past phase at full offset) — at SGI 4 + 5 samples
    ///   = 200/250 ns, the paper's "less than 250 ns" per boundary bit.
    /// * `Midpoint`: all `2L` pocket positions (`0..L` and `64..64+L`), each
    ///   at only *half* the phase offset (plus one boundary sample the
    ///   windowing averages to a quarter offset).
    pub fn distorted_indices(&self) -> Vec<usize> {
        match self.pocket {
            PocketMode::PaperSplit => {
                let mut v: Vec<usize> = (self.split..=self.cp_len).collect();
                v.extend(64..64 + self.split);
                v
            }
            PocketMode::Midpoint => {
                let mut v: Vec<usize> = (0..self.cp_len).collect();
                v.extend(64..64 + self.cp_len);
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, f: f64) -> Vec<f64> {
        (0..n).map(|i| 2.0 * std::f64::consts::PI * f * i as f64).collect()
    }

    #[test]
    fn cp_equals_tail_in_every_block() {
        let c = CpCompat::sgi();
        let theta: Vec<f64> = (0..72 * 5).map(|i| (i as f64 * 0.11).sin() * 2.0).collect();
        let th = c.make_compatible(&theta, 0.0);
        for block in th.chunks_exact(72) {
            for n in 0..8 {
                assert_eq!(block[n], block[64 + n], "CP sample {n}");
            }
        }
    }

    #[test]
    fn windowing_fixed_point() {
        // The exact fixed point holds for the paper's split construction.
        // The extension sample of block m (θ̂[Nm + L], the first body
        // sample... per the standard the extension equals the sample right
        // after the CP of the SAME symbol continued cyclically, i.e.
        // θ̂[N + L] of the next cyclic repeat = body[0] = θ̂[N + 8].
        // BlueFi's requirement: θ̂[N+8] == θ̂[N+72] (the next block's first
        // sample), so averaging is a no-op.
        let c = CpCompat::sgi();
        let theta: Vec<f64> = (0..72 * 6).map(|i| (i as f64 * 0.07).cos()).collect();
        let th = c.make_compatible(&theta, 0.0);
        for m in 0..5 {
            let n = m * 72;
            assert_eq!(th[n + 8], th[n + 72], "block {m}");
        }
    }

    #[test]
    fn distortion_is_confined_and_small() {
        let c = CpCompat::sgi();
        let theta: Vec<f64> = (0..72 * 4).map(|i| (i as f64 * 0.05).sin()).collect();
        let th = c.make_compatible(&theta, 0.0);
        let bad = c.distorted_indices();
        for (i, (&a, &b)) in theta.iter().zip(&th).enumerate() {
            if bad.contains(&(i % 72)) {
                continue;
            }
            assert_eq!(a, b, "sample {i} should be untouched");
        }
        // 4 + 5 glitch samples per 72 (SGI): under 13%.
        assert_eq!(bad.len(), 9);
    }

    #[test]
    fn paper_equations_for_sgi() {
        // Check the exact index mapping of Sec 2.4 on the first block of a
        // two-block signal (so every referenced index is an original value,
        // not an extension).
        let c = CpCompat::sgi();
        let theta: Vec<f64> = (0..144).map(|i| i as f64).collect();
        let th = c.make_compatible(&theta, 0.0);
        let want: Vec<f64> = (0..72usize)
            .map(|n| match n {
                5..=8 => n + 64,  // θ[N+n+64]
                64..=68 => n - 64, // copies of the CP head
                _ => n,           // θ[N+n]; past 68, θ̂[n] = θ̂[n-64] = θ[n]
            } as f64)
            .collect();
        assert_eq!(th[..72], want[..]);
    }

    #[test]
    fn extension_continues_carrier() {
        let c = CpCompat::sgi();
        let f = 0.05;
        let theta = ramp(100, f); // not a multiple of 72
        let mut ext = vec![f64::NAN; 3]; // stale contents must be overwritten
        c.extend_into(&theta, f, 0, &mut ext);
        assert_eq!(ext.len(), 145); // two blocks + one lookahead sample
        assert_eq!(ext[..100], theta[..]);
        // The continuation keeps the same slope.
        for (i, &v) in ext.iter().enumerate().skip(100) {
            let expect = 2.0 * std::f64::consts::PI * f * i as f64;
            assert!((v - expect).abs() < 1e-9, "sample {i}");
        }
    }

    #[test]
    fn suffix_extension_writes_only_from_its_start() {
        // From a sample inside θ or past its end, the extension writes the
        // full extension's samples from there on (from θ's end at the
        // latest) and nothing before.
        let c = CpCompat::sgi();
        let f = 0.05;
        let theta = ramp(100, f);
        let mut full = Vec::new();
        c.extend_into(&theta, f, 0, &mut full);
        for from in [72, 100, 130] {
            let mut ext = vec![f64::NAN; 145];
            c.extend_into(&theta, f, from, &mut ext);
            let start = from.min(theta.len());
            assert!(ext[..start].iter().all(|v| v.is_nan()), "from {from}: prefix written");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ext[start..]), bits(&full[start..]), "from {from}");
        }
    }

    #[test]
    fn lgi_doubles_the_glitch() {
        assert_eq!(CpCompat::sgi().distorted_indices().len(), 9);
        assert_eq!(CpCompat::lgi().distorted_indices().len(), 17);
        // Midpoint mode touches all 2L pocket positions, at half offset.
        assert_eq!(CpCompat::sgi_midpoint().distorted_indices().len(), 16);
    }

    #[test]
    fn round_trip_through_cp_insertion_is_exact() {
        // Simulate what the chip does: IFFT bodies, prepend CP (copy of
        // tail), stitch with windowing — the result's phase must equal θ̂
        // everywhere (that is the whole point of the construction).
        use bluefi_dsp::phase::wrap_angle;
        use bluefi_dsp::Cx;
        let c = CpCompat::sgi();
        let theta: Vec<f64> = (0..72 * 4)
            .map(|i| 0.8 * (i as f64 * 0.09).sin() + 0.02 * i as f64)
            .collect();
        let th = c.make_compatible(&theta, 0.02 / (2.0 * std::f64::consts::PI));
        // Reconstruct each symbol the hardware way: body -> CP+body.
        let mut rebuilt: Vec<Vec<Cx>> = Vec::new();
        for block in th.chunks_exact(c.block_len()) {
            let body_iq: Vec<Cx> = block[c.cp_len..].iter().map(|&p| Cx::expj(p)).collect();
            let mut sym = body_iq[64 - 8..].to_vec();
            sym.extend(body_iq);
            rebuilt.push(sym);
        }
        let wave = bluefi_wifi::ofdm::stitch_symbols(
            &rebuilt,
            bluefi_wifi::ofdm::GuardInterval::Short,
            true,
        );
        for (i, v) in wave.iter().enumerate() {
            let err = wrap_angle(v.arg() - th[i]);
            assert!(err.abs() < 1e-9, "sample {i}: {err}");
            assert!((v.abs() - 1.0).abs() < 1e-9, "sample {i} envelope");
        }
    }

    #[test]
    fn midpoint_pockets_still_satisfy_cp_equals_tail() {
        let c = CpCompat::sgi_midpoint();
        let theta: Vec<f64> = (0..72 * 5).map(|i| (i as f64 * 0.13).sin() * 1.7).collect();
        let th = c.make_compatible(&theta, 0.0);
        for block in th.chunks_exact(72) {
            for n in 0..8 {
                assert_eq!(block[n], block[64 + n], "CP sample {n}");
            }
        }
    }

    #[test]
    fn midpoint_halves_the_worst_pocket_offset() {
        use bluefi_dsp::phase::wrap_angle;
        // A ramp with large per-64-sample advance: the paper split leaves a
        // full-offset pocket, the midpoint leaves half.
        let f = 0.0503; // ~0.2-cycle wrapped advance over 64 samples
        let theta = ramp(72 * 4, f);
        let err_of = |c: CpCompat| -> f64 {
            let th = c.make_compatible(&theta, f);
            theta
                .iter()
                .zip(&th)
                .map(|(&a, &b)| wrap_angle(b - a).abs())
                .fold(0.0f64, f64::max)
        };
        let paper = err_of(CpCompat::sgi());
        let mid = err_of(CpCompat::sgi_midpoint());
        assert!(mid < paper * 0.6, "paper {paper}, midpoint {mid}");
        assert!(mid > 0.0);
    }
}
