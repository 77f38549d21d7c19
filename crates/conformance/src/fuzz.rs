//! Deterministic structured fuzzer over the synthesize→transmit→channel→
//! receive loop.
//!
//! Every iteration is a pure function of one `u64` seed: the seed drives a
//! [`bluefi_core::rng::StdRng`] that draws a structured [`FuzzInput`]
//! (payload shape, Bluetooth carrier, chip, decode strategy, scale corner,
//! channel-model sweep), the input runs through the pipeline, and a set of
//! invariants is checked. A failing seed therefore reproduces exactly with
//! `-- fuzz --replay <seed>`, and [`shrink`] minimizes the structured
//! input toward a canonical simplest-still-failing form.

use crate::digest::{compare_words, words_of, Canon};
use bluefi_bt::ble::{adv_air_bits, AdvPdu, AdvPduType};
use bluefi_core::pipeline::{BlueFi, Synthesis, SynthesisScratch};
use bluefi_core::reversal::DecodeStrategy;
use bluefi_core::rng::{Rng, SeedableRng, StdRng};
use bluefi_core::verify::{transmit, tuned_receiver};
use bluefi_core::ScaleMode;
use bluefi_dsp::power::{dbm_to_mw, mean_power};
use bluefi_sim::channel::{Channel, ChannelConfig};
use bluefi_wifi::channels::bt_channel_freq_hz;
use bluefi_wifi::chip::ChipModel;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Sentinel for "no noise" in [`FuzzInput::noise_floor_dbm_x10`] (maps to
/// `f64::NEG_INFINITY`, which the channel model treats as exactly zero
/// noise).
pub const NOISE_OFF: i32 = i32::MIN;

/// One structured fuzz case. Every field is integer-encoded so the `Debug`
/// rendering in a [`Violation`] is lossless and the case replays exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzInput {
    /// The generation seed (the replay handle).
    pub seed: u64,
    /// BLE advertising PDU type selector (0–2).
    pub pdu_type: u8,
    /// Advertising data length in bytes (0–16; bucketed to {0, 8, 16}
    /// under the realtime strategy to bound its per-length plan cache).
    pub adv_len: u8,
    /// Seed for the advertiser address and data bytes.
    pub payload_seed: u64,
    /// BLE advertising channel (37–39).
    pub ble_channel: u8,
    /// Bluetooth BR channel index (0–78) → carrier frequency.
    pub bt_channel: u8,
    /// 0 = AR9331, 1 = RTL8811AU.
    pub chip: u8,
    /// Use the realtime (free-edge) decode strategy instead of
    /// weighted-Viterbi.
    pub realtime: bool,
    /// Use the per-symbol dynamic scale search (rare, expensive corner).
    pub dynamic_scale: bool,
    /// Fixed quantizer scale ×1000 (ignored when `dynamic_scale`).
    pub scale_milli: u16,
    /// Channel-model distance, cm.
    pub distance_cm: u32,
    /// Channel-model noise floor ×10 dBm, or [`NOISE_OFF`].
    pub noise_floor_dbm_x10: i32,
    /// Channel-model CFO, Hz.
    pub cfo_hz: i32,
    /// Channel-model shadowing sigma ×10 dB.
    pub shadowing_x10: u16,
    /// Optional second ray: (delay in samples, amplitude ×255).
    pub multipath: Option<(u8, u8)>,
    /// Optional interference: (probability ×100, power over noise dB).
    pub interference: Option<(u8, u8)>,
}

impl FuzzInput {
    /// Draws the structured input for one seed. Pure: the same seed always
    /// yields the same input.
    pub fn generate(seed: u64) -> FuzzInput {
        let mut rng = StdRng::seed_from_u64(seed);
        let realtime = rng.gen_bool(0.25);
        let dynamic_scale = rng.gen_bool(0.04);
        let mut adv_len = rng.gen_range(0u8..17);
        if realtime {
            // Bound the realtime strategy's per-(length, edge) plan cache.
            adv_len = [0u8, 8, 16][(adv_len % 3) as usize];
        }
        if dynamic_scale {
            // The dynamic scale search quantizes each symbol ~13×; keep
            // those cases short.
            adv_len = adv_len.min(8);
        }
        FuzzInput {
            seed,
            pdu_type: rng.gen_range(0u8..3),
            adv_len,
            payload_seed: rng.next_u64(),
            ble_channel: rng.gen_range(37u8..40),
            bt_channel: rng.gen_range(0u8..79),
            chip: rng.gen_range(0u8..2),
            realtime,
            dynamic_scale,
            scale_milli: rng.gen_range(120u16..401),
            distance_cm: rng.gen_range(20u32..2000),
            noise_floor_dbm_x10: if rng.gen_bool(0.2) {
                NOISE_OFF
            } else {
                rng.gen_range(-1100i32..-600)
            },
            cfo_hz: rng.gen_range(-50_000i32..50_001),
            shadowing_x10: rng.gen_range(0u16..40),
            multipath: if rng.gen_bool(0.3) {
                Some((rng.gen_range(1u8..9), rng.gen_range(0u8..160)))
            } else {
                None
            },
            interference: if rng.gen_bool(0.2) {
                Some((rng.gen_range(0u8..30), rng.gen_range(0u8..20)))
            } else {
                None
            },
        }
    }

    /// The BLE advertising PDU this input describes.
    pub fn pdu(&self) -> AdvPdu {
        let mut rng = StdRng::seed_from_u64(self.payload_seed);
        let mut adv_address = [0u8; 6];
        for b in &mut adv_address {
            *b = rng.gen_range(0u32..256) as u8;
        }
        AdvPdu {
            pdu_type: match self.pdu_type {
                0 => AdvPduType::AdvInd,
                1 => AdvPduType::AdvNonconnInd,
                _ => AdvPduType::AdvScanInd,
            },
            adv_address,
            adv_data: (0..self.adv_len).map(|_| rng.gen_range(0u32..256) as u8).collect(),
            tx_add: false,
        }
    }

    /// The pipeline configuration this input describes.
    pub fn bluefi(&self) -> BlueFi {
        BlueFi {
            strategy: if self.realtime {
                DecodeStrategy::Realtime
            } else {
                DecodeStrategy::WeightedViterbi
            },
            scale: if self.dynamic_scale {
                ScaleMode::Dynamic
            } else {
                ScaleMode::Fixed(self.scale_milli as f64 / 1000.0)
            },
            ..BlueFi::default()
        }
    }

    /// The transmitting chip model.
    pub fn chip_model(&self) -> ChipModel {
        if self.chip == 0 {
            ChipModel::ar9331()
        } else {
            ChipModel::rtl8811au()
        }
    }

    /// The channel-model sweep point this input describes.
    pub fn channel_config(&self) -> ChannelConfig {
        ChannelConfig {
            distance_m: self.distance_cm as f64 / 100.0,
            shadowing_sigma_db: self.shadowing_x10 as f64 / 10.0,
            noise_floor_dbm: if self.noise_floor_dbm_x10 == NOISE_OFF {
                f64::NEG_INFINITY
            } else {
                self.noise_floor_dbm_x10 as f64 / 10.0
            },
            cfo_hz: self.cfo_hz as f64,
            multipath: self.multipath.map(|(d, a)| (d as usize, a as f64 / 255.0)),
            interference: self
                .interference
                .map(|(p, db)| (p as f64 / 100.0, db as f64)),
            ..ChannelConfig::default()
        }
    }
}

/// One invariant failure, with everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The seed that produced the failing input.
    pub seed: u64,
    /// Which invariant failed.
    pub invariant: String,
    /// What was observed.
    pub detail: String,
    /// Lossless `Debug` rendering of the structured input.
    pub input: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {}: invariant `{}` violated: {} (input: {})",
            self.seed, self.invariant, self.detail, self.input
        )
    }
}

/// Which optional (more expensive) checks to run for an iteration.
#[derive(Debug, Clone, Copy)]
pub struct Checks {
    /// Compare the scratch API's output word-for-word with the allocating
    /// API's.
    pub scratch_diff: bool,
    /// Run the transmitted waveform through a tuned receiver and sanity-
    /// check the reported RSSI.
    pub receiver: bool,
}

impl Checks {
    /// Every check on (replay mode — anything a soak could catch, a replay
    /// must also catch).
    pub fn all() -> Checks {
        Checks { scratch_diff: true, receiver: true }
    }
}

fn violation(input: &FuzzInput, invariant: &str, detail: String) -> Violation {
    Violation {
        seed: input.seed,
        invariant: invariant.to_string(),
        detail,
        input: format!("{input:?}"),
    }
}

fn synthesis_words(syn: &Synthesis) -> Vec<u64> {
    let mut words = Vec::new();
    (syn.psdu.len()).push_words(&mut words);
    words.extend(words_of(&syn.psdu));
    (syn.flips.len()).push_words(&mut words);
    words.extend(words_of(&syn.flips));
    syn.n_symbols.push_words(&mut words);
    syn.forced_bits.push_words(&mut words);
    syn.mean_quant_error_db.push_words(&mut words);
    words
}

fn check_synthesis(
    input: &FuzzInput,
    bits_len: usize,
    bf: &BlueFi,
    syn: &Synthesis,
) -> Result<(), Violation> {
    let mcs = bf.strategy.mcs();
    let ndbps = mcs.data_bits_per_symbol();
    let ncbps = mcs.coded_bits_per_symbol();
    let sps = bf.gfsk.sps();
    let n_samples = (bits_len + 2 * bf.gfsk.guard_bits) * sps;
    let want_symbols = n_samples.div_ceil(bf.cp.block_len());
    if syn.n_symbols != want_symbols {
        return Err(violation(
            input,
            "symbol-count",
            format!("{} symbols, expected {want_symbols}", syn.n_symbols),
        ));
    }
    let want_psdu = (syn.n_symbols * ndbps).saturating_sub(22) / 8;
    if syn.psdu.len() != want_psdu {
        return Err(violation(
            input,
            "psdu-length",
            format!("{} bytes, expected {want_psdu}", syn.psdu.len()),
        ));
    }
    let coded_len = syn.n_symbols * ncbps;
    if !syn.flips.windows(2).all(|w| w[0] < w[1]) {
        return Err(violation(input, "flips-ordered", format!("{:?}", syn.flips)));
    }
    if syn.flips.last().is_some_and(|&f| f >= coded_len) {
        return Err(violation(
            input,
            "flips-in-range",
            format!("last flip {:?} ≥ coded length {coded_len}", syn.flips.last()),
        ));
    }
    if syn.forced_bits > 22 + ndbps {
        return Err(violation(
            input,
            "forced-bits-bound",
            format!("{} forced bits (ndbps {ndbps})", syn.forced_bits),
        ));
    }
    if !syn.mean_quant_error_db.is_finite() || syn.mean_quant_error_db >= 0.0 {
        return Err(violation(
            input,
            "quant-error-negative-db",
            format!("{}", syn.mean_quant_error_db),
        ));
    }
    Ok(())
}

fn run_checked(input: &FuzzInput, checks: Checks) -> Result<(), Violation> {
    let bits = adv_air_bits(&input.pdu(), input.ble_channel);
    let bf = input.bluefi();
    let chip = input.chip_model();
    let seed = chip.seed_policy.predict(0);
    let freq = bt_channel_freq_hz(input.bt_channel);

    let syn = match bf.synthesize(&bits, freq, seed) {
        None => {
            // Only Bluetooth channels 0–1 fall outside every usable WiFi
            // channel (Sec 2.6 planning).
            if input.bt_channel > 1 {
                return Err(violation(
                    input,
                    "plannable",
                    format!("BT channel {} ({freq} Hz) unplannable", input.bt_channel),
                ));
            }
            return Ok(());
        }
        Some(syn) => {
            if input.bt_channel <= 1 {
                return Err(violation(
                    input,
                    "unplannable-edge",
                    format!("BT channel {} should not be plannable", input.bt_channel),
                ));
            }
            syn
        }
    };

    check_synthesis(input, bits.len(), &bf, &syn)?;

    if checks.scratch_diff {
        let mut scratch = SynthesisScratch::new();
        let via_scratch =
            synthesis_words(bf.synthesize_at_with(&bits, syn.plan, seed, &mut scratch));
        if let Some(d) = compare_words("scratch-vs-alloc", &synthesis_words(&syn), &via_scratch)
        {
            return Err(violation(input, "scratch-vs-alloc", d.to_string()));
        }
    }

    // Transmit: length accounting, finiteness, exact power normalization.
    let ppdu = transmit(&syn, &chip, chip.default_tx_dbm);
    let want_len = 720 + 72 * syn.n_symbols;
    if ppdu.iq.len() != want_len {
        return Err(violation(
            input,
            "ppdu-length",
            format!("{} samples, expected {want_len}", ppdu.iq.len()),
        ));
    }
    if !ppdu.iq.iter().all(|s| s.re.is_finite() && s.im.is_finite()) {
        return Err(violation(input, "ppdu-finite", "non-finite IQ sample".to_string()));
    }
    let err_db = (mean_power(&ppdu.iq) / dbm_to_mw(chip.default_tx_dbm)).log10().abs() * 10.0;
    if err_db > 0.01 {
        return Err(violation(
            input,
            "tx-power",
            format!("{err_db:.4} dB from {} dBm", chip.default_tx_dbm),
        ));
    }

    // Channel model: length-preserving and finite across the whole
    // ChannelConfig sweep.
    let mut ch_rng = StdRng::seed_from_u64(input.seed ^ 0x00C0_FFEE_F00D_F00D);
    let rxed = Channel::new(input.channel_config()).apply(&ppdu.iq, &mut ch_rng);
    if rxed.len() != ppdu.iq.len() {
        return Err(violation(
            input,
            "channel-length",
            format!("{} in, {} out", ppdu.iq.len(), rxed.len()),
        ));
    }
    if !rxed.iter().all(|s| s.re.is_finite() && s.im.is_finite()) {
        return Err(violation(input, "channel-finite", "non-finite sample".to_string()));
    }

    if checks.receiver {
        // A tuned receiver on the *clean* waveform. Synchronization is a
        // quality metric, not a guarantee — channel-edge subcarriers, low
        // quantizer scales and the realtime strategy legitimately degrade
        // it — but in the well-conditioned region (weighted-Viterbi,
        // near-default scale, carrier well inside the WiFi channel) a sync
        // miss is a regression, and any reported RSSI must be sane.
        let rx = tuned_receiver(&syn).receive_ble_adv(&ppdu.iq, input.ble_channel);
        let well_conditioned = !input.realtime
            && !input.dynamic_scale
            && (150..=250).contains(&input.scale_milli)
            && syn.plan.subcarrier.abs() <= 16.0;
        match rx.rssi_dbm {
            None if well_conditioned => {
                return Err(violation(
                    input,
                    "rssi-present",
                    format!("no sync at subcarrier {}", syn.plan.subcarrier),
                ))
            }
            Some(r) if !(-120.0..=40.0).contains(&r) => {
                return Err(violation(input, "rssi-sane", format!("{r} dBm")))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Runs one input through the pipeline with the given checks, converting
/// panics into violations.
pub fn run_one(input: &FuzzInput, checks: Checks) -> Result<(), Violation> {
    let caught = catch_unwind(AssertUnwindSafe(|| run_checked(input, checks)));
    match caught {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(violation(input, "no-panic", msg.to_string()))
        }
    }
}

/// The outcome of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: usize,
    /// Iterations that hit the expected-unplannable corner (channels 0–1).
    pub unplannable: usize,
    /// Every violation found, already shrunk.
    pub violations: Vec<Violation>,
}

impl FuzzReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fuzz: {} iterations, {} expected-unplannable, {} violation(s)\n",
            self.iters,
            self.unplannable,
            self.violations.len(),
        );
        for v in &self.violations {
            out.push_str(&format!("  {v}\n"));
        }
        out
    }
}

/// Runs `iters` seeded iterations starting at `seed0`. Expensive checks
/// run on a cadence (scratch-diff every 4th, receiver every 8th
/// iteration); a replay runs them all, so a cadence-found failure still
/// reproduces from its seed alone.
pub fn run_fuzz(seed0: u64, iters: usize) -> FuzzReport {
    let mut report = FuzzReport { iters, ..FuzzReport::default() };
    for i in 0..iters {
        let input = FuzzInput::generate(seed0.wrapping_add(i as u64));
        if input.bt_channel <= 1 {
            report.unplannable += 1;
        }
        let checks = Checks { scratch_diff: i % 4 == 0, receiver: i % 8 == 0 };
        if let Err(v) = run_one(&input, checks) {
            let minimized = shrink(
                &FuzzInput::generate(v.seed),
                &mut |candidate| run_one(candidate, Checks::all()).is_err(),
            );
            let mut v = v;
            v.input = format!("{minimized:?}");
            report.violations.push(v);
        }
    }
    report
}

/// Replays one seed with every check enabled.
pub fn replay(seed: u64) -> FuzzReport {
    let input = FuzzInput::generate(seed);
    let mut report = FuzzReport { iters: 1, ..FuzzReport::default() };
    if input.bt_channel <= 1 {
        report.unplannable = 1;
    }
    if let Err(v) = run_one(&input, Checks::all()) {
        report.violations.push(v);
    }
    report
}

/// Candidate one-step simplifications of an input, most aggressive first.
/// Every candidate moves a field toward its canonical simplest value, so
/// repeated application terminates.
fn candidates(x: &FuzzInput) -> Vec<FuzzInput> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut FuzzInput)| {
        let mut c = x.clone();
        f(&mut c);
        if c != *x {
            out.push(c);
        }
    };
    push(&|c| c.adv_len = 0);
    push(&|c| c.adv_len /= 2);
    push(&|c| c.multipath = None);
    push(&|c| c.interference = None);
    push(&|c| c.cfo_hz = 0);
    push(&|c| c.shadowing_x10 = 0);
    push(&|c| c.noise_floor_dbm_x10 = NOISE_OFF);
    push(&|c| c.distance_cm = 100);
    push(&|c| c.dynamic_scale = false);
    push(&|c| c.scale_milli = 200);
    push(&|c| c.realtime = false);
    push(&|c| c.pdu_type = 1);
    push(&|c| c.bt_channel = 24);
    push(&|c| c.ble_channel = 38);
    push(&|c| c.chip = 0);
    push(&|c| c.payload_seed = 0);
    out
}

/// Minimizes a failing input: repeatedly applies the first simplification
/// under which `still_fails` returns true, until none does. The result is
/// the canonical simplest input that still reproduces the failure.
pub fn shrink(input: &FuzzInput, still_fails: &mut dyn FnMut(&FuzzInput) -> bool) -> FuzzInput {
    let mut current = input.clone();
    loop {
        let mut improved = false;
        for c in candidates(&current) {
            if still_fails(&c) {
                current = c;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(FuzzInput::generate(42), FuzzInput::generate(42));
        assert_ne!(FuzzInput::generate(42), FuzzInput::generate(43));
    }

    #[test]
    fn realtime_inputs_are_bucketed() {
        for s in 0..200u64 {
            let x = FuzzInput::generate(s);
            if x.realtime {
                assert!(
                    matches!(x.adv_len, 0 | 8 | 16) || (x.dynamic_scale && x.adv_len <= 8),
                    "{x:?}"
                );
            }
            assert!(x.adv_len <= 16);
            assert!((37..=39).contains(&x.ble_channel));
            assert!(x.bt_channel <= 78);
        }
    }

    #[test]
    fn shrink_reaches_the_canonical_form_for_an_always_failing_predicate() {
        let x = FuzzInput::generate(7);
        let min = shrink(&x, &mut |_| true);
        assert_eq!(min.adv_len, 0);
        assert_eq!(min.multipath, None);
        assert_eq!(min.interference, None);
        assert_eq!(min.cfo_hz, 0);
        assert_eq!(min.shadowing_x10, 0);
        assert_eq!(min.noise_floor_dbm_x10, NOISE_OFF);
        assert!(!min.realtime);
        assert!(!min.dynamic_scale);
        assert_eq!(min.bt_channel, 24);
    }

    #[test]
    fn shrink_respects_the_predicate() {
        // A failure that depends on multipath being present must keep it.
        let mut x = FuzzInput::generate(9);
        x.multipath = Some((3, 120));
        let min = shrink(&x, &mut |c| c.multipath.is_some());
        assert!(min.multipath.is_some());
        // Everything orthogonal still shrinks.
        assert_eq!(min.adv_len, 0);
        assert_eq!(min.cfo_hz, 0);
    }

    #[test]
    fn shrink_never_returns_a_passing_input() {
        let x = FuzzInput::generate(11);
        // Predicate: fails iff adv_len ≥ 4 (so 0 would "pass").
        let min = shrink(&x.clone(), &mut |c| c.adv_len >= 4);
        if x.adv_len >= 4 {
            assert!(min.adv_len >= 4);
            assert!(min.adv_len <= x.adv_len);
        } else {
            assert_eq!(min, shrink(&x, &mut |c| c.adv_len >= 4));
        }
    }
}
