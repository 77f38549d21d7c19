//! Output checks. They run after a timed phase, never inside it, and feed
//! the `correct` and `failed` fields of the result and the `rx_ber` metric.

use crate::inputs::{Packet, Sync};
use bluefi_bt::br::access_code_bits;
use bluefi_core::pipeline::Synthesis;
use bluefi_core::verify::{loopback_ble_bit_errors, transmit, tuned_receiver};
use bluefi_wifi::ChipModel;

/// Tally of checks run and failed, keeping the first failure's description.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks run.
    pub run: u64,
    /// Checks failed.
    pub failed: u64,
    /// What the first failed check found.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    /// The PSDU fills exactly the OFDM symbols: (n_symbols × N_DBPS − 22) / 8
    /// bytes (SERVICE and tail take 22 bits).
    pub fn psdu_len(&mut self, syn: &Synthesis) {
        let want = (syn.n_symbols * syn.mcs.data_bits_per_symbol()).saturating_sub(22) / 8;
        self.check(syn.psdu.len() == want, || {
            format!(
                "PSDU of {} B for {} symbols at MCS {} (expected {want} B)",
                syn.psdu.len(),
                syn.n_symbols,
                syn.mcs.index
            )
        });
    }

    /// `got` equals `want` in every field, floats bit for bit.
    pub fn same(&mut self, what: &str, got: &Synthesis, want: &Synthesis) {
        let equal = got.psdu == want.psdu
            && got.flips == want.flips
            && got.n_symbols == want.n_symbols
            && got.forced_bits == want.forced_bits
            && got.mean_quant_error_db.to_bits() == want.mean_quant_error_db.to_bits()
            && got.mcs.index == want.mcs.index
            && got.seed == want.seed
            && got.plan == want.plan;
        self.check(equal, || {
            format!("{what}: output differs from the in-process synthesis")
        });
    }
}

/// Loopback bit-error rate of `syns` (synthesized from `packets`) through
/// the AR9331 transmit chain and the Bluetooth receiver model. BLE packets
/// sync on the advertising access address (`verify::loopback_ble_bit_errors`),
/// BR packets on their channel access code. A packet that never syncs
/// counts half of its bits as errors (a coin flip per bit).
pub fn rx_ber(packets: &[Packet], syns: &[Synthesis]) -> f64 {
    let chip = ChipModel::ar9331();
    let (mut errors, mut bits) = (0usize, 0usize);
    for (p, syn) in packets.iter().zip(syns) {
        let counted = match p.sync {
            Sync::Ble => loopback_ble_bit_errors(syn, &chip, &p.bits),
            Sync::Br { lap } => {
                let ppdu = transmit(syn, &chip, chip.default_tx_dbm);
                let rx = tuned_receiver(syn);
                let pattern = access_code_bits(lap);
                rx.synchronize(
                    &rx.demodulate(&ppdu.iq),
                    &pattern,
                    p.bits.len() - pattern.len(),
                )
                .map(|hit| {
                    let truth = &p.bits[pattern.len()..];
                    let n = truth.len().min(hit.bits.len());
                    let e = truth[..n]
                        .iter()
                        .zip(&hit.bits[..n])
                        .filter(|(a, b)| a != b);
                    (e.count(), n)
                })
            }
        };
        let (e, n) = counted.unwrap_or((p.bits.len() / 2, p.bits.len()));
        errors += e;
        bits += n;
    }
    errors as f64 / bits.max(1) as f64
}
