//! Ablation (paper Sec 5.1): quantization error vs modulation order —
//! 64-QAM (802.11n) vs 256-QAM (11ac) vs 1024-QAM (11ax).
//!
//! Run: `cargo run --release -p bluefi-bench --bin ablation_qam_order`

use bluefi_bench::Reporter;
use bluefi_bt::gfsk::{modulate_phase, GfskParams};
use bluefi_core::cp::CpCompat;
use bluefi_core::par::par_map;
use bluefi_core::qam::{Quantizer, ScaleMode, DEFAULT_SCALE};
use bluefi_wifi::Modulation;

fn main() {
    let gfsk = GfskParams::default();
    let bits: Vec<bool> = (0..200).map(|i| (i * 2654435761usize) % 97 < 48).collect();
    let offset_hz = 13.0 * bluefi_wifi::subcarriers::SUBCARRIER_SPACING_HZ;
    let phase = modulate_phase(&bits, &gfsk, offset_hz);
    let cp = CpCompat::sgi();
    let theta = cp.make_compatible(&phase, offset_hz / gfsk.sample_rate_hz);
    let bodies: Vec<&[f64]> =
        theta.chunks_exact(cp.block_len()).map(|block| &block[cp.cp_len..]).collect();
    let mut rows = Vec::new();
    for m in [Modulation::Qam16, Modulation::Qam64, Modulation::Qam256, Modulation::Qam1024] {
        let a = DEFAULT_SCALE * m.max_level() as f64 / 7.0;
        let q = Quantizer::new(m, ScaleMode::Fixed(a));
        // Per-symbol quantization is independent — fan the bodies out.
        let errs: Vec<f64> =
            par_map(&bodies, |_, b| q.quantize_body(b).in_band_error_db(13.0, 4.0));
        rows.push(vec![format!("{m:?}"), format!("{:6.1} dB", bluefi_dsp::power::mean(&errs))]);
    }
    let mut rep = Reporter::from_args();
    rep.table(
        "Ablation — in-band quantization error vs modulation order",
        &["modulation", "mean in-band error"],
        rows,
    );
    rep.note(
        "\npaper Sec 5.1: higher-order modulation means less quantization \
         error; 1024-QAM is mandatory in 802.11ax.",
    );
    rep.finish();
}
