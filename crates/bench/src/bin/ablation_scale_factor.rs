//! Ablation (paper Sec 2.5): fixed vs per-symbol dynamic scale factor —
//! the paper found the difference negligible and the cost high.
//!
//! Run: `cargo run --release -p bluefi-bench --bin ablation_scale_factor`

use bluefi_bench::Reporter;
use bluefi_bt::gfsk::{modulate_phase, GfskParams};
use bluefi_core::cp::CpCompat;
use bluefi_core::qam::{Quantizer, ScaleMode, DEFAULT_SCALE};
use bluefi_wifi::Modulation;
use std::time::Instant;

fn main() {
    let gfsk = GfskParams::default();
    let bits: Vec<bool> = (0..400).map(|i| (i * 1103515245usize) % 89 < 44).collect();
    let offset_hz = 13.0 * bluefi_wifi::subcarriers::SUBCARRIER_SPACING_HZ;
    let phase = modulate_phase(&bits, &gfsk, offset_hz);
    let cp = CpCompat::sgi();
    let theta = cp.make_compatible(&phase, offset_hz / gfsk.sample_rate_hz);
    let bodies: Vec<&[f64]> =
        theta.chunks_exact(cp.block_len()).map(|block| &block[cp.cp_len..]).collect();
    let mut rows = Vec::new();
    for (name, mode) in [
        ("fixed A=0.2", ScaleMode::Fixed(DEFAULT_SCALE)),
        ("dynamic", ScaleMode::Dynamic),
    ] {
        let q = Quantizer::new(Modulation::Qam64, mode);
        let t0 = Instant::now();
        let errs: Vec<f64> = bodies
            .iter()
            .map(|b| q.quantize_body(b).in_band_error_db(13.0, 4.0))
            .collect();
        let dt = t0.elapsed();
        rows.push(vec![
            name.to_string(),
            format!("{:6.2} dB", bluefi_dsp::power::mean(&errs)),
            format!("{:.2?}", dt),
        ]);
    }
    let mut rep = Reporter::from_args();
    rep.table(
        "Ablation — fixed vs dynamic QAM scale factor",
        &["mode", "mean in-band error", "time"],
        rows,
    );
    rep.note(
        "\npaper: \"the performance difference is negligible but the \
         complexity is significantly higher\".",
    );
    rep.finish();
}
