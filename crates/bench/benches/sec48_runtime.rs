//! Sec 4.8 — execution time and complexity: per-stage timing of cold packet
//! generation, comparing the weighted Viterbi against the real-time O(T)
//! decoder.
//!
//! Each strategy synthesizes the same advert through
//! `BlueFi::synthesize_at_with` and one warm scratch at the `counters`
//! telemetry level; the stages are the pipeline's own five phase spans
//! (GFSK, CP compatibility, FFT + QAM with demap/deinterleave, FEC
//! reversal, descramble/pack) plus the enclosing `synthesize` total, so
//! the bench times exactly the code a synthesis runs.
//!
//! The paper: Python 2.60 s/packet (FEC 2.39 s), C 46.88 ms, real-time
//! decoder + FFTW ≈ 0.954 ms — a ~50x decoder speedup with FEC dominating
//! everywhere. Absolute numbers differ here; the *ratios* are the result.
//!
//! Run: `cargo bench -p bluefi-bench` (the harness is a plain telemetry
//! readout — `harness = false` — so the hermetic build needs no
//! criterion).

use std::hint::black_box;

use bluefi_bench::Reporter;
use bluefi_bt::ble::{adv_air_bits, AdvPdu, AdvPduType};
use bluefi_core::pipeline::{BlueFi, SynthesisScratch};
use bluefi_core::reversal::DecodeStrategy;
use bluefi_core::telemetry::{self, Level, SpanKind};
use bluefi_wifi::channels::ChannelPlan;

const WARMUP: usize = 10;
const PACKETS: usize = 200;

fn beacon_bits() -> Vec<bool> {
    let pdu = AdvPdu {
        pdu_type: AdvPduType::AdvNonconnInd,
        adv_address: [1, 2, 3, 4, 5, 6],
        adv_data: (0..30).collect(),
        tx_add: false,
    };
    adv_air_bits(&pdu, 38)
}

/// Mean µs per packet of each span in `kinds` over [`PACKETS`] cold
/// syntheses under `strategy`.
fn profile(strategy: DecodeStrategy, bits: &[bool], kinds: &[SpanKind]) -> Vec<f64> {
    let bf = BlueFi { strategy, ..Default::default() };
    let plan = ChannelPlan::pinned(3, 13.0);
    let mut scratch = SynthesisScratch::new();
    for _ in 0..WARMUP {
        black_box(bf.synthesize_at_with(bits, plan, 71, &mut scratch));
    }
    telemetry::reset();
    for _ in 0..PACKETS {
        black_box(bf.synthesize_at_with(black_box(bits), plan, 71, &mut scratch));
    }
    let snap = telemetry::drain_section();
    kinds
        .iter()
        .map(|&kind| {
            snap.span_stat(kind)
                .map_or(f64::NAN, |s| s.hist.sum as f64 / 1e3 / PACKETS as f64)
        })
        .collect()
}

fn main() {
    // The five pipeline phases, then the enclosing total.
    let mut kinds = SpanKind::pipeline_phases().to_vec();
    kinds.push(SpanKind::Synthesize);
    let bits = beacon_bits();
    telemetry::set_level(Level::Counters);
    let viterbi = profile(DecodeStrategy::WeightedViterbi, &bits, &kinds);
    let realtime = profile(DecodeStrategy::Realtime, &bits, &kinds);

    let rows: Vec<Vec<String>> = kinds
        .iter()
        .zip(viterbi.iter().zip(&realtime))
        .map(|(kind, (v, r))| {
            vec![kind.name().to_string(), format!("{v:.1}"), format!("{r:.1}")]
        })
        .collect();
    let mut rep = Reporter::from_args();
    rep.table(
        &format!("Sec 4.8 — per-stage runtime (mean µs/packet over {PACKETS} packets)"),
        &["stage", "weighted Viterbi", "real-time"],
        rows,
    );

    // The paper's headline ratio: the real-time decoder is far cheaper
    // than the weighted Viterbi.
    let fec = kinds.iter().position(|&k| k == SpanKind::FecReversal).unwrap_or(0);
    let speedup = viterbi[fec] / realtime[fec];
    rep.note(format!(
        "\nFEC reversal speedup (weighted Viterbi / real-time): {speedup:.1}x"
    ));
    rep.note("paper: ~50x decoder speedup; FEC dominates every pipeline.");
    rep.finish();
}
