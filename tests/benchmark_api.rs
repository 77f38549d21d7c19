//! Signature guard for the library surface that the standalone
//! `benchmark/` package composes its layered cold pipeline from
//! (`benchmark/src/cold.rs`) and drives the template cache through
//! (`benchmark/src/fleet.rs`, `benchmark/src/daemon.rs`). That package is
//! outside the workspace, so a signature change in `crates/` would
//! otherwise only break its separate build; coercing each item to a fn
//! pointer here makes the workspace's own test run fail instead.

use bluefi::bt::gfsk::{GfskParams, GfskScratch};
use bluefi::coding::ViterbiScratch;
use bluefi::core::cp::CpCompat;
use bluefi::core::pipeline::{BlueFi, PhaseMode, Synthesis, SynthesisScratch};
use bluefi::core::qam::{QuantizedSymbol, Quantizer, ScaleMode};
use bluefi::core::reversal::{
    extract_psdu_into, reverse_fec_with, DecodeStrategy, Reversal, WeightProfile,
};
use bluefi::core::telemetry::{self, Counter, Level};
use bluefi::core::template::{CachedEngine, CachedScratch, TemplateStore};
use bluefi::dsp::Cx;
use bluefi::wifi::channels::ChannelPlan;
use bluefi::wifi::qam::{demap_point_into, Modulation};
use bluefi::wifi::subcarriers::SUBCARRIER_SPACING_HZ;
use bluefi::wifi::{Interleaver, Mcs};

#[test]
fn layered_pipeline_items_keep_their_signatures() {
    let _: fn() -> GfskScratch = GfskScratch::new;
    let _: fn(&mut GfskScratch, &[bool], &GfskParams, f64, &mut Vec<f64>) =
        GfskScratch::modulate_phase_into;
    let _: fn(&CpCompat, &[f64], f64, &mut Vec<f64>, &mut Vec<f64>) =
        CpCompat::make_compatible_into;
    let _: fn(&CpCompat) -> usize = CpCompat::block_len;
    let _: fn(Modulation, ScaleMode) -> Quantizer = Quantizer::new;
    let _: fn(&Quantizer, &[f64], &mut Vec<Cx>, &mut QuantizedSymbol) =
        Quantizer::quantize_body_into;
    let _: fn() -> QuantizedSymbol = QuantizedSymbol::default;
    let _: fn(&QuantizedSymbol, f64, f64) -> f64 = QuantizedSymbol::in_band_error_db;
    let _: fn(Modulation, Cx, &mut Vec<bool>) = demap_point_into;
    let _: fn(Modulation) -> Interleaver = Interleaver::new;
    let _: fn(&Interleaver) -> usize = Interleaver::block_len;
    let _: fn(&Interleaver, usize) -> i32 = Interleaver::subcarrier_of;
    let _: fn(&Interleaver, &[bool], &mut Vec<bool>) = Interleaver::deinterleave_into;
    let _: fn(&WeightProfile, i32, f64) -> u32 = WeightProfile::weight_at;
    let _: fn(DecodeStrategy) -> Mcs = DecodeStrategy::mcs;
    let _: fn(Modulation) -> usize = Modulation::bits_per_symbol;
    let _: fn() -> ViterbiScratch = ViterbiScratch::new;
    let _: fn() -> Reversal = Reversal::default;
    let _: fn(&[bool], &[u32], DecodeStrategy, f64, &mut ViterbiScratch, &mut Reversal) =
        reverse_fec_with;
    let _: fn(&[bool], u8, &mut Vec<u8>) -> usize = extract_psdu_into;
    // `benchmark/src/cold.rs` passes its decode buffer as `&mut`, which
    // must keep coercing to the read-only slice.
    #[allow(clippy::unnecessary_mut_passed)]
    let _: fn(&mut Reversal, u8, &mut Vec<u8>) -> usize =
        |rev, seed, psdu| extract_psdu_into(&mut rev.scrambled, seed, psdu);
    let _: fn() -> SynthesisScratch = SynthesisScratch::new;
    let _: for<'s> fn(&BlueFi, &[bool], ChannelPlan, u8, &'s mut SynthesisScratch) -> &'s Synthesis =
        BlueFi::synthesize_at_with;
    let _: fn(Level) = telemetry::set_level;
    let _: fn(Counter) -> u64 = telemetry::counter;
    let _: f64 = SUBCARRIER_SPACING_HZ;
}

#[test]
fn layered_pipeline_fields_and_variants_exist() {
    let bf = BlueFi { strategy: DecodeStrategy::Realtime, ..Default::default() };
    assert_eq!(bf.phase, PhaseMode::Cumulative);
    let _: (Modulation, f64, f64, usize) =
        (bf.strategy.mcs().modulation, bf.gfsk.sample_rate_hz, bf.weights.band, bf.cp.cp_len);
    let _: &Vec<Cx> = &QuantizedSymbol::default().points;
    let rev = Reversal::default();
    let _: (&Vec<bool>, &Vec<usize>) = (&rev.scrambled, &rev.flips);
    let _: fn(&Synthesis) -> (usize, usize, usize, usize, f64) = |s| {
        (s.psdu.len(), s.flips.len(), s.n_symbols, s.forced_bits, s.mean_quant_error_db)
    };
    let _ = (Level::Counters, Counter::ViterbiMemoHits);
}

/// The benchmark's fleet configuration, as `benchmark/src/fleet.rs` spells
/// it.
fn benchmark_fleet_config() -> BlueFi {
    BlueFi { strategy: DecodeStrategy::Realtime, phase: PhaseMode::Anchored, ..Default::default() }
}

#[test]
fn template_cache_items_keep_their_signatures() {
    let _: fn(BlueFi) -> CachedEngine = CachedEngine::new;
    let _: fn(&CachedEngine, &mut CachedScratch) -> bool = CachedEngine::cache_eligible;
    let _: for<'s> fn(
        &CachedEngine,
        &[bool],
        ChannelPlan,
        u8,
        &'s mut CachedScratch,
    ) -> &'s Synthesis = CachedEngine::synthesize_at_with;
    let _: fn(&CachedEngine) -> &BlueFi = CachedEngine::config;
    let _: fn(&CachedEngine) -> &TemplateStore = CachedEngine::store;
    let _: fn(&TemplateStore) -> usize = TemplateStore::bytes_resident;
    let _: fn(&TemplateStore) -> usize = TemplateStore::len;
    let _: fn() -> CachedScratch = CachedScratch::new;
}

#[test]
fn benchmark_fleet_config_is_cache_eligible() {
    // `fleet_patch` fails its `correct` check when this is false; failing
    // here instead catches it in the workspace's own test run.
    let engine = CachedEngine::new(benchmark_fleet_config());
    assert!(engine.cache_eligible(&mut CachedScratch::new()));
}
