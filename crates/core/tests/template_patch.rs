//! Randomized property: the template-cache patch path is word-for-word
//! identical to a full resynthesis, for random base payloads and random
//! small mutations, under both chip seed policies and on all three
//! representative Bluetooth channels (including the Back-edge channel 24).

use bluefi_core::check::{bools, check};
use bluefi_core::rng::Rng;
use bluefi_core::{
    prop_assert, prop_assert_eq, BlueFi, CachedEngine, CachedScratch, DecodeStrategy,
};
use bluefi_wifi::channels::{plan_channel, ChannelPlan};

/// The three BT channels the conformance matrix pins: 10 (Front, on-center),
/// 24 (negative subcarrier — the Back-edge assisted path), 50 (Front).
const BT_CHANNELS: [u8; 3] = [10, 24, 50];

/// The two chip scrambler-seed policies (AR9331 fixed seed 1, RTL8811AU
/// fixed seed 71 — see `bluefi_conformance::trace`).
const CHIP_SEEDS: [u8; 2] = [1, 71];

fn bt_channel_freq_hz(ch: u8) -> f64 {
    (2402.0 + ch as f64) * 1e6
}

fn fleet_bf() -> BlueFi {
    BlueFi { strategy: DecodeStrategy::Realtime, ..Default::default() }
}

#[derive(Debug)]
struct Case {
    plan: ChannelPlan,
    seed: u8,
    base: Vec<bool>,
    mutated: Vec<bool>,
}

#[test]
fn patched_synthesis_equals_full_resynthesis() {
    let bf = fleet_bf();
    let engine = CachedEngine::new(bf.clone());
    let mut scratch = CachedScratch::new();
    let mut turn = 0usize;
    check(
        "patched_synthesis_equals_full_resynthesis",
        |rng| {
            // Round-robin the (channel, seed) grid so every cell is
            // exercised regardless of the case count; randomize the rest.
            let ch = BT_CHANNELS[turn % BT_CHANNELS.len()];
            let seed = CHIP_SEEDS[(turn / BT_CHANNELS.len()) % CHIP_SEEDS.len()];
            turn += 1;
            // lint: allow(panic) channels 10..50 always plan
            let plan = plan_channel(bt_channel_freq_hz(ch)).unwrap();
            // Lengths from a small bucket set: the real-time elimination
            // plan is interned per (length, edge), so reusing lengths keeps
            // the property about *patching*, not plan construction.
            let len = 640 + 176 * rng.gen_range(0usize..8);
            let base = bools(rng, len..len + 1);
            // Mutate up to 4 whole bytes (the beacon-fleet shape: counters,
            // TX power, rotating address bytes), anywhere in the payload.
            let mut mutated = base.clone();
            let n_bytes = base.len() / 8;
            for _ in 0..rng.gen_range(1usize..5) {
                let byte = rng.gen_range(0usize..n_bytes);
                let mask = rng.gen_range(1u32..256) as u8;
                for bit in 0..8 {
                    if mask >> bit & 1 == 1 {
                        mutated[byte * 8 + bit] ^= true;
                    }
                }
            }
            Case { plan, seed, base, mutated }
        },
        |case| {
            // Prime the template (miss) with the base payload...
            engine.synthesize_at_with(&case.base, case.plan, case.seed, &mut scratch);
            // ...then patch the mutation and compare against a cold
            // synthesis of the same mutated payload, every field.
            let got =
                engine.synthesize_at_with(&case.mutated, case.plan, case.seed, &mut scratch);
            let want = bf.synthesize_at(&case.mutated, case.plan, case.seed);
            prop_assert_eq!(&got.psdu, &want.psdu);
            prop_assert_eq!(&got.flips, &want.flips);
            prop_assert_eq!(got.forced_bits, want.forced_bits);
            prop_assert_eq!(got.n_symbols, want.n_symbols);
            prop_assert_eq!(got.seed, want.seed);
            prop_assert!(
                got.mean_quant_error_db.to_bits() == want.mean_quant_error_db.to_bits(),
                "quant error {} != {}",
                got.mean_quant_error_db,
                want.mean_quant_error_db
            );
            Ok(())
        },
    );
    // The round-robin must have covered the full (channel, seed) grid.
    assert!(turn >= BT_CHANNELS.len() * CHIP_SEEDS.len(), "grid not covered");
}
