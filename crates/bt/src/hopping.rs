//! Frequency hopping and AFH (adaptive frequency hopping).
//!
//! Connected Bluetooth devices hop pseudo-randomly across the 79 BR
//! channels every 625 µs slot, with multi-slot packets freezing the
//! frequency for their duration. AFH (Vol 2 Part B 8.6.3) lets the master
//! restrict hopping to a channel map; hops landing on a disallowed channel
//! are remapped onto the allowed set — which is exactly how BlueFi confines
//! the sequence to the ~20 channels under one WiFi channel (paper Sec 4.7).
//!
//! **Substitution note (see DESIGN.md):** the hop *kernel* here is a
//! deterministic pseudo-random generator seeded by (address, clock) rather
//! than the spec's exact PERM5 network. Every property the paper (and the
//! experiments) rely on — determinism, near-uniform channel usage, AFH
//! remapping, same-channel multi-slot packets — holds identically.

/// Number of BR channels.
pub const NUM_CHANNELS: u8 = 79;

/// A deterministic hop-sequence generator for the connection state.
#[derive(Debug, Clone, Copy)]
pub struct HopSelector {
    /// ULAP-style seed (derived from the master's address).
    seed: u64,
}

impl HopSelector {
    /// Creates a selector for a master address (LAP+UAP, as the spec's
    /// kernel uses).
    pub fn new(lap: u32, uap: u8) -> HopSelector {
        HopSelector { seed: ((uap as u64) << 24) | lap as u64 }
    }

    /// The basic (un-remapped) hop channel for clock `clk` (CLK₂₇…CLK₁;
    /// hops occur on even slots, i.e. bit 1 increments per slot pair).
    pub fn basic_channel(&self, clk: u32) -> u8 {
        // SplitMix64 over (seed, slot index): high-quality deterministic
        // mixing, uniform over 0..79.
        let slot = (clk >> 1) as u64;
        let mut z = self.seed ^ slot.wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z % NUM_CHANNELS as u64) as u8
    }

    /// The AFH-remapped channel for clock `clk` under `map`.
    pub fn channel(&self, clk: u32, map: &ChannelMap) -> u8 {
        let basic = self.basic_channel(clk);
        map.remap(basic, clk)
    }
}

/// An AFH channel map: the set of used channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelMap {
    used: Vec<u8>,
    mask: [bool; NUM_CHANNELS as usize],
}

impl ChannelMap {
    /// All 79 channels used (no AFH).
    pub fn all() -> ChannelMap {
        ChannelMap::from_channels((0..NUM_CHANNELS).collect())
    }

    /// A map from an explicit channel list.
    ///
    /// # Panics
    /// Panics when empty or out of range (the spec requires ≥ 20 used
    /// channels; we only require ≥ 1 so experiments can stress smaller
    /// sets).
    pub fn from_channels(mut channels: Vec<u8>) -> ChannelMap {
        assert!(!channels.is_empty(), "channel map cannot be empty");
        channels.sort_unstable();
        channels.dedup();
        assert!(channels.iter().all(|&c| c < NUM_CHANNELS), "channel index out of range");
        let mut mask = [false; NUM_CHANNELS as usize];
        for &c in &channels {
            mask[c as usize] = true;
        }
        ChannelMap { used: channels, mask }
    }

    /// Whether `ch` is in the map.
    pub fn contains(&self, ch: u8) -> bool {
        self.mask[ch as usize]
    }

    /// AFH remapping: allowed channels pass through; disallowed ones are
    /// remapped pseudo-uniformly onto the used set (spec 8.6.3 style:
    /// index = basic mod N_used).
    pub fn remap(&self, basic: u8, _clk: u32) -> u8 {
        if self.contains(basic) {
            basic
        } else {
            self.used[basic as usize % self.used.len()]
        }
    }
}

/// Slot/clock arithmetic for scheduling (the Bluetooth clock ticks at
/// 3.2 kHz; CLK₁ flips every 312.5 µs, a slot is CLK₁..=CLK₂).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotClock {
    /// The native Bluetooth clock (bit 0 = CLK₀, 312.5 µs half-slots).
    pub clk: u32,
}

impl SlotClock {
    /// The clock at slot index `slot` (one slot = 2 clock ticks of CLK₁).
    pub fn at_slot(slot: u32) -> SlotClock {
        SlotClock { clk: slot << 1 }
    }

    /// Slot index.
    pub fn slot(&self) -> u32 {
        self.clk >> 1
    }

    /// CLK₆…CLK₁ (the whitening seed bits).
    pub fn clk6_1(&self) -> u8 {
        ((self.clk >> 1) & 0x3F) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_cover_channels_nearly_uniformly() {
        let h = HopSelector::new(0x9E8B33, 0x47);
        let mut counts = [0usize; 79];
        let n = 79 * 200;
        for slot in 0..n {
            counts[h.basic_channel((slot as u32) << 1) as usize] += 1;
        }
        let expect = n / 79;
        for (ch, &c) in counts.iter().enumerate() {
            assert!(
                c > expect / 2 && c < expect * 2,
                "channel {ch}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn hopping_is_deterministic_in_clock() {
        let h = HopSelector::new(0x123456, 0xAB);
        for clk in [0u32, 2, 100, 1 << 20] {
            assert_eq!(h.basic_channel(clk), h.basic_channel(clk));
            // CLK bit 0 of our reduced clock (CLK1) does not change the hop.
            assert_eq!(h.basic_channel(clk), h.basic_channel(clk | 1));
        }
    }

    #[test]
    fn different_addresses_hop_differently() {
        let a = HopSelector::new(0x111111, 1);
        let b = HopSelector::new(0x222222, 1);
        let same = (0..100u32)
            .filter(|&s| a.basic_channel(s << 1) == b.basic_channel(s << 1))
            .count();
        assert!(same < 20, "{same} collisions of 100");
    }

    #[test]
    fn afh_confines_to_map() {
        let map = ChannelMap::from_channels((11..=29).collect());
        let h = HopSelector::new(0x9E8B33, 0x47);
        for slot in 0..2000u32 {
            let ch = h.channel(slot << 1, &map);
            assert!(map.contains(ch), "slot {slot} landed on {ch}");
        }
    }

    #[test]
    fn afh_preserves_allowed_hops() {
        let map = ChannelMap::from_channels((0..NUM_CHANNELS).collect());
        let h = HopSelector::new(0x9E8B33, 0x47);
        for slot in 0..200u32 {
            assert_eq!(h.channel(slot << 1, &map), h.basic_channel(slot << 1));
        }
    }

    #[test]
    fn afh_remap_is_roughly_uniform_over_used() {
        let map = ChannelMap::from_channels(vec![11, 12, 13, 20, 21, 22]);
        let h = HopSelector::new(0x42, 0x42);
        let mut counts = std::collections::HashMap::new();
        for slot in 0..6000u32 {
            *counts.entry(h.channel(slot << 1, &map)).or_insert(0usize) += 1;
        }
        for &ch in &map.used {
            let c = counts.get(&ch).copied().unwrap_or(0);
            assert!(c > 500, "channel {ch}: {c}");
        }
    }

    #[test]
    fn slot_clock_arithmetic() {
        let s = SlotClock::at_slot(7);
        assert_eq!(s.slot(), 7);
        assert_eq!(SlotClock::at_slot(0x7F).clk6_1(), 0x3F);
    }
}
