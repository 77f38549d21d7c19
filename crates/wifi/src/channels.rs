//! 2.4 GHz channelization for both standards, and the paper's Sec 2.6
//! frequency planning.
//!
//! WiFi channels 1–13 sit at 2412 + 5·(ch−1) MHz and are 20 MHz wide, so
//! adjacent channels overlap heavily — the degree of freedom BlueFi uses to
//! keep a Bluetooth channel away from pilot/null subcarriers. Bluetooth BR
//! channels k = 0..78 sit at 2402 + k MHz; BLE advertising channels 37, 38,
//! 39 sit at 2402, 2426 and 2480 MHz.

use crate::subcarriers::{subcarrier_of_freq, PILOT_SUBCARRIERS};

/// Center frequency of 2.4 GHz WiFi channel `ch` (1..=13) in Hz.
pub fn wifi_channel_freq_hz(ch: u8) -> f64 {
    assert!((1..=13).contains(&ch), "WiFi channel 1..=13, got {ch}");
    (2412.0 + 5.0 * (ch as f64 - 1.0)) * 1e6
}

/// Center frequency of Bluetooth BR channel `k` (0..=78) in Hz.
pub fn bt_channel_freq_hz(k: u8) -> f64 {
    assert!(k <= 78, "BT channel 0..=78, got {k}");
    (2402.0 + k as f64) * 1e6
}

/// The (fractional) subcarrier position of an absolute frequency within a
/// WiFi channel.
pub fn subcarrier_in_channel(freq_hz: f64, wifi_ch: u8) -> f64 {
    subcarrier_of_freq(freq_hz - wifi_channel_freq_hz(wifi_ch))
}

/// Distance (in subcarriers) from a fractional subcarrier position to the
/// nearest pilot or the DC null.
pub fn distance_to_pilot_or_null(subcarrier: f64) -> f64 {
    PILOT_SUBCARRIERS
        .iter()
        .map(|&p| (subcarrier - p as f64).abs())
        .chain(std::iter::once(subcarrier.abs()))
        .fold(f64::INFINITY, f64::min)
}

/// Result of frequency planning for one Bluetooth channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelPlan {
    /// Chosen WiFi channel.
    pub wifi_channel: u8,
    /// The Bluetooth channel's true center as a (fractional) subcarrier in
    /// that channel — receivers are tuned here.
    pub subcarrier: f64,
    /// The subcarrier the waveform is actually synthesized at. Equal to
    /// `subcarrier` unless integer snapping applied (see [`plan_channel`]).
    pub tx_subcarrier: f64,
    /// Distance from `tx_subcarrier` to the nearest pilot/null.
    pub clearance: f64,
}

impl ChannelPlan {
    /// A plan pinned to an explicit (channel, subcarrier) placement with no
    /// snapping — for tests and manual sweeps.
    pub fn pinned(wifi_channel: u8, subcarrier: f64) -> ChannelPlan {
        ChannelPlan {
            wifi_channel,
            subcarrier,
            tx_subcarrier: subcarrier,
            clearance: distance_to_pilot_or_null(subcarrier),
        }
    }
}

/// Bluetooth receivers must accept an initial carrier error of ±75 kHz, so
/// the synthesizer may shift its carrier by up to this many subcarriers
/// (0.24 × 312.5 kHz = 75 kHz) to land on an integer subcarrier.
pub const MAX_SNAP_SUBCARRIERS: f64 = 75e3 / SUBCARRIER_SPACING_HZ_LOCAL;
const SUBCARRIER_SPACING_HZ_LOCAL: f64 = 20.0e6 / 64.0;

/// Paper Sec 2.6: choose the WiFi channel that keeps a Bluetooth center
/// frequency farthest from any pilot or null, subject to the Bluetooth
/// signal fitting well inside the occupied band (|subcarrier| ≤ 26 keeps
/// ~±650 kHz of signal on populated subcarriers).
///
/// Additionally, the transmit carrier is snapped to the nearest *integer*
/// subcarrier when that stays within the Bluetooth ±75 kHz carrier
/// tolerance: on an integer subcarrier the 64-sample phase advance of the
/// carrier is a whole number of turns, so the CP-pocket glitches of
/// Sec 2.4 carry no carrier-phase offset — a measurable reception
/// improvement (see `ablation_snapping`).
pub fn plan_channel(bt_freq_hz: f64) -> Option<ChannelPlan> {
    let mut best: Option<ChannelPlan> = None;
    for ch in 1..=13u8 {
        let sc = subcarrier_in_channel(bt_freq_hz, ch);
        if sc.abs() > 26.0 {
            continue; // too close to the channel edge
        }
        let tx = if (sc.round() - sc).abs() <= MAX_SNAP_SUBCARRIERS {
            sc.round()
        } else {
            sc
        };
        let clearance = distance_to_pilot_or_null(tx);
        let cand = ChannelPlan { wifi_channel: ch, subcarrier: sc, tx_subcarrier: tx, clearance };
        if best.is_none_or(|b| cand.clearance > b.clearance) {
            best = Some(cand);
        }
    }
    best
}

/// Bluetooth BR channels that sit comfortably on populated subcarriers of a
/// WiFi channel (the ±650 kHz signal stays within ±26 subcarriers) — the
/// candidates worth transmitting on. The paper's Sec 4.7 AFH restriction
/// uses "the 20 channels corresponding to the single WiFi channel"; the
/// edge ones overlap guard subcarriers and perform poorly.
pub fn usable_bt_channels_in_wifi(wifi_ch: u8) -> Vec<u8> {
    let center = wifi_channel_freq_hz(wifi_ch);
    (0..=78u8)
        .filter(|&k| {
            let f = bt_channel_freq_hz(k);
            subcarrier_of_freq(f - center).abs() <= 26.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_frequencies() {
        assert_eq!(wifi_channel_freq_hz(1), 2.412e9);
        assert_eq!(wifi_channel_freq_hz(3), 2.422e9);
        assert_eq!(wifi_channel_freq_hz(13), 2.472e9);
        assert_eq!(bt_channel_freq_hz(0), 2.402e9);
        assert_eq!(bt_channel_freq_hz(78), 2.480e9);
    }

    #[test]
    fn paper_example_bt38_subcarriers() {
        // Sec 2.6: BT channel 38 (2426 MHz) corresponds to subcarriers
        // 28.8, 12.8, -3.2 and -19.2 on WiFi channels 2, 3, 4 and 5.
        let f = 2.426e9;
        assert!((subcarrier_in_channel(f, 2) - 28.8).abs() < 1e-9);
        assert!((subcarrier_in_channel(f, 3) - 12.8).abs() < 1e-9);
        assert!((subcarrier_in_channel(f, 4) + 3.2).abs() < 1e-9);
        assert!((subcarrier_in_channel(f, 5) + 19.2).abs() < 1e-9);
    }

    #[test]
    fn paper_example_plans_channel_3() {
        // "In this example, we should use WiFi channel 3. Using channel 3,
        // the closest pilot is 1.8125 MHz (5.8 subcarriers) away."
        let plan = plan_channel(2.426e9).expect("plannable");
        assert_eq!(plan.wifi_channel, 3);
        assert!((plan.subcarrier - 12.8).abs() < 1e-9);
        // The transmit carrier snaps to subcarrier 13 (62.5 kHz shift,
        // inside the ±75 kHz Bluetooth tolerance), improving clearance to
        // 6.0 subcarriers.
        assert!((plan.tx_subcarrier - 13.0).abs() < 1e-9);
        assert!((plan.clearance - 6.0).abs() < 1e-9);
    }

    #[test]
    fn snapping_respects_the_carrier_tolerance() {
        for k in 2..=78u8 {
            let plan = plan_channel(bt_channel_freq_hz(k)).unwrap();
            let shift_hz =
                (plan.tx_subcarrier - plan.subcarrier).abs() * 312_500.0;
            assert!(shift_hz <= 75_000.0 + 1e-6, "BT channel {k}: {shift_hz} Hz");
        }
    }

    #[test]
    fn almost_every_bt_channel_is_plannable() {
        // BT channels 0 and 1 (2402/2403 MHz) sit below WiFi channel 1's
        // populated subcarriers — no 2.4 GHz WiFi channel covers them. That
        // is exactly why the paper notes only ONE BLE advertising channel
        // (38, 2426 MHz) is "well-covered by WiFi channel 3".
        for k in 0..=1u8 {
            assert!(plan_channel(bt_channel_freq_hz(k)).is_none(), "BT channel {k}");
        }
        for k in 2..=78u8 {
            let plan = plan_channel(bt_channel_freq_hz(k));
            assert!(plan.is_some(), "BT channel {k}");
            let p = plan.unwrap();
            assert!(p.clearance > 1.0, "BT channel {k}: clearance {}", p.clearance);
        }
    }

    #[test]
    fn afh_channel_count_is_about_twenty() {
        for ch in [1u8, 3, 6, 11] {
            let usable = usable_bt_channels_in_wifi(ch).len();
            assert!((16..=17).contains(&usable), "channel {ch}: {usable} usable");
        }
    }

    #[test]
    fn clearance_metric() {
        assert_eq!(distance_to_pilot_or_null(0.0), 0.0);
        assert_eq!(distance_to_pilot_or_null(7.0), 0.0);
        assert_eq!(distance_to_pilot_or_null(14.0), 7.0);
        assert_eq!(distance_to_pilot_or_null(-24.0), 3.0);
    }
}
