//! # bluefi-apps
//!
//! The paper's two end-to-end applications built on the BlueFi core:
//!
//! * [`beacon`] — iBeacon/Eddystone/AltBeacon payloads and the remotely
//!   configurable AP beacon service (Sec 4.2–4.4).
//! * [`audio`] — real-time A2DP streaming: the [`sbc`] subband codec,
//!   [`l2cap`] framing, AFH-confined hopping and the slot scheduler
//!   (Sec 4.7), plus the FTS4BT-style sniffer classification behind
//!   Figs 9 and 10.

pub mod audio;
pub mod beacon;
pub mod l2cap;
pub mod ranging;
pub mod sbc;

pub use audio::{A2dpStreamer, AudioConfig, SnifferCounts};
pub use beacon::{BeaconConfig, BeaconFormat};
pub use sbc::{SbcCodec, SbcParams};
