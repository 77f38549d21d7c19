//! # bluefi-sim
//!
//! The measurement substrate for reproducing the paper's evaluation:
//! a radio channel model (path loss, shadowing, AWGN, CFO, multipath,
//! interference), per-device receiver models for the three phones the paper
//! measures with, a dedicated-Bluetooth-transmitter model, a CSMA/CA
//! airtime simulator for the throughput study, and the beacon-session
//! harness the figure generators drive.

pub mod channel;
pub mod devices;
pub mod experiments;
pub mod mac;

pub use channel::{Channel, ChannelConfig};
pub use devices::{BtTransmitter, DeviceModel};
pub use experiments::{run_beacon_session, RssiSample, SessionConfig, TxKind};
