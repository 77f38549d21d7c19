//! # bluefi-wifi
//!
//! A complete, spec-faithful simulator of the IEEE 802.11n (HT-20, single
//! spatial stream) transmit chain — the substrate BlueFi reverses. Includes
//! the scrambler framing, BCC encoding and puncturing, the HT interleaver
//! (validated against the paper's Table 1), Gray-coded QAM up to 1024-QAM,
//! HT pilots, OFDM modulation with long/short guard intervals and
//! per-symbol windowing, the HT mixed-format preamble, MCS tables, 2.4 GHz
//! channelization with BlueFi's frequency planning, and models of the
//! actual chips the paper used (AR9331, RTL8811AU, USRP).

pub mod channels;
pub mod chip;
pub mod interleaver;
pub mod mcs;
pub mod ofdm;
pub mod pilots;
pub mod preamble;
pub mod qam;
pub mod subcarriers;
pub mod tx;

pub use chip::{ChipModel, Ppdu, SeedPolicy};
pub use interleaver::Interleaver;
pub use mcs::Mcs;
pub use ofdm::GuardInterval;
pub use qam::Modulation;
pub use tx::TxConfig;
