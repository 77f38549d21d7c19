//! # bluefi-coding
//!
//! Channel-coding substrate for the BlueFi workspace — every bit-level
//! transform either standard applies, implemented from scratch:
//!
//! * [`lfsr`] — the 802.11 scrambler and Bluetooth whitening sequences
//!   (all built on the shared `x⁷+x⁴+1` register).
//! * [`convolutional`] — the 802.11 K=7 (133,171) mother code.
//! * [`puncture`] — rate 1/2, 2/3, 3/4, 5/6 puncturing patterns.
//! * [`viterbi`] — weighted hard-decision Viterbi decoding (BlueFi's
//!   "important bits must not flip" reversal, paper Sec 2.7).
//! * [`trellis`] — the bit-packed branchless engine behind [`viterbi`]:
//!   interned per-(rate, length) trellis plans, u64 survivor words, and a
//!   branchless add–compare–select kernel.
//! * [`realtime`] — the O(T) exact-constraint decoder at rate 2/3 used for
//!   real-time packet generation (paper Sec 2.7 / 4.8).
//! * [`crc`] — Bluetooth HEC-8, CRC-16 and BLE CRC-24.
//! * [`hamming`] — Bluetooth rate-2/3 (15,10) FEC and rate-1/3 repetition.
//! * [`bch`] — the (64,30) sync-word code with the GIAC golden vector.

pub mod bch;
pub mod convolutional;
pub mod crc;
pub mod hamming;
pub mod lfsr;
pub mod puncture;
pub mod realtime;
pub mod trellis;
pub mod viterbi;

pub use convolutional::ConvEncoder;
pub use puncture::CodeRate;
pub use realtime::{FreeEdge, RealtimeCheckpoint};
pub use trellis::{trellis_plan, TrellisPlan};
pub use viterbi::ViterbiScratch;
