//! Facade crate re-exporting the whole BlueFi workspace.
pub use bluefi_apps as apps;
pub use bluefi_bt as bt;
pub use bluefi_coding as coding;
pub use bluefi_core as core;
pub use bluefi_dsp as dsp;
pub use bluefi_sim as sim;
pub use bluefi_wifi as wifi;
