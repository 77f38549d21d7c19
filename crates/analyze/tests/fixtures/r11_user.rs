// R11 fixture, the second file: one call into r11_api.rs and one
// re-export from it. Never compiled.

pub use bluefi_dsp::r11_api::reexported;

fn user() -> u8 {
    bluefi_dsp::r11_api::called_elsewhere()
}
