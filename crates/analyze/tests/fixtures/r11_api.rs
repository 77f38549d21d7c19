// R11 fixture (scanned as crates/dsp/src/r11_api.rs, next to r11_user.rs
// scanned as crates/wifi/src/r11_user.rs). Never compiled.

/// Named only by this file's tests.
pub fn only_tested() -> u8 { 1 }

/// Named by nothing.
pub const DEAD_LIMIT: usize = 4;

/// Named by nothing.
pub struct DeadState;

/// Called from the other file.
pub fn called_elsewhere() -> u8 { 2 }

/// Re-exported by the other file, called by nothing.
pub fn reexported() -> u8 { 3 }

/// Crate-visible only: not public surface.
pub(crate) fn internal() -> u8 { 4 }

// lint: allow(r11) kept for a caller outside the scanned tree
pub fn hatched() -> u8 { 5 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::only_tested(), 1);
    }
}
