//! Runtime stage contracts: cheap invariant checks on the synthesis
//! pipeline's hot paths, active exactly in debug builds.
//!
//! [`enabled`] is a `const fn` returning `cfg!(debug_assertions)`, so every
//! check wrapped in `if contracts::enabled() { ... }` const-folds away in
//! release builds — the contracts cost nothing on the benchmark path while
//! every `cargo test` run exercises them.
//!
//! The helpers here are the checks shared across crates (energy accounting,
//! permutation bijectivity); crate-local invariants use the [`contract!`](crate::contract!)
//! macro directly. All numeric comparisons are tolerance-based — exact
//! float equality is itself a lint violation (R5).

use crate::complex::Cx;

/// True in debug builds, where contract checks run.
///
/// Const so that `if enabled() { ... }` blocks are removed entirely by
/// constant propagation in release builds.
#[inline]
pub const fn enabled() -> bool {
    cfg!(debug_assertions)
}

/// Asserts a stage contract; a no-op (with no argument evaluation beyond
/// the condition) in release builds.
#[macro_export]
macro_rules! contract {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if $crate::contracts::enabled() {
            assert!($cond $(, $($fmt)+)?);
        }
    };
}

use std::sync::atomic::{AtomicU64, Ordering};

// The allocation probe: every kernel that takes an allocating path (a
// fresh `Vec`, or a scratch buffer forced to grow its capacity) reports it
// here. The workspace forbids `unsafe`, so a `#[global_allocator]` hook is
// off the table — instead the hot-path kernels self-report through
// [`probe_alloc`] / [`ensure_len`], and `runtime_profile` reads the count
// after a warm-up pass to prove the steady state allocates nothing.
static ALLOC_PROBE: AtomicU64 = AtomicU64::new(0);

/// Records one allocation event on the hot path. Free (and uncounted) in
/// release builds.
#[inline]
pub fn probe_alloc() {
    if enabled() {
        ALLOC_PROBE.fetch_add(1, Ordering::Relaxed);
    }
}

/// Resets the allocation probe to zero (e.g. after warm-up).
pub fn probe_reset() {
    ALLOC_PROBE.store(0, Ordering::Relaxed);
}

/// The number of hot-path allocation events recorded since the last
/// [`probe_reset`]. Always zero in release builds.
pub fn probe_count() -> u64 {
    ALLOC_PROBE.load(Ordering::Relaxed)
}

/// Resizes a scratch buffer to exactly `n` elements (filling new slots
/// with `fill`), reporting to the allocation probe only when the buffer
/// must grow its capacity — the reuse path is probe-silent, so a warm
/// scratch arena drives the probe count to zero.
pub fn ensure_len<T: Clone>(buf: &mut Vec<T>, n: usize, fill: T) {
    if buf.capacity() < n {
        probe_alloc();
    }
    buf.clear();
    buf.resize(n, fill);
}

/// Resizes a scratch buffer to exactly `n` elements like [`ensure_len`],
/// but keeps the elements below both lengths: only slots past the old
/// length get `fill`. For buffers whose caller overwrites, or never reads,
/// the kept prefix — refilling it would be wasted work.
pub fn ensure_len_keeping<T: Clone>(buf: &mut Vec<T>, n: usize, fill: T) {
    if buf.capacity() < n {
        probe_alloc();
    }
    buf.resize(n, fill);
}

/// Clears `buf` and reserves capacity for at least `n` elements, reporting
/// to the allocation probe only when the buffer must grow. Use for
/// append-style scratch (e.g. a waveform assembled symbol by symbol).
pub fn ensure_capacity<T>(buf: &mut Vec<T>, n: usize) {
    if buf.capacity() < n {
        probe_alloc();
    }
    buf.clear();
    buf.reserve(n);
}

/// Total energy `Σ|x|²` of a complex buffer.
pub fn energy(data: &[Cx]) -> f64 {
    data.iter().map(|v| v.norm_sq()).sum()
}

/// Relative closeness with an absolute floor: `|a − b| ≤ tol·max(|a|, |b|, 1)`.
pub fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Parseval contract: time-domain energy equals frequency-domain energy
/// over the transform length, `e_time ≈ e_freq / n` (unnormalized-forward
/// convention). No-op in release builds.
pub fn check_parseval(e_time: f64, e_freq: f64, n: usize, what: &str) {
    if !enabled() {
        return;
    }
    let scaled = e_freq / n as f64;
    contract!(
        rel_close(e_time, scaled, 1e-9),
        "{what}: Parseval violated — time energy {e_time:.6e} vs freq energy/N {scaled:.6e}"
    );
}

/// Bijectivity contract: `perm` must map `0..len` onto `0..len` with no
/// collisions. No-op in release builds.
pub fn check_permutation_bijective(len: usize, mut perm: impl FnMut(usize) -> usize, what: &str) {
    if !enabled() {
        return;
    }
    let mut seen = vec![false; len];
    for k in 0..len {
        let j = perm(k);
        contract!(j < len, "{what}: index {k} maps to {j}, outside 0..{len}");
        contract!(!seen[j], "{what}: output {j} hit twice — not a permutation");
        seen[j] = true;
    }
}

/// Unit-mean-energy contract: the mean `|p|²` over `points` is 1 within
/// `tol`. No-op in release builds.
pub fn check_unit_mean_energy(points: &[Cx], tol: f64, what: &str) {
    if !enabled() {
        return;
    }
    contract!(!points.is_empty(), "{what}: empty point set");
    let avg = energy(points) / points.len() as f64;
    contract!(
        (avg - 1.0).abs() <= tol,
        "{what}: mean point energy {avg:.9} is not 1"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::cx;

    // The `should_panic` cases below expect the contract to fire where
    // contracts are live; in release builds the same call must return
    // quietly, since the check compiles to nothing.

    #[test]
    fn enabled_in_test_builds() {
        // Live wherever debug assertions are (every plain `cargo test`),
        // and compiled out of release builds, `cargo test --release` too.
        assert_eq!(enabled(), cfg!(debug_assertions));
    }

    #[test]
    fn rel_close_has_absolute_floor() {
        assert!(rel_close(0.0, 1e-12, 1e-9));
        assert!(rel_close(1e9, 1e9 + 0.1, 1e-9));
        assert!(!rel_close(1.0, 2.0, 1e-9));
    }

    #[test]
    fn parseval_accepts_matching_energies() {
        check_parseval(2.0, 128.0, 64, "test");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "Parseval"))]
    fn parseval_rejects_mismatched_energies() {
        check_parseval(2.0, 130.0, 64, "test");
    }

    #[test]
    fn identity_is_a_permutation() {
        check_permutation_bijective(16, |k| k, "identity");
        check_permutation_bijective(16, |k| 15 - k, "reversal");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "hit twice"))]
    fn constant_map_is_not_a_permutation() {
        check_permutation_bijective(4, |_| 0, "constant");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "outside"))]
    fn out_of_range_map_is_rejected() {
        check_permutation_bijective(4, |k| k + 1, "shift");
    }

    #[test]
    fn unit_circle_points_have_unit_energy() {
        let pts: Vec<Cx> = (0..8).map(|i| Cx::expj(i as f64)).collect();
        check_unit_mean_energy(&pts, 1e-12, "circle");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "mean point energy"))]
    fn scaled_points_fail_unit_energy() {
        let pts = vec![cx(2.0, 0.0); 4];
        check_unit_mean_energy(&pts, 1e-12, "scaled");
    }

    #[test]
    fn alloc_probe_counts_and_resets() {
        if !enabled() {
            // Release builds compile the probe out: nothing ever counts.
            probe_alloc();
            assert_eq!(probe_count(), 0);
            return;
        }
        // Other tests in this binary may hit the probe concurrently, so
        // assert only monotone lower bounds, never exact totals.
        let before = probe_count();
        probe_alloc();
        probe_alloc();
        assert!(probe_count() >= before + 2, "probe failed to count");
        probe_reset();
        // After a reset the count restarts from (near) zero; a fresh grow
        // must register again.
        let mut buf: Vec<f64> = Vec::new();
        let base = probe_count();
        ensure_len(&mut buf, 64, 0.0);
        assert_eq!(buf.len(), 64);
        assert!(probe_count() > base, "growing a buffer must hit the probe");
    }

    #[test]
    fn ensure_len_reuses_capacity() {
        let mut buf: Vec<f64> = Vec::with_capacity(128);
        ensure_len(&mut buf, 100, 1.5);
        assert_eq!(buf.len(), 100);
        assert!(buf.iter().all(|&v| (v - 1.5).abs() < 1e-15));
        // Shrinking and re-filling must not reallocate.
        let cap = buf.capacity();
        ensure_len(&mut buf, 32, 2.5);
        assert_eq!(buf.len(), 32);
        assert_eq!(buf.capacity(), cap, "reuse path must keep the allocation");
    }

    #[test]
    fn contract_macro_passes_and_formats() {
        contract!(1 + 1 == 2);
        contract!(true, "with message {}", 42);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "boom 7"))]
    fn contract_macro_fires() {
        contract!(false, "boom {}", 7);
    }
}
