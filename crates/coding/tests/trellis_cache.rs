//! Integration tests for the process-wide trellis-plan intern table.
//!
//! These run as a separate test binary on purpose: the intern table is
//! process-global state, and a dedicated process keeps the counts below
//! deterministic (unit tests in the library crate would race them).

use bluefi_coding::puncture::CodeRate;
use bluefi_coding::trellis::{interned_plan_count, trellis_plan};
use std::sync::Arc;

const RATES: [CodeRate; 4] = [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56];

/// Concurrent first-users of one (rate, length) key must all receive the
/// *same* interned plan — no lost-race duplicate construction. The intern
/// holds its lock across the build, so this pins the Arc identity, not
/// just structural equality.
#[test]
fn concurrent_first_use_interns_one_plan() {
    let n_tx = CodeRate::R34.period_outputs() * 64;
    let plans: Vec<Arc<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(move || trellis_plan(CodeRate::R34, n_tx)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panics")).collect()
    });
    for p in &plans[1..] {
        assert!(Arc::ptr_eq(&plans[0], p), "racing first-use built a duplicate plan");
    }
    assert_eq!(plans[0].rate(), CodeRate::R34);
    assert_eq!(plans[0].n_tx(), n_tx);
}

/// Re-requesting interned keys never rebuilds or evicts: the table grows
/// once per distinct key and then stays put, and every hit returns the
/// original Arc.
#[test]
fn reuse_is_eviction_free_across_keys() {
    let mut keys: Vec<(CodeRate, usize)> = RATES
        .iter()
        .flat_map(|&r| (1..=3).map(move |k| (r, r.period_outputs() * 16 * k)))
        .collect();
    // The sibling test in this binary shares the process-global table;
    // covering its key here keeps the count assertion interleaving-proof.
    keys.push((CodeRate::R34, CodeRate::R34.period_outputs() * 64));
    keys.sort_by_key(|&(r, n)| (r as usize, n));
    keys.dedup();
    let first: Vec<Arc<_>> = keys.iter().map(|&(r, n)| trellis_plan(r, n)).collect();
    let after_first = interned_plan_count();
    assert!(after_first >= keys.len(), "every distinct key must be interned");
    for round in 0..3 {
        for (i, &(r, n)) in keys.iter().enumerate() {
            let again = trellis_plan(r, n);
            assert!(Arc::ptr_eq(&first[i], &again), "round {round}: key {i} was rebuilt");
        }
        assert_eq!(interned_plan_count(), after_first, "round {round}: table size changed");
    }
}
