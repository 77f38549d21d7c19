//! Determinism stress for `core::par`: seeded, deliberately irregular
//! workloads fanned out at 1/2/4/8 workers must produce bit-identical,
//! index-ordered output — the contiguous-chunk split means the worker
//! count can never change what a caller observes. Also pins the
//! scheduler's own observability: the per-worker busy/idle histograms
//! must be populated after a multi-worker fan-out.
//!
//! Own integration binary: it flips the process-wide telemetry level.

use bluefi_core::rng::{Rng, SeedableRng, StdRng};
use bluefi_core::telemetry::{self, Level, SpanKind};
use std::sync::Mutex;

/// Serializes the two tests: the harness runs them on separate threads,
/// and a fan-out from one must not bleed into the other's telemetry
/// window.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// One synthetic job: `rounds` is drawn per-item from a seeded RNG so the
/// per-item cost is irregular (1×–32×), which is exactly where a work
/// scheduler could be tempted to reorder results.
#[derive(Clone)]
struct Job {
    seed: u64,
    rounds: u64,
}

fn jobs(n: usize, master_seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(master_seed);
    (0..n)
        .map(|_| Job { seed: rng.next_u64(), rounds: rng.gen_range(64u64..2048) })
        .collect()
}

/// FNV-1a over the job's xoshiro stream: cheap, seed-sensitive, and any
/// reordering or cross-worker state leak changes the digest.
fn digest(scratch: &mut Vec<u64>, idx: usize, job: &Job) -> u64 {
    scratch.clear();
    let mut rng = StdRng::seed_from_u64(job.seed ^ idx as u64);
    for _ in 0..job.rounds {
        scratch.push(rng.next_u64());
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in scratch.iter() {
        h = (h ^ w).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn output_is_bit_identical_across_worker_counts() {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|p| p.into_inner());
    let items = jobs(64, 0x00B1_0EF1);
    let run = |n_workers: usize| -> Vec<u64> {
        bluefi_core::par::par_map_scratch_n(
            &items,
            n_workers,
            Vec::new,
            |scratch: &mut Vec<u64>, idx, job| digest(scratch, idx, job),
        )
    };

    let reference = run(1);
    assert_eq!(reference.len(), items.len());
    // The digests must arrive in submission order, not completion order:
    // recompute a few positions independently.
    let mut check = Vec::new();
    for idx in [0usize, 17, 63] {
        assert_eq!(reference[idx], digest(&mut check, idx, &items[idx]));
    }

    for n_workers in [2usize, 4, 8] {
        let got = run(n_workers);
        assert_eq!(got, reference, "worker count {n_workers} changed the output");
    }
}

#[test]
fn multi_worker_fanout_populates_busy_and_idle_histograms() {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::set_level(Level::Counters);
    telemetry::reset();

    let items = jobs(32, 0x5EED);
    let _ = bluefi_core::par::par_map_scratch_n(
        &items,
        4,
        Vec::new,
        |scratch: &mut Vec<u64>, idx, job| digest(scratch, idx, job),
    );

    let snap = telemetry::snapshot();
    let busy = snap
        .span_stat(SpanKind::ParWorkerBusy)
        .expect("busy histogram populated");
    // One busy sample per spawned worker.
    assert_eq!(busy.hist.count, 4, "{snap:?}");
    let idle = snap
        .span_stat(SpanKind::ParWorkerIdle)
        .expect("idle histogram populated");
    assert_eq!(idle.hist.count, 4, "{snap:?}");
    assert!(busy.hist.sum > 0, "workers did real work");

    telemetry::set_level(Level::Off);
    telemetry::reset();
}
