//! Synthesis backends: the engine-facing half of the daemon.
//!
//! [`ServiceBackend`] is the seam between transport and synthesis,
//! mirroring the backend-trait pattern of commissioning daemons: the
//! protocol layer never names an engine, so the same server, tests and
//! clients run against [`MockBackend`] (deterministic, instant, no DSP)
//! or the real pipeline behind the template cache ([`CachedBackend`]),
//! which bypasses to cold synthesis for configs the cache cannot serve.

use bluefi_core::pipeline::Synthesis;
use bluefi_core::template::{CachedEngine, CachedScratch};
use bluefi_core::{BatchJob, SynthesisBatch};
use bluefi_wifi::mcs::Mcs;
use std::sync::Mutex;
use std::time::Duration;

/// A synthesis engine the daemon can front. Implementations must be
/// callable from any worker thread concurrently.
pub trait ServiceBackend: Send + Sync {
    /// Short backend name, reported by the `stats` endpoint.
    fn name(&self) -> &'static str;

    /// Synthesizes one job.
    fn synthesize(&self, job: &BatchJob) -> Synthesis;

    /// Synthesizes a batch, results in job order. The default loops over
    /// [`ServiceBackend::synthesize`]; engine backends override to fan out
    /// through `core::par`.
    fn synthesize_batch(&self, jobs: &[BatchJob]) -> Vec<Synthesis> {
        jobs.iter().map(|j| self.synthesize(j)).collect()
    }
}

/// FNV-1a 64-bit step.
fn fnv1a(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
}

/// A deterministic, DSP-free backend for protocol and load testing: the
/// "synthesis" is an FNV-1a keystream over the request, so any two
/// transports delivering the same job must produce byte-identical
/// responses — exactly the property the soak harness asserts. An optional
/// per-request delay simulates real synthesis cost for shed and deadline
/// tests.
#[derive(Debug, Default)]
pub struct MockBackend {
    delay: Option<Duration>,
}

impl MockBackend {
    /// An instant mock.
    pub fn new() -> MockBackend {
        MockBackend::default()
    }

    /// A mock that sleeps `delay` per job before answering — makes queue
    /// pressure and deadline expiry reproducible on any host.
    pub fn with_delay(delay: Duration) -> MockBackend {
        MockBackend { delay: Some(delay) }
    }
}

impl ServiceBackend for MockBackend {
    fn name(&self) -> &'static str {
        "mock"
    }

    fn synthesize(&self, job: &BatchJob) -> Synthesis {
        if let Some(d) = self.delay {
            std::thread::sleep(d);
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &bit in &job.bits {
            h = fnv1a(h, bit as u8);
        }
        h = fnv1a(h, job.plan.wifi_channel);
        h = fnv1a(h, job.seed);
        // A compact keystream PSDU: enough bytes to make duplication or
        // cross-wiring of responses detectable, cheap enough for 200
        // concurrent clients on one core.
        let mut psdu = Vec::with_capacity(24);
        let mut k = h;
        for _ in 0..24 {
            k = k.rotate_left(17).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            psdu.push((k >> 32) as u8);
        }
        let mcs = Mcs::bluefi_realtime();
        Synthesis {
            psdu,
            plan: job.plan,
            mcs,
            seed: job.seed,
            n_symbols: job.bits.len().div_ceil(52).max(1),
            flips: vec![(h % 97) as usize],
            forced_bits: 16,
            mean_quant_error_db: -((h % 4000) as f64) / 100.0,
        }
    }
}

/// The template-cache path: cache-eligible jobs patch templates, batches
/// fan out through `core::par` sharing the engine's store.
#[derive(Debug)]
pub struct CachedBackend {
    engine: CachedEngine,
    workers: usize,
    pool: Mutex<Vec<CachedScratch>>,
}

impl CachedBackend {
    /// A backend over `engine` fanning batches out over `workers` workers
    /// (0 means the ambient `worker_count`).
    pub fn new(engine: CachedEngine, workers: usize) -> CachedBackend {
        let workers = if workers == 0 { bluefi_core::worker_count() } else { workers };
        CachedBackend { engine, workers, pool: Mutex::new(Vec::new()) }
    }

    /// The underlying engine (store stats, capacity).
    pub fn engine(&self) -> &CachedEngine {
        &self.engine
    }
}

impl ServiceBackend for CachedBackend {
    fn name(&self) -> &'static str {
        "cached"
    }

    fn synthesize(&self, job: &BatchJob) -> Synthesis {
        let mut s = {
            let mut pool = self.pool.lock().unwrap_or_else(|p| p.into_inner());
            pool.pop().unwrap_or_default()
        };
        let out = self.engine.synthesize_at_with(&job.bits, job.plan, job.seed, &mut s).clone();
        let mut pool = self.pool.lock().unwrap_or_else(|p| p.into_inner());
        if pool.len() < 16 {
            pool.push(s);
        }
        out
    }

    fn synthesize_batch(&self, jobs: &[BatchJob]) -> Vec<Synthesis> {
        SynthesisBatch::with_workers(self.engine.config(), self.workers)
            .synthesize_cached(&self.engine, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluefi_wifi::channels::ChannelPlan;

    fn job(seed: u8) -> BatchJob {
        BatchJob {
            bits: (0..64).map(|i| (i * 7 + seed as usize).is_multiple_of(3)).collect(),
            plan: ChannelPlan::pinned(1, 10.0),
            seed,
        }
    }

    #[test]
    fn mock_is_deterministic_and_input_sensitive() {
        let m = MockBackend::new();
        let a = m.synthesize(&job(7));
        let b = m.synthesize(&job(7));
        assert_eq!(a.psdu, b.psdu, "same job, same bytes");
        assert_eq!(a.flips, b.flips);
        let c = m.synthesize(&job(8));
        assert_ne!(a.psdu, c.psdu, "seed must perturb the keystream");
    }

    #[test]
    fn mock_batch_matches_singles() {
        let m = MockBackend::new();
        let jobs: Vec<BatchJob> = (0..5).map(job).collect();
        let batch = m.synthesize_batch(&jobs);
        for (j, s) in jobs.iter().zip(&batch) {
            assert_eq!(s.psdu, m.synthesize(j).psdu);
            assert_eq!(s.seed, j.seed);
        }
    }
}
