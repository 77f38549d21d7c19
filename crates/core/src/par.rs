//! A safe, std-only parallel batch engine for the synthesis pipeline.
//!
//! BlueFi's experiments are embarrassingly parallel: thousands of
//! independent (packet, channel, seed) trials, each a pure function of its
//! inputs. This module provides the minimal machinery to exploit that —
//! a scoped-thread chunked map with **per-worker scratch arenas** — without
//! any external dependency (the workspace is hermetic; there is no rayon).
//!
//! Design rules:
//!
//! * **Deterministic**: items are split into contiguous index-ordered
//!   chunks, one per worker, and results are reassembled in input order —
//!   the output is byte-identical to the sequential map for any worker
//!   count (pipeline purity is what makes the per-item results identical;
//!   this module guarantees the ordering).
//! * **Zero steady-state allocation inside a worker**: each worker owns one
//!   scratch built by the caller's factory, reused across every item of its
//!   chunk (see [`crate::pipeline::SynthesisScratch`]).
//! * **No locks**: workers share nothing mutable; results travel back
//!   through the scoped join handles.
//!
//! The worker count defaults to [`std::thread::available_parallelism`] and
//! can be pinned with the `BLUEFI_THREADS` environment variable (`1`
//! degrades to a plain sequential loop in the calling thread).

use crate::pipeline::{BlueFi, Synthesis, SynthesisScratch};
use crate::telemetry::{self, Counter, Gauge, SpanKind};
use crate::template::{CachedEngine, CachedScratch};
use bluefi_wifi::channels::ChannelPlan;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// Number of CPUs the host exposes ([`std::thread::available_parallelism`],
/// falling back to 1 when unavailable).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The worker count pinned by the `BLUEFI_THREADS` environment variable,
/// if it is set to a positive integer.
pub fn env_threads() -> Option<usize> {
    std::env::var("BLUEFI_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The worker count the batch engine will use: [`env_threads`] if set,
/// otherwise [`host_cpus`].
pub fn worker_count() -> usize {
    env_threads().unwrap_or_else(host_cpus)
}

/// Clamps a requested worker count to [`host_cpus`] — spawning more
/// workers than CPUs only adds scheduler churn (the committed
/// `BENCH_runtime.json` once showed 0.92× "speedups" from exactly that).
/// An explicit `BLUEFI_THREADS` override wins unclamped, so deliberate
/// oversubscription experiments stay possible. Every clamp decision is
/// recorded on the [`Counter::ParWorkersClamped`] telemetry counter.
pub fn clamped_workers(requested: usize) -> usize {
    let requested = requested.max(1);
    if env_threads().is_some() {
        return requested;
    }
    let cap = host_cpus();
    if requested > cap {
        telemetry::incr(Counter::ParWorkersClamped);
        cap
    } else {
        requested
    }
}

/// Parallel map with per-worker scratch state and an explicit worker count.
///
/// `new_scratch` runs once per worker (in that worker's thread); `f` is
/// called as `f(&mut scratch, index, &item)` with `index` the item's
/// position in `items`. Results come back in input order. A panic in any
/// worker propagates to the caller.
pub fn par_map_scratch_n<T, U, S, NS, F>(
    items: &[T],
    n_workers: usize,
    new_scratch: NS,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    NS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let n_workers = n_workers.max(1).min(items.len().max(1));
    telemetry::incr(Counter::ParFanouts);
    telemetry::add(Counter::ParItems, items.len() as u64);
    telemetry::add(Counter::ParChunks, n_workers as u64);
    telemetry::gauge_max(Gauge::ParMaxWorkers, n_workers as u64);
    if n_workers <= 1 {
        let _busy = telemetry::span(SpanKind::ParWorkerBusy);
        let mut scratch = new_scratch();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut scratch, i, t))
            .collect();
    }
    // Timing is captured only when recording is on, so the off path keeps
    // its exact pre-telemetry shape (no clock reads in workers).
    let record = telemetry::counters_on();
    let fanout_start = Instant::now();
    let chunk = items.len().div_ceil(n_workers);
    let mut out: Vec<U> = Vec::with_capacity(items.len());
    let mut busy_times: Vec<Duration> = Vec::with_capacity(if record { n_workers } else { 0 });
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_workers);
        for (w, chunk_items) in items.chunks(chunk).enumerate() {
            let base = w * chunk;
            let f = &f;
            let new_scratch = &new_scratch;
            handles.push(scope.spawn(move || {
                // Tag this worker's trace events (1-based; 0 is main) so
                // per-packet traces attribute to the thread that ran them.
                let _tag = telemetry::trace::worker_scope(w as u32 + 1);
                let t0 = record.then(Instant::now);
                let mut scratch = new_scratch();
                let part = chunk_items
                    .iter()
                    .enumerate()
                    .map(|(j, t)| f(&mut scratch, base + j, t))
                    .collect::<Vec<U>>();
                (part, t0.map(|t| t.elapsed()))
            }));
        }
        // Join in spawn order: concatenating contiguous chunks reproduces
        // the input order exactly.
        for h in handles {
            match h.join() {
                Ok((part, busy)) => {
                    if let Some(b) = busy {
                        busy_times.push(b);
                    }
                    out.extend(part);
                }
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
    if record {
        // A worker's idle share is the fan-out wall time it did not spend
        // computing its chunk — the load-imbalance signal.
        let wall = fanout_start.elapsed();
        for b in busy_times {
            telemetry::record_duration(SpanKind::ParWorkerBusy, b);
            telemetry::record_duration(SpanKind::ParWorkerIdle, wall.saturating_sub(b));
        }
    }
    out
}

/// [`par_map_scratch_n`] at the ambient [`worker_count`].
pub fn par_map_scratch<T, U, S, NS, F>(items: &[T], new_scratch: NS, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    NS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    par_map_scratch_n(items, worker_count(), new_scratch, f)
}

/// Stateless parallel map at the ambient [`worker_count`] — results in
/// input order.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_scratch(items, || (), |(), i, t| f(i, t))
}

/// One batch synthesis job: packet bits, a pinned channel plan, and the
/// scrambler seed.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Bluetooth packet air bits.
    pub bits: Vec<bool>,
    /// The channel plan to synthesize against.
    pub plan: ChannelPlan,
    /// Scrambler seed the chip will use.
    pub seed: u8,
}

/// Batched synthesis over a [`BlueFi`] configuration: fans independent
/// trials out over [`worker_count`] threads, giving each worker its own
/// [`SynthesisScratch`] so every trial after a worker's first is
/// allocation-free in the synthesis kernel.
#[derive(Debug, Clone, Copy)]
pub struct SynthesisBatch<'a> {
    bf: &'a BlueFi,
    n_workers: usize,
}

impl<'a> SynthesisBatch<'a> {
    /// A batch engine at the ambient [`worker_count`].
    pub fn new(bf: &'a BlueFi) -> SynthesisBatch<'a> {
        SynthesisBatch { bf, n_workers: worker_count() }
    }

    /// Pins the worker count (used by the determinism tests and the
    /// throughput profile).
    pub fn with_workers(bf: &'a BlueFi, n_workers: usize) -> SynthesisBatch<'a> {
        SynthesisBatch { bf, n_workers: n_workers.max(1) }
    }

    /// The worker count this batch will use.
    pub fn workers(&self) -> usize {
        self.n_workers
    }

    /// Synthesizes every job, in parallel, results in job order.
    pub fn synthesize(&self, jobs: &[BatchJob]) -> Vec<Synthesis> {
        self.run(jobs, |bf, scratch, _, job| {
            bf.synthesize_at_with(&job.bits, job.plan, job.seed, scratch).clone()
        })
    }

    /// Synthesizes every job through a [`CachedEngine`], in parallel,
    /// results in job order. Cache-eligible jobs take the template patch
    /// path (first user of a key builds the template; the shared store
    /// serves every later worker); ineligible jobs fall through to the
    /// cold pipeline. The engine's configuration governs — this batch only
    /// contributes its worker count — and because patched results are
    /// bit-exact equal to cold synthesis, the output is byte-identical to
    /// [`SynthesisBatch::synthesize`] on `engine.config()` for any worker
    /// count and any cache state.
    pub fn synthesize_cached(&self, engine: &CachedEngine, jobs: &[BatchJob]) -> Vec<Synthesis> {
        par_map_scratch_n(jobs, self.n_workers, CachedScratch::new, |s, _, job| {
            engine.synthesize_at_with(&job.bits, job.plan, job.seed, s).clone()
        })
    }

    /// Generic trial runner: `f(config, worker_scratch, index, &item)` per
    /// item, fanned out with one [`SynthesisScratch`] per worker, results in
    /// input order. This is the shape every experiment loop reduces to —
    /// synthesize, push through a channel/receiver model, score.
    pub fn run<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&BlueFi, &mut SynthesisScratch, usize, &T) -> U + Sync,
    {
        let bf = self.bf;
        par_map_scratch_n(items, self.n_workers, SynthesisScratch::new, |s, i, t| {
            f(bf, s, i, t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_every_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for n in [1, 2, 3, 8, 16, 97, 200] {
            let got = par_map_scratch_n(&items, n, || (), |(), _, &x| x * x + 1);
            assert_eq!(got, expect, "workers {n}");
        }
    }

    #[test]
    fn scratch_is_per_worker_and_reused() {
        // Each worker's scratch counts the items it saw; totals must cover
        // every item exactly once.
        let items: Vec<usize> = (0..40).collect();
        let got = par_map_scratch_n(&items, 4, || 0usize, |seen, _, &x| {
            *seen += 1;
            (x, *seen)
        });
        let total_items = got.len();
        assert_eq!(total_items, 40);
        // Within one worker's contiguous chunk the counter is strictly
        // increasing from 1.
        for w in 0..4 {
            let chunk = &got[w * 10..(w + 1) * 10];
            for (j, &(_, seen)) in chunk.iter().enumerate() {
                assert_eq!(seen, j + 1, "worker {w} item {j}");
            }
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = par_map(&[] as &[u32], |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let r = std::panic::catch_unwind(|| {
            par_map_scratch_n(&items, 2, || (), |(), _, &x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn cached_batch_matches_cold_batch_for_every_worker_count() {
        use crate::reversal::DecodeStrategy;
        use bluefi_wifi::channels::plan_channel;

        let bf = BlueFi { strategy: DecodeStrategy::Realtime, ..Default::default() };
        let plan = plan_channel(2.426e9).unwrap();
        // A beacon fleet: one payload class, rotating counter byte — so the
        // batch is one miss plus all hits on a shared template.
        let jobs: Vec<BatchJob> = (0..12u8)
            .map(|c| {
                let mut bits = vec![false; 1992];
                for (i, b) in bits.iter_mut().enumerate() {
                    *b = (i as u8).wrapping_mul(37) & 1 == 1;
                }
                bits[1900 + c as usize % 8] ^= true;
                BatchJob { bits, plan, seed: 71 }
            })
            .collect();
        let cold = SynthesisBatch::with_workers(&bf, 1).synthesize(&jobs);
        for n in [1, 2, 4] {
            let engine = CachedEngine::new(bf.clone());
            let got = SynthesisBatch::with_workers(&bf, n).synthesize_cached(&engine, &jobs);
            assert_eq!(got.len(), cold.len());
            for (g, w) in got.iter().zip(&cold) {
                assert_eq!(g.psdu, w.psdu, "workers {n}");
                assert_eq!(g.flips, w.flips, "workers {n}");
                assert_eq!(g.forced_bits, w.forced_bits, "workers {n}");
            }
        }
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn clamped_workers_caps_at_host_cpus() {
        let cap = host_cpus();
        // An explicit BLUEFI_THREADS in the environment opts out of the
        // clamp entirely; the cap only applies to the default policy.
        if env_threads().is_none() {
            assert_eq!(clamped_workers(cap + 4), cap);
            assert_eq!(clamped_workers(cap), cap);
        }
        assert_eq!(clamped_workers(0), 1);
        assert_eq!(clamped_workers(1), 1);
    }
}
