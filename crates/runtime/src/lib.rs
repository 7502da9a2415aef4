//! # casekit-runtime
//!
//! The workspace's parallel work farm: a std-only scoped-thread
//! executor whose one operation — [`Runtime::map`] — applies a pure
//! function to every item of a slice and returns the results *in input
//! order*, regardless of how many worker threads participated.
//!
//! The crate sits at the bottom of the workspace so both the experiment
//! harness (`casekit-experiments`, which re-exports [`Runtime`] as
//! `experiments::runtime::Runtime`) and the logic substrates
//! (`casekit-logic::af::scc` farms independent strongly connected
//! components across it) can share one executor without a dependency
//! cycle.
//!
//! # Design rules
//!
//! 1. **Worker count is unobservable.** `f(i, &items[i])` must be a
//!    pure function of its arguments plus captured immutable state;
//!    [`Runtime::map`] then guarantees byte-identical output for every
//!    worker count. The CI matrix runs the whole test suite under
//!    `RUNTIME_WORKERS={1,4}` and expects identical results.
//! 2. **Coarse chunks only.** Spawning a thread costs tens of
//!    microseconds; farming a handful of sub-microsecond items across
//!    four workers is pure overhead (the `thread_speedup: 0.855`
//!    regression this crate's clamp removed). `map` therefore caps the
//!    effective worker count at one worker per [`MIN_CHUNK`] items and
//!    runs small inputs inline on the calling thread.
//! 3. **No oversubscription by default.** [`Runtime::from_env`] (and
//!    `Default`) sizes the pool to the host — `RUNTIME_WORKERS` when
//!    pinned, [`std::thread::available_parallelism`] otherwise. An
//!    *explicit* [`Runtime::with_workers`] count is honored even beyond
//!    the core count so determinism tests can exercise the threaded
//!    path on any host.
//!
//! The executor is std-only (`std::thread::scope`): the vendor tree has
//! no rayon, and the fan-out shape here — one balanced pass over a
//! slice — does not need work stealing.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};

/// Minimum number of items per worker before [`Runtime::map`] spawns
/// threads. Below `workers * MIN_CHUNK` items the effective worker
/// count shrinks so every spawned thread has at least this much work;
/// a single-chunk map runs inline on the calling thread.
pub const MIN_CHUNK: usize = 16;

/// Parallelism configuration for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Runtime {
    /// Worker threads to shard work across. `1` runs serially on the
    /// calling thread; results are identical for every value.
    pub workers: usize,
}

impl Default for Runtime {
    /// [`Runtime::from_env`]: the `RUNTIME_WORKERS` environment
    /// variable when set, one worker per available core otherwise.
    fn default() -> Self {
        Self::from_env()
    }
}

/// Parses a `RUNTIME_WORKERS`-style value: a positive integer, or
/// `None` for anything absent or unparseable (the caller falls back to
/// the core count).
fn parse_workers(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w > 0)
}

impl Runtime {
    /// The runtime CI and local runs configure through the environment:
    /// `RUNTIME_WORKERS` when set to a positive integer, every
    /// available core otherwise. Because worker count is unobservable
    /// in every result, the CI matrix runs the test suite under
    /// `RUNTIME_WORKERS={1,4}` and expects identical results.
    pub fn from_env() -> Self {
        let workers = Self::pinned_from_env().unwrap_or_else(Self::host_parallelism);
        Runtime { workers }
    }

    /// The explicit `RUNTIME_WORKERS` pin, if one is set and parses to
    /// a positive integer — the single source of truth for that
    /// variable's syntax (callers layer their own fallbacks on top).
    pub fn pinned_from_env() -> Option<usize> {
        parse_workers(std::env::var("RUNTIME_WORKERS").ok().as_deref())
    }

    /// The host's available parallelism (1 when it cannot be probed).
    /// Benchmarks record this next to their measurements: a thread
    /// speedup is bounded by it, and on a single-core host the only
    /// honest parallel plan *is* the serial plan.
    pub fn host_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The serial runtime: everything on the calling thread.
    pub fn serial() -> Self {
        Runtime { workers: 1 }
    }

    /// A runtime with exactly `workers` threads (minimum 1). The count
    /// is honored even beyond the host's core count — oversubscription
    /// is sometimes exactly what a determinism test wants to exercise —
    /// but [`Runtime::map`] still shrinks it when the input is too
    /// small to feed that many workers.
    pub fn with_workers(workers: usize) -> Self {
        Runtime {
            workers: workers.max(1),
        }
    }

    /// The worker count `map` would actually use for `items` items:
    /// the configured count, capped so each spawned worker gets at
    /// least [`MIN_CHUNK`] items.
    pub fn effective_workers(&self, items: usize) -> usize {
        let chunk_cap = items.div_ceil(MIN_CHUNK).max(1);
        self.workers.max(1).min(chunk_cap)
    }

    /// Applies `f` to every item, returning results in input order.
    ///
    /// `f(i, &items[i])` must be a pure function of its arguments (plus
    /// captured immutable state) — the contract that makes the worker
    /// count unobservable in the output. Small inputs (fewer than
    /// `2 *` [`MIN_CHUNK`] items) and `workers == 1` run as a plain
    /// inline loop; otherwise items are split into contiguous chunks of
    /// at least [`MIN_CHUNK`] items, one scoped thread per chunk, and
    /// the per-chunk outputs are concatenated back in order into one
    /// exactly-sized allocation.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (the scope joins every worker
    /// first).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        run_chunks(items.chunks(self.chunk_len(items.len())), f)
    }

    /// [`Runtime::map`] over *mutable* items: applies `f` to every item
    /// in place, returning the per-item results in input order.
    ///
    /// This is the executor for stateful shards — e.g. a service that
    /// owns one long-lived compiled session per case and wants a batch
    /// of independent per-session workloads farmed across cores. The
    /// purity contract shifts accordingly: `f(i, &mut items[i])` may
    /// mutate its own item freely, but the result (and the item's final
    /// state) must be a function of the item's prior state and `i`
    /// alone — items must not communicate. Under that contract the
    /// worker count stays unobservable, exactly as for [`Runtime::map`]:
    /// the chunking is deterministic, every item is visited exactly
    /// once, and outputs are concatenated back in input order.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (the scope joins every worker
    /// first).
    pub fn map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        run_chunks(items.chunks_mut(self.chunk_len(items.len())), f)
    }

    /// The chunk length that splits `items` items across
    /// [`Runtime::effective_workers`] workers (at least 1, so empty
    /// inputs still chunk).
    fn chunk_len(&self, items: usize) -> usize {
        items.div_ceil(self.effective_workers(items)).max(1)
    }
}

/// The one chunk loop behind [`Runtime::map`] and [`Runtime::map_mut`]:
/// a single chunk runs inline on the calling thread; otherwise each
/// chunk gets one scoped thread and the per-chunk outputs are
/// concatenated back in order into one exactly-sized allocation.
fn run_chunks<C, R, F>(mut chunks: impl ExactSizeIterator<Item = C>, f: F) -> Vec<R>
where
    C: IntoIterator,
    C::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(usize, C::Item) -> R + Sync,
{
    if chunks.len() <= 1 {
        return chunks.next().map_or_else(Vec::new, |chunk| {
            chunk
                .into_iter()
                .enumerate()
                .map(|(i, x)| f(i, x))
                .collect()
        });
    }
    let f = &f;
    let outputs: Vec<Vec<R>> = std::thread::scope(|scope| {
        let mut base = 0;
        let handles: Vec<_> = chunks
            .map(|chunk| {
                let chunk = chunk.into_iter();
                let offset = base;
                base += chunk.len();
                scope.spawn(move || chunk.enumerate().map(|(j, x)| f(offset + j, x)).collect())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("runtime worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(outputs.iter().map(Vec::len).sum());
    for chunk in outputs {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order_for_every_worker_count() {
        let items: Vec<usize> = (0..103).collect();
        let serial = Runtime::serial().map(&items, |i, &x| (i, x * 2));
        for workers in [2, 3, 4, 8, 64, 1000] {
            let parallel = Runtime::with_workers(workers).map(&items, |i, &x| (i, x * 2));
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(Runtime::with_workers(8).map(&empty, |_, &x| x).is_empty());
        assert_eq!(
            Runtime::with_workers(8).map(&[7u8], |i, &x| (i, x)),
            vec![(0, 7)]
        );
    }

    #[test]
    fn effective_workers_enforces_chunk_granularity() {
        let rt = Runtime::with_workers(8);
        // Too small to split: runs inline.
        assert_eq!(rt.effective_workers(0), 1);
        assert_eq!(rt.effective_workers(MIN_CHUNK), 1);
        // Enough for two chunks but not eight.
        assert_eq!(rt.effective_workers(2 * MIN_CHUNK), 2);
        // Large inputs use the full configured count.
        assert_eq!(rt.effective_workers(100 * MIN_CHUNK), 8);
        // An explicit count is honored past the core count, but never
        // past one worker per MIN_CHUNK items.
        assert_eq!(Runtime::with_workers(1000).effective_workers(103), 7);
    }

    #[test]
    fn map_mut_mutates_every_item_once_in_order_for_every_worker_count() {
        let reference: Vec<(usize, u64)> = (0..103).map(|i| (i, i as u64 * 3 + 1)).collect();
        for workers in [1, 2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..103).collect();
            let results = Runtime::with_workers(workers).map_mut(&mut items, |i, x| {
                *x = *x * 3 + 1;
                (i, *x)
            });
            assert_eq!(results, reference, "workers = {workers}");
            let finals: Vec<u64> = reference.iter().map(|&(_, v)| v).collect();
            assert_eq!(items, finals, "workers = {workers}");
        }
    }

    #[test]
    fn map_mut_handles_empty_and_tiny_inputs() {
        let mut empty: Vec<u8> = Vec::new();
        assert!(Runtime::with_workers(8)
            .map_mut(&mut empty, |_, x| *x)
            .is_empty());
        let mut one = [7u8];
        assert_eq!(
            Runtime::with_workers(8).map_mut(&mut one, |i, x| {
                *x += 1;
                (i, *x)
            }),
            vec![(0, 8)]
        );
        assert_eq!(one, [8]);
    }

    #[test]
    fn with_workers_clamps_to_at_least_one() {
        assert_eq!(Runtime::with_workers(0).workers, 1);
        assert!(Runtime::default().workers >= 1);
        assert!(Runtime::host_parallelism() >= 1);
    }

    #[test]
    fn runtime_workers_parsing_accepts_positive_integers_only() {
        assert_eq!(parse_workers(Some("4")), Some(4));
        assert_eq!(parse_workers(Some(" 2 ")), Some(2));
        assert_eq!(parse_workers(Some("0")), None);
        assert_eq!(parse_workers(Some("-3")), None);
        assert_eq!(parse_workers(Some("many")), None);
        assert_eq!(parse_workers(Some("")), None);
        assert_eq!(parse_workers(None), None);
    }

    #[test]
    fn env_configured_runtime_matches_serial_results() {
        // Whatever RUNTIME_WORKERS the harness (or the CI matrix) set,
        // the environment-configured runtime must agree with serial —
        // the parallel-identity guarantee the matrix exercises.
        let items: Vec<usize> = (0..57).collect();
        let serial = Runtime::serial().map(&items, |i, &x| (i, x.wrapping_mul(31)));
        let from_env = Runtime::from_env().map(&items, |i, &x| (i, x.wrapping_mul(31)));
        assert_eq!(serial, from_env);
    }
}
