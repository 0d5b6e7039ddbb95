//! Bounded, deterministic work-stealing task pool for host-side
//! parallelism.
//!
//! Every figure of the evaluation is a grid of independent simulation
//! cells (collective × OS variant × message size × node count × run),
//! each fully determined by its own derived seed. This module runs such a
//! grid across host cores while keeping the *result* bit-identical to a
//! serial execution:
//!
//! * the pool is **bounded** — at most [`pool_size`] worker threads
//!   (defaults to `std::thread::available_parallelism`, overridable with
//!   the `HLWK_THREADS` environment variable), never one thread per task;
//! * work is **stolen, never shared**: each worker owns a contiguous
//!   index range packed into an atomic; when a worker drains its range it
//!   steals the back half of the largest remaining victim range, so load
//!   imbalance (cells vary in cost by orders of magnitude) cannot idle a
//!   core;
//! * results are collected **by task index**, not by completion order —
//!   the deterministic-reduction rule. Whatever the interleaving, task
//!   `i`'s output lands in slot `i`, so `HLWK_THREADS=1` and
//!   `HLWK_THREADS=N` produce identical output for pure `f`.
//!
//! The closure must be a pure function of its index (derive any
//! randomness from the index via [`crate::rng::StreamRng`]); this is the
//! same contract the repetition runner has always imposed.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Set on the worker threads of a pool wider than one.
    static POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a worker of a [`parallel_map`] pool
/// wider than one — its siblings already occupy the other cores, so
/// nested parallelism would only oversubscribe them.
pub fn is_pool_worker() -> bool {
    POOL_WORKER.with(Cell::get)
}

/// Number of worker threads the pool uses: the `HLWK_THREADS`
/// environment variable if set to a positive integer, otherwise the
/// host's available parallelism.
pub fn pool_size() -> usize {
    if let Some(n) = std::env::var("HLWK_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pack a half-open index range `[lo, hi)` into one atomic word so claim
/// and steal are single CAS operations. `pub(crate)` so the windowed
/// partition engine ([`crate::partition`]) reuses the same claim/steal
/// primitives for its per-epoch active-partition range.
#[inline]
pub(crate) fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

#[inline]
pub(crate) fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Claim the front index of a range; `None` if the range is empty.
pub(crate) fn claim_front(range: &AtomicU64) -> Option<usize> {
    range
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
            let (lo, hi) = unpack(v);
            (lo < hi).then(|| pack(lo + 1, hi))
        })
        .ok()
        .map(|v| unpack(v).0 as usize)
}

/// Steal the back half of a victim's range; `None` if it holds fewer
/// than two tasks (a singleton is cheaper to claim than to re-park).
fn steal_back_half(victim: &AtomicU64) -> Option<(u32, u32)> {
    let mut stolen = (0, 0);
    victim
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
            let (lo, hi) = unpack(v);
            if hi - lo < 2 {
                return None;
            }
            let mid = hi - (hi - lo) / 2;
            stolen = (mid, hi);
            Some(pack(lo, mid))
        })
        .ok()
        .map(|_| stolen)
}

/// Run `f(0)..f(n-1)` on the pool and collect the results in index
/// order. Equivalent to `(0..n).map(f).collect()` for pure `f`,
/// regardless of thread count or scheduling.
pub fn parallel_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    parallel_map_threads(pool_size(), n, f)
}

/// [`parallel_map`] with an explicit worker count (bypasses
/// `HLWK_THREADS`; used by determinism tests so they need not mutate
/// process-global environment).
pub fn parallel_map_threads<T: Send, F: Fn(usize) -> T + Sync>(
    threads: usize,
    n: usize,
    f: F,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    assert!(n < u32::MAX as usize, "task grid too large");
    let workers = threads.max(1).min(n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }

    // Split [0, n) into one contiguous range per worker.
    let ranges: Vec<AtomicU64> = (0..workers)
        .map(|w| {
            let lo = (n * w / workers) as u32;
            let hi = (n * (w + 1) / workers) as u32;
            AtomicU64::new(pack(lo, hi))
        })
        .collect();

    let mut buckets: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let ranges = &ranges;
                let f = &f;
                s.spawn(move || {
                    POOL_WORKER.with(|w| w.set(true));
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        // Drain our own range from the front.
                        while let Some(i) = claim_front(&ranges[w]) {
                            local.push((i, f(i)));
                        }
                        // Empty: steal the back half of the largest
                        // victim range, adopt it, and keep going.
                        let victim = (0..ranges.len())
                            .filter(|&v| v != w)
                            .max_by_key(|&v| {
                                let (lo, hi) = unpack(ranges[v].load(Ordering::Acquire));
                                hi.saturating_sub(lo)
                            });
                        let stolen = victim.and_then(|v| steal_back_half(&ranges[v]));
                        match stolen {
                            Some((lo, hi)) => {
                                ranges[w].store(pack(lo, hi), Ordering::Release);
                            }
                            None => {
                                // Nothing worth stealing; claim stray
                                // singletons directly, then retire.
                                let mut claimed_any = false;
                                for r in ranges.iter() {
                                    if let Some(i) = claim_front(r) {
                                        local.push((i, f(i)));
                                        claimed_any = true;
                                    }
                                }
                                if !claimed_any {
                                    return local;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });

    // Deterministic reduction: place every result by task index.
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in buckets.drain(..).flatten() {
        debug_assert!(out[i].is_none(), "task {i} computed twice");
        out[i] = Some(v);
    }
    out.into_iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|| panic!("task {i} never ran")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order() {
        let out = parallel_map_threads(8, 100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_for_any_thread_count() {
        let f = |i: usize| (i as f64).sqrt() * 7.0 + i as f64;
        let serial: Vec<f64> = (0..257).map(f).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            assert_eq!(parallel_map_threads(threads, 257, f), serial);
        }
    }

    #[test]
    fn empty_and_singleton_grids() {
        assert_eq!(parallel_map_threads(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_threads(4, 1, |i| i + 9), vec![9]);
    }

    #[test]
    fn more_threads_than_tasks() {
        assert_eq!(
            parallel_map_threads(64, 3, |i| i),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn imbalanced_tasks_all_complete() {
        // Front-loaded cost: stealing must cover the expensive head while
        // the cheap tail drains.
        let out = parallel_map_threads(4, 64, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn only_wide_pool_workers_are_flagged() {
        assert!(!is_pool_worker());
        assert_eq!(
            parallel_map_threads(1, 3, |_| is_pool_worker()),
            vec![false; 3]
        );
        assert_eq!(
            parallel_map_threads(2, 4, |_| is_pool_worker()),
            vec![true; 4]
        );
        assert!(!is_pool_worker());
    }

    #[test]
    fn pool_size_is_positive() {
        assert!(pool_size() >= 1);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (lo, hi) in [(0, 0), (0, 1), (5, 900), (u32::MAX - 1, u32::MAX)] {
            assert_eq!(unpack(pack(lo, hi)), (lo, hi));
        }
    }
}
