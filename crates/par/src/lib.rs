//! Deterministic fork/join helpers over `std::thread::scope`.
//!
//! The route engine fans out independent per-destination computations and
//! must merge them in a stable order regardless of thread count or
//! scheduling. [`par_map`] guarantees that: the output vector is indexed by
//! input position, so `par_map(xs, f)` is bit-identical to
//! `xs.iter().map(f).collect()` whenever `f` itself is deterministic.
//!
//! Every in-process fan-out is a `par_map`: the study's fan-out over
//! vantage points and the route engine's fan-out over destinations. It
//! spawns the workers, hands out items, splits the thread budget and merges
//! obs shards in one place.
//!
//! Thread count comes from the `IPV6WEB_THREADS` environment variable when
//! set (a value of `1` forces the sequential path, used by the determinism
//! tests), else from `std::thread::available_parallelism`.
//!
//! A loop whose next items are known in advance, like a probe round
//! walking its shuffled order, can start loading them early with
//! [`prefetch`].
//!
//! # The two-level worker budget
//!
//! `IPV6WEB_THREADS` is a *global* cap, not a per-fan-out width. Nested
//! parallelism — the daemon running several studies at once while each
//! study fans its campaigns out over vantage points, or a `par_map` inside
//! another — must not multiply into `outer × inner` threads. Every thread
//! therefore carries an [`allowance`]: its share of the global budget. A
//! fresh thread's allowance is the full budget ([`thread_count`]); a
//! fan-out clamps its width to the caller's allowance and splits it among
//! its workers (worker `w` of `W` gets `⌊B/W⌋` plus one of the `B mod W`
//! remainders), so any nested fan-out borrows from the same global budget
//! instead of oversubscribing. The sum of live leaf workers never exceeds
//! the budget.

use std::cell::Cell;
use std::sync::Mutex;

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "IPV6WEB_THREADS";

/// The `IPV6WEB_THREADS` budget worker process `p` of `procs` should run
/// under: the same remainder-spreading split as [`worker_share`], applied
/// to the global thread budget, clamped to ≥ 1 because a process cannot
/// run on zero threads. Shares sum exactly to [`thread_count`] whenever
/// `procs ≤ thread_count()`; with more processes than budget the overflow
/// processes still get one thread each (explicit, bounded
/// oversubscription — same rule as [`with_allowance`]'s clamp).
pub fn process_share(procs: usize, p: usize) -> usize {
    worker_share(thread_count(), procs.max(1), p).max(1)
}

/// Number of worker threads to use: `IPV6WEB_THREADS` if set to a positive
/// integer, else the machine's available parallelism, else 1.
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

thread_local! {
    // 0 = unset: the thread has not been handed a share yet and may use the
    // full global budget. Resolved lazily through `allowance()` so tests
    // that flip IPV6WEB_THREADS mid-process observe the change.
    static ALLOWANCE: Cell<usize> = const { Cell::new(0) };
}

/// This thread's share of the global worker budget: the worker count any
/// fan-out started here may use. [`thread_count`] for a thread that was
/// not spawned by [`par_map`]; the assigned share inside a `par_map`
/// worker. Fan-outs clamp their width to it so nested parallelism stays
/// within `IPV6WEB_THREADS` in total.
pub fn allowance() -> usize {
    let a = ALLOWANCE.with(|c| c.get());
    if a == 0 {
        thread_count()
    } else {
        a
    }
}

/// Worker `w`'s share when a budget of `budget` is split over `workers`
/// workers: `⌊budget/workers⌋`, with the first `budget mod workers`
/// workers taking one extra. Shares sum exactly to `budget` and every
/// share is ≥ 1 whenever `workers ≤ budget`. Public so long-lived worker
/// pools outside this crate (the daemon's job executor) can split the
/// global budget with the same arithmetic [`par_map`] uses.
pub fn worker_share(budget: usize, workers: usize, w: usize) -> usize {
    budget / workers + usize::from(w < budget % workers)
}

/// Runs `f` with this thread's allowance pinned to `allowance` (clamped to
/// ≥ 1), restoring the previous allowance afterwards — even on panic.
///
/// This is how a worker pool that was *not* spawned by [`par_map`] (e.g. a
/// daemon executor running several studies concurrently) hands each worker
/// its share of the global budget: every fan-out `f` performs then borrows
/// from that share instead of the full `IPV6WEB_THREADS` budget, so
/// concurrent jobs never oversubscribe in total.
pub fn with_allowance<R>(allowance: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            ALLOWANCE.with(|c| c.set(self.0));
        }
    }
    let prev = ALLOWANCE.with(|c| c.get());
    let _restore = Restore(prev);
    ALLOWANCE.with(|c| c.set(allowance.max(1)));
    f()
}

/// Applies `f` to every item, possibly in parallel, returning results in
/// input order. `f` receives the item index alongside the item so callers
/// can seed per-item state deterministically.
///
/// The width is this thread's [`allowance`], clamped to the item count. At
/// width 1 the items run inline on the calling thread, which keeps its full
/// allowance, so a lone item's nested fan-outs may still use the whole
/// budget. Otherwise `width` scoped workers start; worker `w` runs with
/// [`worker_share`]`(allowance(), width, w)` as its own allowance (see the
/// module docs on the two-level budget) and takes items one at a time from
/// one shared queue, each with the output slot it fills. The output is in
/// input order whatever the schedule, and every worker merges its obs
/// shard before it exits, so neither results nor counter totals depend on
/// the width when `f` is deterministic.
///
/// # Panics
/// A panic in `f` is a bug, not a partial result: once every worker has
/// stopped, the first worker's panic resumes in the caller with its
/// original payload.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let budget = allowance();
    let width = budget.min(items.len().max(1));
    // Counters fire on both the serial and parallel paths so totals do not
    // depend on IPV6WEB_THREADS; only the gauge reflects the configuration.
    ipv6web_obs::gauge_max("par.peak_threads", width as u64);
    ipv6web_obs::add("par.fanouts", 1);
    ipv6web_obs::add("par.items", items.len() as u64);
    if width == 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let mut out: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    let queue = Mutex::new(items.iter().enumerate().zip(out.iter_mut()));
    let panic = std::thread::scope(|scope| {
        let (queue, f) = (&queue, &f);
        let workers: Vec<_> = (0..width)
            .map(|w| {
                let share = worker_share(budget, width, w);
                scope.spawn(move || {
                    ALLOWANCE.with(|c| c.set(share));
                    // The guard drops before `f` runs. Taking a slice's
                    // next item cannot panic, so no worker poisons the lock.
                    while let Some(((i, x), slot)) =
                        queue.lock().map(|mut q| q.next()).expect("the queue is never poisoned")
                    {
                        *slot = Some(f(i, x));
                    }
                    ipv6web_obs::flush_thread();
                })
            })
            .collect();
        // joining by hand keeps a panic's payload, which the scope's own
        // join would replace with a generic message
        let mut first = None;
        for w in workers {
            if let Err(payload) = w.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    out.into_iter().map(|slot| slot.expect("every item is taken exactly once")).collect()
}

/// Starts loading every cache line `value` occupies into the L1 cache and
/// returns at once, so a loop can fetch what a later iteration reads while
/// the current one runs. A hint only: it never changes a result, and off
/// x86-64 it does nothing.
#[inline]
pub fn prefetch<T: ?Sized>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let first = (value as *const T).cast::<i8>();
        let lead = first as usize % LINE;
        for off in (0..lead + std::mem::size_of_val(value)).step_by(LINE) {
            // SAFETY: PREFETCHT0 is a hint that cannot fault on any address
            // and neither reads nor writes program state; `wrapping_*`
            // keeps the pointer arithmetic itself defined.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_sub(lead).wrapping_add(off)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 64] {
            let par = with_allowance(workers, || par_map(&items, |_, x| x * x));
            assert_eq!(par, seq, "workers = {workers}");
        }
    }

    #[test]
    fn passes_stable_indices() {
        let items = vec!["a", "b", "c", "d"];
        let idx = with_allowance(4, || par_map(&items, |i, _| i));
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_and_singleton() {
        let none: Vec<u8> = vec![];
        with_allowance(8, || {
            assert_eq!(par_map(&none, |_, x| *x), Vec::<u8>::new());
            assert_eq!(par_map(&[41], |_, x| x + 1), vec![42]);
        });
    }

    #[test]
    fn a_panicking_item_reaches_the_caller() {
        let items: Vec<u32> = (0..64).collect();
        let payload = |r: std::thread::Result<Vec<u32>>| {
            *r.expect_err("the fan-out must panic").downcast::<&str>().expect("original payload")
        };
        for width in [1, 4] {
            let r = std::panic::catch_unwind(|| {
                with_allowance(width, || {
                    par_map(&items, |_, &x| if x == 37 { panic!("item 37") } else { x })
                })
            });
            assert_eq!(payload(r), "item 37", "width {width}");
        }
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn allowance_is_positive_on_fresh_threads() {
        assert!(allowance() >= 1);
        std::thread::scope(|s| {
            s.spawn(|| assert!(allowance() >= 1));
        });
    }

    #[test]
    fn worker_shares_sum_to_budget_and_stay_positive() {
        for budget in 1..=32usize {
            for workers in 1..=budget {
                let shares: Vec<usize> =
                    (0..workers).map(|w| worker_share(budget, workers, w)).collect();
                assert_eq!(shares.iter().sum::<usize>(), budget, "budget {budget} × {workers}");
                assert!(shares.iter().all(|&s| s >= 1));
                // the split is as even as integers allow
                let (min, max) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn worker_share_more_workers_than_budget() {
        // Budget 3 over 5 workers: the first three get one thread, the
        // rest get zero — `with_allowance` clamps a zero share to 1 when
        // the worker actually runs, but the arithmetic itself must not
        // inflate the total.
        let shares: Vec<usize> = (0..5).map(|w| worker_share(3, 5, w)).collect();
        assert_eq!(shares, vec![1, 1, 1, 0, 0]);
        assert_eq!(shares.iter().sum::<usize>(), 3);
        // a zero share still runs inline once pinned
        with_allowance(worker_share(3, 5, 4), || assert_eq!(allowance(), 1));
    }

    #[test]
    fn worker_share_budget_one() {
        // The smallest budget: exactly one worker gets the thread.
        for workers in 1..=6 {
            let shares: Vec<usize> = (0..workers).map(|w| worker_share(1, workers, w)).collect();
            assert_eq!(shares.iter().sum::<usize>(), 1, "workers = {workers}");
            assert_eq!(shares[0], 1, "the single thread goes to worker 0");
        }
    }

    #[test]
    fn worker_share_boundary_index() {
        // The remainder boundary: with budget B over W workers, worker
        // `B mod W − 1` is the last to take an extra thread and worker
        // `B mod W` the first without one.
        for (budget, workers) in [(7usize, 3usize), (10, 4), (9, 4), (5, 2), (13, 5)] {
            let r = budget % workers;
            if r == 0 {
                continue;
            }
            assert_eq!(worker_share(budget, workers, r - 1), budget / workers + 1);
            assert_eq!(worker_share(budget, workers, r), budget / workers);
        }
    }

    #[test]
    fn process_shares_cover_the_thread_budget() {
        let budget = thread_count();
        for procs in 1..=budget {
            let shares: Vec<usize> = (0..procs).map(|p| process_share(procs, p)).collect();
            assert_eq!(shares.iter().sum::<usize>(), budget, "procs = {procs}");
            assert!(shares.iter().all(|&s| s >= 1));
        }
        // more processes than threads: every process still gets one
        let shares: Vec<usize> = (0..budget + 3).map(|p| process_share(budget + 3, p)).collect();
        assert!(shares.iter().all(|&s| s >= 1));
        assert_eq!(shares.iter().sum::<usize>(), budget + 3, "one thread per overflow process");
    }

    #[test]
    fn with_allowance_pins_and_restores() {
        let before = allowance();
        let seen = with_allowance(2, || {
            assert_eq!(allowance(), 2);
            // nested pin shadows, then restores
            with_allowance(1, || assert_eq!(allowance(), 1));
            allowance()
        });
        assert_eq!(seen, 2);
        assert_eq!(allowance(), before, "allowance restored after the scope");
        // zero clamps to one: a share of nothing still lets work run inline
        with_allowance(0, || assert_eq!(allowance(), 1));
    }

    #[test]
    fn with_allowance_bounds_nested_fan_out() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        with_allowance(2, || {
            let items: Vec<u32> = (0..8).collect();
            par_map(&items, |_, x| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                live.fetch_sub(1, Ordering::SeqCst);
                *x
            });
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "fan-out exceeded the pinned allowance");
    }

    #[test]
    fn inline_par_map_keeps_the_allowance_and_workers_get_shares() {
        with_allowance(5, || {
            // one item runs inline on the caller
            assert_eq!(par_map(&[0], |_, _| allowance()), vec![5]);
            // budget 5 over two items: two workers with shares {3, 2}; the
            // barrier holds each worker to one item
            let both = std::sync::Barrier::new(2);
            let mut shares = par_map(&[0; 2], |_, _| {
                both.wait();
                allowance()
            });
            shares.sort_unstable();
            assert_eq!(shares, vec![2, 3]);
            assert_eq!(allowance(), 5, "the caller's allowance survives the fan-out");
        });
    }

    #[test]
    fn nested_fan_out_never_exceeds_the_budget() {
        // Outer fan-out of budget 3 over 6 items, each item running a
        // nested par_map: the number of concurrently live leaf bodies must
        // never exceed the global budget of 3.
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<u32> = (0..6).collect();
        with_allowance(3, || {
            par_map(&items, |_, _| {
                let inner: Vec<u32> = (0..4).collect();
                par_map(&inner, |_, x| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                    *x
                })
            })
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "peak {} > budget 3",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn prefetch_accepts_any_value_and_changes_nothing() {
        let big: Vec<u64> = (0..1000).collect();
        prefetch(&big[..]);
        prefetch(&big[999..]);
        prefetch(&big[..0]);
        prefetch("site7.web.example");
        prefetch(&());
        prefetch(&Some(3u8));
        assert_eq!(big.iter().sum::<u64>(), 499_500);
    }
}
