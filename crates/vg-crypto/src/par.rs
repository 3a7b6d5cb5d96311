//! Order-preserving parallel map, a two-way join and a job runner over std
//! scoped threads, all drawing on one process-wide core budget.
//!
//! The paper's end-to-end evaluation ran on a 128-core Deterlab node
//! (§7.1); tally proving and verification and ledger leaf hashing are
//! embarrassingly parallel across records. [`par_map`] fans a slice out
//! over worker threads with no dependencies beyond `std`, preserving input
//! order in the output, and [`par_chunks`] maps it a fixed-size piece at a
//! time, for work that pays a fixed cost per call; [`join`] runs two
//! unlike computations side by side; [`run_jobs`] runs a short list of
//! unlike jobs, each as one unit of work. They sit in `vg-crypto` (the
//! workspace's root crate) so the ledger's batch-append fast path, the
//! tally's provers and the verifier can share them.
//!
//! # The core budget
//!
//! Parallel sections nest: the tally runs its ballot and registration
//! chains under [`join`], and every stage of either chain maps its rows
//! with [`par_map`]. So that nesting does not oversubscribe the cores,
//! every worker thread is spawned against one process-wide count of
//! `available_parallelism() − 1` free slots (the caller's own thread is
//! the one core the count leaves out):
//!
//! - a section spawns only as many workers as it finds free slots, and
//!   runs inline when it finds none; the `threads` argument only caps how
//!   many it asks for;
//! - the calling thread always works a share itself;
//! - every participant but the last to finish hands one slot back as it
//!   finishes, so a [`join`] caller whose half is done lends its core to
//!   whatever else is running while it waits, and takes the finishing
//!   worker's slot over as its own. A worker that panics hands its slot
//!   back on the way out.
//!
//! So at most `available_parallelism()` threads of these sections work at
//! once (`multiscalar_mul_par` splits its terms on the same slots), and
//! the allocator's per-thread arenas stay as few as the cores. Which
//! thread computes an item never moves a result: outputs are in input
//! order whatever ran them.
//!
//! # Threads outside the budget
//!
//! A threaded registration day holds no slot for its long-lived threads:
//! per station a station thread (ceremonies, submissions, activation
//! checks) and a refiller (derivation, printing); the commit sequencer
//! (admission sweeps, fsync); on a TCP day a server thread per connection
//! (blocks on reads, then prints or verifies check-outs) and the acceptor.
//! The stations are the day's parallelism, so its sections run on the
//! thread that calls them (`vg_trip::DAY_THREADS`): fanned out on the
//! budget as well, they read 8–14 % more peak RSS and no more throughput.
//! `vg-lint`'s `thread-spawn` rule keeps other files from starting threads.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::sync::lock_recover;

/// Maps `f` over `items` in parallel, preserving order.
///
/// Falls back to a sequential map for small inputs (below 16 items) where
/// thread spawn overhead dominates, and when the core budget has no free
/// slot. Otherwise the items split into one contiguous share per
/// participant: this thread and up to `threads − 1` workers. `f` must be
/// `Sync` (called from multiple threads).
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_in(Budget::global(), items, threads, f)
}

/// [`par_map`] for a map that pays a fixed cost once per call: `f` maps
/// pieces of at most `piece` consecutive items, and must return one output
/// per item of its piece. Each participant maps its share of `items`
/// (split as `par_map` splits them, with the same small-input cutoff)
/// piece by piece, and writes the outputs in place.
///
/// # Panics
///
/// Panics if `piece` is 0, or if `f` returns fewer outputs than its piece
/// has items.
pub fn par_chunks<T, U, F>(items: &[T], piece: usize, threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> Vec<U> + Sync,
{
    assert!(piece > 0, "par_chunks needs a piece of at least one item");
    map_shares(
        Budget::global(),
        items,
        threads,
        |items| {
            let mut out = Vec::with_capacity(items.len());
            for items in items.chunks(piece) {
                out.extend(f(items));
            }
            out
        },
        |share, slots| {
            for (items, slots) in share.chunks(piece).zip(slots.chunks_mut(piece)) {
                for (slot, u) in slots.iter_mut().zip(f(items)) {
                    *slot = Some(u);
                }
            }
        },
    )
}

/// Runs `a` and `b` and returns their results in argument order: `a` on a
/// scoped worker thread beside `b` on this one when `threads` is above
/// one and the core budget has a free slot, else `a` then `b` on this
/// thread. A panic in either closure propagates to the caller once both
/// have finished.
pub fn join<A, B, RA, RB>(threads: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    join_in(Budget::global(), threads, a, b)
}

/// Runs `f` on every job, preserving order, with no small-input cutoff:
/// each job is one unit of work, and each participant (this thread and up
/// to `threads − 1` workers from the core budget) claims the next
/// unstarted job until none is left. For a handful of unlike jobs, listed
/// longest first.
pub fn run_jobs<T, U, F>(jobs: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    run_jobs_in(Budget::global(), jobs, threads, f)
}

/// A reasonable worker count for this host.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A count of free worker slots. The process has one ([`Budget::global`]);
/// tests make their own so that concurrently running tests cannot take
/// their slots.
pub(crate) struct Budget {
    free: AtomicUsize,
}

impl Budget {
    pub(crate) const fn new(slots: usize) -> Self {
        Self {
            free: AtomicUsize::new(slots),
        }
    }

    /// The process-wide budget: one slot per core but the caller's.
    pub(crate) fn global() -> &'static Budget {
        static GLOBAL: OnceLock<Budget> = OnceLock::new();
        GLOBAL.get_or_init(|| Budget::new(default_threads() - 1))
    }

    /// Takes up to `want` free slots and returns how many it took.
    fn take(&self, want: usize) -> usize {
        let mut free = self.free.load(Ordering::Relaxed);
        loop {
            let got = free.min(want);
            if got == 0 {
                return 0;
            }
            match self.free.compare_exchange_weak(
                free,
                free - got,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return got,
                Err(now) => free = now,
            }
        }
    }

    fn give(&self, slots: usize) {
        self.free.fetch_add(slots, Ordering::AcqRel);
    }

    #[cfg(test)]
    pub(crate) fn free(&self) -> usize {
        self.free.load(Ordering::Acquire)
    }
}

/// Held by each participant of a section while it works; dropped (also
/// when unwinding) as it finishes. Every participant but the last to
/// finish hands one slot back: a worker its own, a caller the core it
/// lends while it waits; the last one's slot passes to the caller, which
/// goes on with it.
struct Finish<'a> {
    left: &'a AtomicUsize,
    budget: &'a Budget,
}

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        if self.left.fetch_sub(1, Ordering::AcqRel) > 1 {
            self.budget.give(1);
        }
    }
}

pub(crate) fn par_map_in<T, U, F>(budget: &Budget, items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_shares(
        budget,
        items,
        threads,
        |items| items.iter().map(&f).collect(),
        |share, slots| {
            for (slot, item) in slots.iter_mut().zip(share) {
                *slot = Some(f(item));
            }
        },
    )
}

/// Splits `items` into one contiguous share per participant — this thread
/// and up to `threads − 1` workers from `budget`; only this thread below
/// 16 items — and has `fill(share, slots)` set every slot of the share's
/// part of the output, so the output is allocated once, at its final
/// size. With no worker, `whole(items)` maps them all on this thread.
fn map_shares<T, U>(
    budget: &Budget,
    items: &[T],
    threads: usize,
    whole: impl FnOnce(&[T]) -> Vec<U>,
    fill: impl Fn(&[T], &mut [Option<U>]) + Sync,
) -> Vec<U>
where
    T: Sync,
    U: Send,
{
    let n = items.len();
    let threads = if n < 16 { 1 } else { threads };
    let (workers, chunk) = split(budget, n, threads);
    if workers == 0 {
        return whole(items);
    }
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let shares: Vec<_> = out
        .chunks_mut(chunk)
        .zip(items.chunks(chunk))
        .map(|share| Mutex::new(Some(share)))
        .collect();
    fan_out(budget, workers, shares.len(), &|i| {
        let Some((slots, items)) = lock_recover(&shares[i]).take() else {
            return;
        };
        fill(items, slots);
    });
    drop(shares);
    out.into_iter()
        .map(|u| u.expect("every slot filled by its share"))
        .collect()
}

/// `f` over `0..n` split into one contiguous range per participant — this
/// thread and up to `threads − 1` workers from `budget` — with the results
/// in range order. One range, `0..n`, when no slot is free.
pub(crate) fn par_ranges_in<U, F>(budget: &Budget, n: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> U + Sync,
{
    let (workers, chunk) = split(budget, n, threads);
    let parts = n.div_ceil(chunk).max(1);
    collect_parts(budget, workers, parts, |i| {
        f(i * chunk..((i + 1) * chunk).min(n))
    })
}

/// Takes the workers for `n` items on up to `threads` participants from
/// `budget` and returns how many it took and the share of each
/// participant: `n` split as evenly as the rounded-up share allows, which
/// can need fewer participants than were free (the spare slots go back).
fn split(budget: &Budget, n: usize, threads: usize) -> (usize, usize) {
    let taken = budget.take(threads.clamp(1, n.max(1)) - 1);
    let chunk = n.div_ceil(taken + 1).max(1);
    let workers = n.div_ceil(chunk).max(1) - 1;
    budget.give(taken - workers);
    (workers, chunk)
}

pub(crate) fn run_jobs_in<T, U, F>(budget: &Budget, jobs: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = budget.take(threads.clamp(1, jobs.len().max(1)) - 1);
    collect_parts(budget, workers, jobs.len(), |i| f(&jobs[i]))
}

/// `part(i)` for every `i` in `0..parts` through [`fan_out`], in order.
fn collect_parts<U: Send>(
    budget: &Budget,
    workers: usize,
    parts: usize,
    part: impl Fn(usize) -> U + Sync,
) -> Vec<U> {
    if workers == 0 {
        return (0..parts).map(part).collect();
    }
    let out: Vec<Mutex<Option<U>>> = (0..parts).map(|_| Mutex::new(None)).collect();
    fan_out(budget, workers, parts, &|i| {
        let u = part(i);
        *lock_recover(&out[i]) = Some(u);
    });
    out.into_iter()
        .map(|u| {
            u.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every part run by one participant")
        })
        .collect()
}

pub(crate) fn join_in<A, B, RA, RB>(budget: &Budget, threads: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    if threads <= 1 || budget.take(1) == 0 {
        let ra = a();
        return (ra, b());
    }
    let left = AtomicUsize::new(2);
    let finish = || Finish {
        left: &left,
        budget,
    };
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let _done = finish();
            a()
        });
        let rb = {
            let _done = finish();
            b()
        };
        match worker.join() {
            Ok(ra) => (ra, rb),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// Runs `part(i)` for every `i` in `0..parts` on this thread and `workers`
/// spawned threads (whose slots the caller has taken), each claiming the
/// next unstarted part. Not generic, so every section shares one copy of
/// the thread code.
fn fan_out(budget: &Budget, workers: usize, parts: usize, part: &(dyn Fn(usize) + Sync)) {
    let next = AtomicUsize::new(0);
    let left = AtomicUsize::new(workers + 1);
    let participate = || {
        let _done = Finish {
            left: &left,
            budget,
        };
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= parts {
                return;
            }
            part(i);
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(participate)).collect();
        participate();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, 8, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let budget = Budget::new(3);
        assert_eq!(par_map_in(&budget, &items, 8, |x| x * 2), doubled);
        assert_eq!(budget.free(), 3);
    }

    #[test]
    fn chunks_map_every_piece_in_order() {
        for n in [1usize, 15, 16, 1000] {
            let items: Vec<u64> = (0..n as u64).collect();
            let longest = AtomicUsize::new(0);
            let out = par_chunks(&items, 7, 8, |piece| {
                longest.fetch_max(piece.len(), Ordering::Relaxed);
                piece.iter().map(|x| x * 2).collect()
            });
            assert_eq!(out, par_map(&items, 8, |x| x * 2), "n {n}");
            assert_eq!(longest.into_inner(), n.min(7), "n {n}");
        }
    }

    #[test]
    fn small_inputs_sequential() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(&items, 8, |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: [u8; 0] = [];
        assert!(par_map(&items, 4, |x| *x).is_empty());
        assert!(run_jobs(&items, 4, |x| *x).is_empty());
        assert!(par_chunks(&items, 3, 4, |piece| piece.to_vec()).is_empty());
        assert_eq!(par_ranges_in(&Budget::new(3), 0, 4, |r| r.len()), vec![0]);
    }

    #[test]
    fn ranges_cover_the_input_once_in_order() {
        for (n, slots, threads) in [(1, 3, 4), (5, 3, 4), (7, 1, 2), (10, 0, 4), (9, 8, 8)] {
            let budget = Budget::new(slots);
            let ranges = par_ranges_in(&budget, n, threads, |r| r);
            let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n {n}");
            assert!(ranges.len() <= (slots + 1).min(threads), "n {n}");
            assert_eq!(budget.free(), slots, "every slot back, n {n}");
        }
    }

    #[test]
    fn jobs_run_once_each_in_order() {
        let budget = Budget::new(2);
        let jobs: Vec<u64> = (0..5).collect();
        assert_eq!(
            run_jobs_in(&budget, &jobs, 3, |j| j * 10),
            vec![0, 10, 20, 30, 40]
        );
        assert_eq!(budget.free(), 2);
    }

    #[test]
    fn join_returns_in_argument_order() {
        for threads in [1, 2, 8] {
            let (a, b) = join(threads, || "left", || 2u64);
            assert_eq!((a, b), ("left", 2), "{threads} threads");
        }
    }

    #[test]
    fn join_runs_both_sides_on_two_threads() {
        // Each side waits for the other to arrive: only concurrent sides
        // get past the barrier. A budget of its own guarantees the slot.
        let budget = Budget::new(1);
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = join_in(
            &budget,
            2,
            || barrier.wait().is_leader(),
            || barrier.wait().is_leader(),
        );
        assert!(a ^ b, "exactly one leader");
        assert_eq!(budget.free(), 1);
    }

    #[test]
    fn join_propagates_a_panic_from_either_side() {
        for threads in [1, 2] {
            let left = std::panic::catch_unwind(|| join(threads, || panic!("left"), || 1));
            let right = std::panic::catch_unwind(|| join(threads, || 1, || panic!("right")));
            for (side, outcome) in [("left", left), ("right", right)] {
                let panic = outcome.expect_err("the panic reaches the caller");
                assert_eq!(
                    panic.downcast_ref::<&str>(),
                    Some(&side),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn single_thread_matches_multi() {
        let items: Vec<u64> = (0..257).collect();
        let seq = par_map(&items, 1, |x| x * x + 1);
        let par = par_map(&items, 7, |x| x * x + 1);
        assert_eq!(seq, par);
    }

    /// Counts the leaves running at once and keeps the high-water mark.
    struct Gauge {
        active: AtomicUsize,
        high: AtomicUsize,
    }

    impl Gauge {
        fn leaf(&self) {
            let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
            self.high.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
            self.active.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn nested_sections_never_work_more_threads_than_cores() {
        // Joins inside joins, each side mapping or running jobs that map
        // again: however they nest, no more leaves run at once than the
        // host has cores, and every slot is back at the end.
        let cores = default_threads();
        let budget = Budget::new(cores - 1);
        let gauge = Gauge {
            active: AtomicUsize::new(0),
            high: AtomicUsize::new(0),
        };
        let items: Vec<u32> = (0..48).collect();
        let map = || par_map_in(&budget, &items, cores + 2, |_| gauge.leaf()).len();
        let jobs = [0u32, 1, 2, 3];
        let (a, (b, c)) = join_in(&budget, 4, map, || {
            join_in(&budget, 4, map, || {
                run_jobs_in(&budget, &jobs, 4, |_| {
                    join_in(&budget, 2, map, || gauge.leaf()).0
                })
            })
        });
        assert_eq!((a, b, c), (48, 48, vec![48; 4]));
        let high = gauge.high.load(Ordering::SeqCst);
        assert!(
            high <= cores,
            "{high} threads worked at once on {cores} cores"
        );
        if cores > 1 {
            assert!(high > 1, "the sections never ran side by side");
        }
        assert_eq!(budget.free(), cores - 1);
    }

    #[test]
    fn a_panicking_worker_returns_its_slot() {
        let budget = Budget::new(1);
        let items: Vec<u32> = (0..32).collect();
        let mapped = std::panic::catch_unwind(|| {
            par_map_in(&budget, &items, 2, |&x| {
                assert!(x < 16, "second share");
                x
            })
        });
        assert!(mapped.is_err());
        assert_eq!(budget.free(), 1, "par_map");
        for worker_panics in [true, false] {
            let joined = std::panic::catch_unwind(|| {
                join_in(
                    &budget,
                    2,
                    || assert!(!worker_panics, "worker"),
                    || assert!(worker_panics, "caller"),
                )
            });
            assert!(joined.is_err());
            assert_eq!(budget.free(), 1, "join, worker panics: {worker_panics}");
        }
    }

    #[test]
    fn a_join_caller_that_finishes_first_lends_its_core() {
        // The caller's half returns at once; the worker's half waits for
        // the slot the waiting caller lends, then runs a join of its own
        // on two threads with it.
        let budget = Budget::new(1);
        let lent = AtomicBool::new(false);
        let (two_threads, ()) = join_in(
            &budget,
            2,
            || {
                let deadline = Instant::now() + Duration::from_secs(10);
                while budget.free() == 0 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                lent.store(budget.free() == 1, Ordering::SeqCst);
                let here = || std::thread::current().id();
                let (a, b) = join_in(&budget, 2, here, here);
                a != b
            },
            || (),
        );
        assert!(
            lent.load(Ordering::SeqCst),
            "the waiting caller kept its core"
        );
        assert!(two_threads, "the lent core did not run the nested join");
        assert_eq!(budget.free(), 1);
    }
}
