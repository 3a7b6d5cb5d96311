//! Order-preserving parallel map and a two-way join over std scoped
//! threads.
//!
//! The paper's end-to-end evaluation ran on a 128-core Deterlab node
//! (§7.1); tally proving and verification and ledger leaf hashing are
//! embarrassingly parallel across records. [`par_map`] fans a slice out
//! over a bounded number of worker threads with no dependencies beyond
//! `std`, preserving input order in the output; [`join`] runs two unlike
//! computations side by side. They sit in `vg-crypto` (the workspace's
//! root crate) so the ledger's batch-append fast path, the tally's
//! provers and the verifier can share them.

/// Maps `f` over `items` in parallel, preserving order.
///
/// Falls back to a sequential map for small inputs where thread spawn
/// overhead dominates. `f` must be `Sync` (called from multiple threads).
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 || n < 16 {
        return items.iter().map(&f).collect();
    }

    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (slot_chunk, item_chunk) in out.chunks_mut(chunk).zip(items.chunks(chunk)) {
            scope.spawn(|| {
                for (slot, item) in slot_chunk.iter_mut().zip(item_chunk.iter()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("every slot filled by its worker"))
        .collect()
}

/// Runs `a` and `b` and returns their results in argument order: `a` on a
/// scoped worker thread beside `b` on this one when `threads` is above
/// one, else `a` then `b` on this thread. A panic in either closure
/// propagates to the caller once both have finished.
pub fn join<A, B, RA, RB>(threads: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    if threads <= 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let worker = scope.spawn(a);
        let rb = b();
        match worker.join() {
            Ok(ra) => (ra, rb),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// A reasonable worker count for this host.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, 8, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
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
        // get past the barrier.
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = join(
            2,
            || barrier.wait().is_leader(),
            || barrier.wait().is_leader(),
        );
        assert!(a ^ b, "exactly one leader");
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
}
