//! Poison-tolerant lock acquisition, shared by every crate in the
//! workspace.
//!
//! A poisoned [`Mutex`] means some thread panicked while holding the
//! guard. For the state these locks protect — progress counters, pool
//! feeds, kiosk journals — the data is either
//! value-complete on every update or re-validated by the consumer, so
//! recovering the inner value is strictly better than cascading the
//! panic into threads that could still wind the day down cleanly (and
//! flush durable state on the way out). The `vg-lint` `lock-unwrap` rule
//! forbids bare `.lock().unwrap()` / `.lock().expect(..)` workspace-wide
//! so every mutex acquisition makes this decision explicitly, through
//! one audited helper.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `lock`, recovering the guard from a poisoned mutex instead of
/// propagating the panic of whichever thread died holding it.
pub fn lock_recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv`, recovering the reacquired guard from a poisoned mutex
/// (the [`lock_recover`] of condvar waits).
pub fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn recovers_after_a_panicking_holder() {
        let lock = Arc::new(Mutex::new(41));
        let poisoner = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let _guard = lock_recover(&lock);
                panic!("die holding the lock");
            })
        };
        assert!(poisoner.join().is_err());
        let mut guard = lock_recover(&lock);
        *guard += 1;
        assert_eq!(*guard, 42);
    }
}
