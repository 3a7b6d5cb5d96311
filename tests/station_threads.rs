//! One loop per station: a default-plan registration day runs on the
//! caller's thread and starts no other, whatever `ElectionBuilder::threads`
//! says. The cases take turns ([`alone`]), so no sibling case's thread
//! comes or goes while one counts.

#![cfg(target_os = "linux")]

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use votegral::crypto::HmacDrbg;
use votegral::ledger::VoterId;
use votegral::service::{run_day, DayPlan};
use votegral::trip::fleet::{FleetConfig, KioskFleet};
use votegral::trip::setup::{TripConfig, TripSystem};
use votegral::votegral::ElectionBuilder;

/// Threads of this process, as the kernel lists them.
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// Waits (up to about a second) until the thread count is back to
/// `count`: a scoped worker whose scope has returned can still be listed
/// while its OS thread exits.
fn settle_to(count: usize) {
    for _ in 0..200 {
        if live_threads() == count {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The kernel's id of the calling thread.
fn own_tid() -> String {
    let link = std::fs::read_link("/proc/thread-self").expect("procfs names this thread");
    link.file_name()
        .expect("task id")
        .to_string_lossy()
        .into_owned()
}

/// The id of the thread the last case ran on; the lock makes the cases
/// take turns.
static LAST_CASE: Mutex<Option<String>> = Mutex::new(None);

/// Runs `case` once the previous case's thread has exited (up to about
/// two seconds): the harness gives each case a thread, which ends only
/// after its case has returned.
fn alone(case: impl FnOnce()) {
    let mut last = LAST_CASE.lock().unwrap_or_else(PoisonError::into_inner);
    let tid = own_tid();
    if let Some(previous) = last.replace(tid.clone()).filter(|p| *p != tid) {
        let task = format!("/proc/self/task/{previous}");
        for _ in 0..400 {
            if !Path::new(&task).exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    case();
}

#[test]
fn inline_day_at_one_thread_spawns_no_thread() {
    alone(|| {
        let mut rng = HmacDrbg::from_u64(23);
        // Setup prints the booth supply on the host's cores; its workers
        // are gone before the day is counted.
        let idle = live_threads();
        let mut system = TripSystem::setup(TripConfig::with_voters(7), &mut rng);
        settle_to(idle);
        // Four windows of two sessions (the last one short), activated.
        let fleet = KioskFleet::new(FleetConfig {
            pool_batch: 2,
            seed: [4u8; 32],
        });
        let queue: Vec<(VoterId, usize)> =
            (1..=7).map(|v| (VoterId(v), (v % 2) as usize)).collect();
        let day = DayPlan {
            activate: true,
            ..DayPlan::default()
        };

        let mut sunk = 0;
        let extra = extra_threads_during(|| {
            run_day(&fleet, &mut system, &queue, &day, |_, _| sunk += 1).expect("inline day runs");
        });
        assert_eq!(sunk, queue.len());
        assert_eq!(extra, 0, "threads started during the day");
    });
}

/// Runs `day` and returns how many threads the process had at its most
/// while it ran beyond those it had when it began, sampled by a watcher
/// thread as fast as procfs answers: a thread that starts and is joined
/// between two points of the day is counted too. The day starts once the
/// watcher has taken its first sample, so even a short day is watched.
fn extra_threads_during(day: impl FnOnce()) -> usize {
    let (done, most) = (AtomicBool::new(false), AtomicUsize::new(0));
    let before = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                most.fetch_max(live_threads(), Ordering::Relaxed);
            }
        });
        let before = live_threads();
        while most.load(Ordering::Relaxed) == 0 {
            std::hint::spin_loop();
        }
        day();
        done.store(true, Ordering::Relaxed);
        before
    });
    most.into_inner().saturating_sub(before)
}

/// Registers 40 voters over five kiosks through `Election::register_batch`
/// with the builder's thread knob at `threads`. Returns the L_R and L_E
/// roots, and the day's threads beyond those it began with
/// ([`extra_threads_during`]).
fn register_batch_at(threads: usize) -> (([u8; 32], [u8; 32]), usize) {
    let mut rng = HmacDrbg::from_u64(41);
    let idle = live_threads();
    let mut election = ElectionBuilder::new()
        .voters(40)
        .kiosks(5)
        .threads(threads)
        .build(&mut rng);
    settle_to(idle);
    let voters: Vec<VoterId> = (1..=40).map(VoterId).collect();
    let extra = extra_threads_during(|| {
        election
            .register_batch(&voters, &mut rng)
            .expect("registers");
    });
    let ledger = election.ledger();
    let roots = (
        ledger.registration.tree_head().root,
        ledger.envelopes.tree_head().root,
    );
    (roots, extra)
}

#[test]
fn inline_election_day_spawns_no_thread_whatever_the_knob_says() {
    alone(|| {
        let (roots_at_one, extra_at_one) = register_batch_at(1);
        let (roots_at_eight, extra_at_eight) = register_batch_at(8);
        assert_eq!((extra_at_one, extra_at_eight), (0, 0));
        assert_eq!(roots_at_eight, roots_at_one);
    });
}
