//! One loop per station: a default-plan registration day at `threads = 1`
//! runs on the caller's thread and starts no other. Alone in its binary,
//! so no sibling test's threads come and go while it counts.

#![cfg(target_os = "linux")]

use votegral::crypto::HmacDrbg;
use votegral::ledger::VoterId;
use votegral::service::{run_day, DayPlan};
use votegral::trip::fleet::{FleetConfig, KioskFleet};
use votegral::trip::setup::{TripConfig, TripSystem};

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
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn inline_day_at_one_thread_spawns_no_thread() {
    let mut rng = HmacDrbg::from_u64(23);
    // Setup prints the booth supply on the host's cores; its workers are
    // gone before the day is counted.
    let idle = live_threads();
    let mut system = TripSystem::setup(TripConfig::with_voters(7), &mut rng);
    settle_to(idle);
    // Four windows of two sessions (the last one short), activated.
    let fleet = KioskFleet::new(FleetConfig {
        pool_batch: 2,
        threads: 1,
        seed: [4u8; 32],
    });
    let queue: Vec<(VoterId, usize)> = (1..=7).map(|v| (VoterId(v), (v % 2) as usize)).collect();
    let day = DayPlan {
        activate: true,
        ..DayPlan::default()
    };

    let before = live_threads();
    let mut during = Vec::new();
    run_day(&fleet, &mut system, &queue, &day, |_, _| {
        during.push(live_threads())
    })
    .expect("inline day runs");
    assert_eq!(during, vec![before; queue.len()]);
}
