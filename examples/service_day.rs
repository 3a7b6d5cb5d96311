//! A full registration day — check-in, in-booth ceremonies, check-out,
//! activation — run three times from the same seed: in-process, over a
//! plaintext TCP loopback socket, and over TCP secured by the mutually
//! authenticated encrypted channel. The resulting signed ledger tree
//! heads are **bit-identical**, which is the service layer's
//! equivalence contract. Under each plan's heads the day's engine
//! counters (`DayStats`) are printed: the in-process day runs inline, has
//! no engine and reports zeroed engine counters.
//!
//! Run with: `cargo run --example service_day --release`

use votegral::crypto::HmacDrbg;
use votegral::ledger::VoterId;
use votegral::service::{run_day, DayPlan, DayStats, TransportPlan};
use votegral::trip::fleet::{FleetConfig, KioskFleet};
use votegral::trip::setup::{TripConfig, TripSystem};

fn main() {
    let seed = [42u8; 32];
    let queue: Vec<(VoterId, usize)> = (1..=24).map(|v| (VoterId(v), (v % 3) as usize)).collect();
    let fleet = KioskFleet::new(FleetConfig {
        pool_batch: 8,
        seed,
    });
    let config = TripConfig {
        n_voters: 24,
        n_kiosks: 3,
        ..TripConfig::default()
    };

    println!("== Registration day over typed registrar services ==");
    println!("24 voters, 3 kiosks, pool windows of 8.\n");

    let mut heads = Vec::new();
    for transport in [
        TransportPlan::IN_PROCESS,
        TransportPlan::TCP,
        TransportPlan::SECURE_TCP,
    ] {
        // Identical deterministic setup for every run.
        let mut rng = HmacDrbg::from_u64(7);
        let mut system = TripSystem::setup(config.clone(), &mut rng);

        let mut sessions = 0usize;
        let mut credentials = 0usize;
        // One entry point for every plan: the in-process day runs inline
        // on the local boundary, the TCP days on the threaded engine
        // behind the registrar's server.
        let day = DayPlan {
            transport,
            activate: true,
            ..DayPlan::default()
        };
        let stats = run_day(&fleet, &mut system, &queue, &day, |_, vsd| {
            sessions += 1;
            credentials += vsd.credentials.len();
        })
        .expect("registration day runs");

        let reg = system.ledger.registration.tree_head();
        let env = system.ledger.envelopes.tree_head();
        println!("{transport:?}:");
        println!("  sessions registered+activated: {sessions}");
        println!("  credentials on devices:        {credentials}");
        println!("  L_R head: size {} root {}", reg.size, hex(&reg.root[..8]));
        println!("  L_E head: size {} root {}", env.size, hex(&env.root[..8]));
        print_stats(&stats);
        reg.verify(&system.ledger.registration.operator_key())
            .expect("signed head verifies");
        heads.push((reg.root, env.root, reg.size, env.size));
    }

    assert_eq!(
        heads[0], heads[1],
        "TCP and in-process ledgers must be bit-identical"
    );
    assert_eq!(
        heads[0], heads[2],
        "secure-channel ledgers must be bit-identical too"
    );
    println!("\nAll three transports produced bit-identical signed ledger heads.");
    println!("The registrar can move off-box — and under encryption — without");
    println!("changing a single ledger byte.");
}

/// The engine counters of one day, as an operator would read them.
fn print_stats(s: &DayStats) {
    let ratio = s.batches as f64 / s.sweeps.max(1) as f64;
    let busy = s.worker_busy_us as f64;
    let share = 100.0 * busy / (busy + s.worker_idle_us as f64).max(1.0);
    println!("  engine:");
    println!(
        "    ingest lane (L_E + L_R): {} windows in {} sweeps ({ratio:.1} per sweep)",
        s.batches, s.sweeps
    );
    println!(
        "    sequencer thread busy {share:.0}% ({} us busy, {} us idle)",
        s.worker_busy_us, s.worker_idle_us
    );
    println!(
        "    WAL: {} records, {} fsyncs, {} failures",
        s.wal_records, s.wal_fsyncs, s.wal_failures
    );
    println!(
        "    steal chunks {}, lost runners {}, timeouts {}, reconnects {}, reaped {}, stall-steals {}",
        s.steals.len(),
        s.lost_runners,
        s.timeouts,
        s.reconnects,
        s.reaped,
        s.stall_steals
    );
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
